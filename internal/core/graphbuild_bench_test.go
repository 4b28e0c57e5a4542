package core

// Benchmarks for the coverage-graph build pipeline at the repo's
// canonical 50k-point workload: the full engine build and its two
// phases — grid bucketing and the cell-pair ε-join. Single-worker, so numbers are comparable across
// machines regardless of core count.

import (
	"testing"

	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

func BenchmarkGraphBuild50k(b *testing.B) {
	ds, _ := dataset.Clustered(50000, 2, 0, 42)
	m := object.Euclidean{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := BuildParallelGraphEngine(ds.Points, m, 0.0025, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridBucket50k(b *testing.B) {
	ds, _ := dataset.Clustered(50000, 2, 0, 42)
	m := object.Euclidean{}
	flat, _ := object.Flatten(ds.Points, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := grid.Build(flat, 0.0025)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridJoin50k(b *testing.B) {
	ds, _ := dataset.Clustered(50000, 2, 0, 42)
	m := object.Euclidean{}
	flat, _ := object.Flatten(ds.Points, m)
	g, _ := grid.Build(flat, 0.0025)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := grid.Join(g, 0.0025, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
}

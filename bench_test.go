package disc_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, each driving the corresponding experiment
// runner in internal/experiments. By default benchmarks run the reduced
// ("quick") sweeps so `go test -bench=.` completes in minutes; set
// DISC_BENCH_FULL=1 to run the paper-scale parameters (n=10000 etc.), or
// use cmd/discbench for full runs with printed tables.
//
// Additional micro-benchmarks cover the load-bearing primitives: M-tree
// construction, range queries and the selection algorithms.

import (
	"os"
	"testing"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/experiments"
	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/object"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	if os.Getenv("DISC_BENCH_FULL") == "" {
		cfg.Quick = true
		cfg.N = 1500
	}
	return cfg
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table 3(a)-(d): solution sizes per
// algorithm across the radius sweep on all four datasets.
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig6 regenerates Figure 6: the model comparison (DisC vs
// MaxSum, MaxMin, k-medoids, r-C) on clustered data.
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7(a)-(d): node accesses of Basic-DisC,
// Greedy-DisC (each ± pruning) and Greedy-C.
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8(a)-(d): node accesses of the pruned
// Greedy-DisC variants.
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Cardinality regenerates Figure 9(a)-(b): size and accesses
// vs dataset cardinality.
func BenchmarkFig9Cardinality(b *testing.B) { runExperiment(b, "fig9card") }

// BenchmarkFig9Dimensionality regenerates Figure 9(c)-(d): size and
// accesses vs dimensionality.
func BenchmarkFig9Dimensionality(b *testing.B) { runExperiment(b, "fig9dim") }

// BenchmarkFig10 regenerates Figure 10: node accesses on trees of varying
// fat-factor.
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11to13ZoomIn regenerates Figures 11-13: zoom-in size,
// accesses and Jaccard distance vs from-scratch recomputation.
func BenchmarkFig11to13ZoomIn(b *testing.B) { runExperiment(b, "zoomin") }

// BenchmarkFig14to16ZoomOut regenerates Figures 14-16: zoom-out size,
// accesses and Jaccard distance for all variants.
func BenchmarkFig14to16ZoomOut(b *testing.B) { runExperiment(b, "zoomout") }

// BenchmarkAblationCapacity regenerates the in-text node-capacity claim.
func BenchmarkAblationCapacity(b *testing.B) { runExperiment(b, "capacity") }

// BenchmarkAblationFastC regenerates the in-text Fast-C vs Greedy-C
// claims.
func BenchmarkAblationFastC(b *testing.B) { runExperiment(b, "fastc") }

// BenchmarkAblationBottomUp regenerates the in-text bottom-up range-query
// claim.
func BenchmarkAblationBottomUp(b *testing.B) { runExperiment(b, "bottomup") }

// BenchmarkAblationBuildInit regenerates the in-text build-time count
// initialisation claim.
func BenchmarkAblationBuildInit(b *testing.B) { runExperiment(b, "buildinit") }

// --- micro-benchmarks ---

func benchPoints(n int) []object.Point {
	ds, err := dataset.Clustered(n, 2, 0, 42)
	if err != nil {
		panic(err)
	}
	return ds.Points
}

// BenchmarkMTreeBuild measures index construction.
func BenchmarkMTreeBuild(b *testing.B) {
	pts := benchPoints(5000)
	cfg := mtree.Config{Capacity: 50, Metric: object.Euclidean{}, Policy: mtree.MinOverlap}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mtree.Build(cfg, pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMTreeRangeQuery measures a single range query on a built tree.
func BenchmarkMTreeRangeQuery(b *testing.B) {
	pts := benchPoints(5000)
	cfg := mtree.Config{Capacity: 50, Metric: object.Euclidean{}, Policy: mtree.MinOverlap}
	tree, err := mtree.Build(cfg, pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.RangeQueryAround(i%len(pts), 0.05)
	}
}

// BenchmarkSelectGreedy measures a full Greedy-DisC selection through the
// public API (index construction excluded).
func BenchmarkSelectGreedy(b *testing.B) {
	d, err := disc.New(benchPoints(3000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Select(0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectBasic measures Basic-DisC through the public API.
func BenchmarkSelectBasic(b *testing.B) {
	d, err := disc.New(benchPoints(3000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Select(0.05, disc.WithAlgorithm(disc.AlgorithmBasic)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoomIn measures incremental zoom-in against the cost of the
// from-scratch run benchmarked above.
func BenchmarkZoomIn(b *testing.B) {
	d, err := disc.New(benchPoints(3000))
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.Select(0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ZoomIn(res, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoomOut measures incremental zoom-out (greedy variant (a)).
func BenchmarkZoomOut(b *testing.B) {
	d, err := disc.New(benchPoints(3000))
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.Select(0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ZoomOut(res, 0.1, disc.ZoomOutGreedyLargest); err != nil {
			b.Fatal(err)
		}
	}
}

// --- engine comparison on large synthetic clusters ---
//
// The paper-style comparison the coverage-graph work targets:
// the same pruned Greedy-DisC selection on 50k clustered points, per
// index backend. Index construction is excluded from the selection
// benchmarks (measured separately below), mirroring the paper's
// node-access experiments.

const (
	engineBenchN = 50_000
	engineBenchR = 0.0025
)

func benchGreedySelect(b *testing.B, e core.Engine) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GreedyDisC(e, engineBenchR, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true})
	}
}

// BenchmarkGreedyDisC_MTree is the single-threaded M-tree baseline.
func BenchmarkGreedyDisC_MTree(b *testing.B) {
	pts := benchPoints(engineBenchN)
	cfg := mtree.Config{Capacity: 50, Metric: object.Euclidean{}, Policy: mtree.MinOverlap}
	e, err := core.BuildTreeEngine(cfg, pts)
	if err != nil {
		b.Fatal(err)
	}
	benchGreedySelect(b, e)
}

// BenchmarkGreedyDisC_ParallelGraph runs the same selection on the
// materialised coverage graph: every neighbourhood query is an array
// lookup and the initial counts are free.
func BenchmarkGreedyDisC_ParallelGraph(b *testing.B) {
	pts := benchPoints(engineBenchN)
	e, err := core.BuildParallelGraphEngine(pts, object.Euclidean{}, engineBenchR, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchGreedySelect(b, e)
}

// BenchmarkParallelGraphBuild measures the coverage-graph construction
// itself (grid bucketing + the cell-pair ε-join across all cores).
func BenchmarkParallelGraphBuild(b *testing.B) {
	pts := benchPoints(engineBenchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildParallelGraphEngine(pts, object.Euclidean{}, engineBenchR, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- steady-state neighbour queries (the zero-allocation path) ---
//
// One reusable destination buffer, one query per iteration: the loop the
// DisC heuristics spend their lives in. With the buffer at its
// high-water capacity every engine must report 0 allocs/op.

func benchNeighborsAppend(b *testing.B, e core.Engine, r float64) {
	b.Helper()
	buf := make([]object.Neighbor, 0, 4096)
	n := e.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = e.NeighborsAppend(buf[:0], i%n, r)
	}
}

// BenchmarkNeighborsAppend_MTree measures the reusable-buffer range query
// on the M-tree.
func BenchmarkNeighborsAppend_MTree(b *testing.B) {
	pts := benchPoints(5000)
	cfg := mtree.Config{Capacity: 50, Metric: object.Euclidean{}, Policy: mtree.MinOverlap}
	e, err := core.BuildTreeEngine(cfg, pts)
	if err != nil {
		b.Fatal(err)
	}
	benchNeighborsAppend(b, e, 0.05)
}

// BenchmarkNeighborsAppend_Graph answers from the materialised coverage
// graph (O(degree) adjacency copy).
func BenchmarkNeighborsAppend_Graph(b *testing.B) {
	pts := benchPoints(5000)
	e, err := core.BuildParallelGraphEngine(pts, object.Euclidean{}, 0.05, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchNeighborsAppend(b, e, 0.05)
}

// BenchmarkNeighborsAppend_Flat scans the contiguous flat storage with
// the compiled kernel.
func BenchmarkNeighborsAppend_Flat(b *testing.B) {
	pts := benchPoints(5000)
	e, err := core.NewFlatEngine(pts, object.Euclidean{})
	if err != nil {
		b.Fatal(err)
	}
	benchNeighborsAppend(b, e, 0.05)
}

// BenchmarkFlatEngineSelect contrasts the linear-scan engine.
func BenchmarkFlatEngineSelect(b *testing.B) {
	pts := benchPoints(3000)
	e, err := core.NewFlatEngine(pts, object.Euclidean{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.GreedyDisC(e, 0.05, core.GreedyOptions{Update: core.UpdateGrey})
	}
}

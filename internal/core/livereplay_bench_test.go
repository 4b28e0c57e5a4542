package core

import (
	"math/rand/v2"
	"testing"

	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

// BenchmarkLiveReplayTail recovers one dataset in the shape of the
// repository benchmark's restart workload: an 8,000-point clustered
// checkpoint (d=2, 10 clusters, euclidean) restored with its coverage
// graph at r = 0.01, then a WAL tail of 750 inserts and deletes of
// every third of them in a seeded order, then Finish. One op is the
// whole replay: restore, tail, fold and greedy.
func BenchmarkLiveReplayTail(b *testing.B) {
	const (
		n       = 8000
		inserts = 750
		r       = 0.01
	)
	ds, err := dataset.Clustered(n+inserts, 2, 10, 42)
	if err != nil {
		b.Fatal(err)
	}
	flat, err := object.Flatten(ds.Points[:n], object.Euclidean{})
	if err != nil {
		b.Fatal(err)
	}
	g, err := grid.Build(flat, r)
	if err != nil {
		b.Fatal(err)
	}
	csr, _, err := grid.Join(g, r, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Tail point j is inserted in a seeded order and, when j%3 == 0,
	// deleted at a seeded later place.
	rng := rand.New(rand.NewPCG(1, 3))
	var tail []replayOp
	var doomed []int
	next := n
	for _, j := range rng.Perm(inserts) {
		for len(doomed) > 0 && rng.IntN(4) == 0 {
			d := rng.IntN(len(doomed))
			tail = append(tail, replayOp{id: doomed[d]})
			doomed = append(doomed[:d], doomed[d+1:]...)
		}
		tail = append(tail, replayOp{p: ds.Points[n+j]})
		if j%3 == 0 {
			doomed = append(doomed, next)
		}
		next++
	}
	for _, id := range doomed {
		tail = append(tail, replayOp{id: id})
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp, err := RestoreLiveReplay(flat, csr, r)
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range tail {
			if op.p != nil {
				_, err = rp.Insert(op.p)
			} else {
				err = rp.Delete(op.id)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if l := rp.Finish(); l.Len() != n+inserts-inserts/3 {
			b.Fatalf("recovered %d live points", l.Len())
		}
	}
}

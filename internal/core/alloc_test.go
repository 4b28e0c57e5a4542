//go:build !race

package core

// Alloc-count assertions are meaningful only without the race detector's
// instrumentation, hence the build tag; `go test -race` skips this file.

import (
	"fmt"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

// TestNeighborsAppendZeroAlloc pins the zero-allocation contract of the
// steady-state query loop: once the destination buffer has grown to the
// working-set high-water mark, NeighborsAppend and NeighborsWhiteAppend
// allocate nothing on any engine.
func TestNeighborsAppendZeroAlloc(t *testing.T) {
	pts := randomPoints(600, 2, 99)
	m := object.Euclidean{}
	const r = 0.15
	for name, e := range allEngines(t, pts, m) {
		buf := make([]object.Neighbor, 0, len(pts))
		id := 0
		var plain Run
		allocs := testing.AllocsPerRun(200, func() {
			buf = e.NeighborsAppend(buf[:0], id, r, &plain)
			id = (id + 7) % len(pts)
		})
		if allocs != 0 {
			t.Errorf("%s: NeighborsAppend allocates %.1f/op in steady state", name, allocs)
		}
		cov := e.(CoverageEngine)
		run := coveringRun(cov)
		allocs = testing.AllocsPerRun(200, func() {
			buf = cov.NeighborsWhiteAppend(buf[:0], id, r, run)
			id = (id + 7) % len(pts)
		})
		if allocs != 0 {
			t.Errorf("%s: NeighborsWhiteAppend allocates %.1f/op in steady state", name, allocs)
		}
	}
}

// TestCeilingViewZeroAlloc extends the steady-state contract to the
// coverage graph's two non-ceiling paths, on both join substrates: row
// prefixes below the ceiling (NeighborsAppend and NeighborsWhiteAppend)
// and the substrate fallback above it, whose grid scans answer in cell
// order without a sort.
func TestCeilingViewZeroAlloc(t *testing.T) {
	pts := randomPoints(600, 2, 101)
	flat, err := object.Flatten(pts, object.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 0.15
	for _, flatsub := range []bool{false, true} {
		g, err := buildGraph(flat, nil, nil, ceiling, 2, flatsub, 0)
		if err != nil {
			t.Fatal(err)
		}
		run := coveringRun(g)
		for id := 0; id < len(pts); id += 3 {
			run.cover(id)
		}
		buf := make([]object.Neighbor, 0, len(pts))
		for _, r := range []float64{ceiling / 2, 2 * ceiling} {
			name := fmt.Sprintf("flatjoin=%v r=%g", flatsub, r)
			id := 0
			allocs := testing.AllocsPerRun(200, func() {
				buf = g.NeighborsAppend(buf[:0], id, r, run)
				buf = g.NeighborsWhiteAppend(buf[:0], id, r, run)
				id = (id + 7) % len(pts)
			})
			if allocs != 0 {
				t.Errorf("%s: NeighborsAppend/NeighborsWhiteAppend allocate %.1f/op", name, allocs)
			}
		}
	}
}

// TestComponentSelectZeroAlloc pins the steady-state contract of the
// component-mode run over the adjacency: once its state (white set,
// counts, grey list, bucket queue) and the id buffer have grown to
// their high-water marks, a full run allocates nothing. Only
// per-selection setup (solution arrays, the run state) may allocate.
func TestComponentSelectZeroAlloc(t *testing.T) {
	pts := randomPoints(600, 2, 100)
	const r = 0.05
	g, err := BuildParallelGraphEngine(pts, object.Euclidean{}, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	csr, ok := g.AdjacencyCSR(r)
	if !ok {
		t.Fatal("no adjacency at build radius")
	}
	run := newAdjGreedy(len(pts))
	ids, _ := run.run(csr, r, nil) // grow to high-water
	if len(ids) < 10 {
		t.Fatalf("workload too degenerate for the run (%d picks)", len(ids))
	}
	buf := ids[:0]
	allocs := testing.AllocsPerRun(20, func() {
		buf, _ = run.run(csr, r, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("component run allocates %.1f/op in steady state", allocs)
	}
}

// TestLiveSelectionZeroAlloc pins the steady-state read contract with
// telemetry enabled: once a published snapshot has materialised its id
// slice (first Selection call after a Flush), every further Selection,
// Size and IsRepresentative read is 0 alloc/op — the instrumented
// mutation path must not leak allocations into the lock-free read path.
func TestLiveSelectionZeroAlloc(t *testing.T) {
	l, err := NewLiveDisC(object.Euclidean{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range randomPoints(200, 2, 42) {
		if _, err := l.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	l.Selection() // materialise the id slice
	var got int
	allocs := testing.AllocsPerRun(500, func() {
		ids := l.Selection()
		got = len(ids) + l.Size()
		_ = l.IsRepresentative(0)
	})
	if allocs != 0 {
		t.Errorf("steady-state Selection read allocates %.1f/op, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("selection unexpectedly empty")
	}
}

// TestBucketQueueFreshFillAllocs: a fresh queue's fill-and-drain, stale
// re-entries included, allocates the queue's three arrays and nothing
// per bucket or per push.
func TestBucketQueueFreshFillAllocs(t *testing.T) {
	counts := make([]int, 4096)
	live := func(int) bool { return true }
	round := func() {
		for i := range counts {
			counts[i] = i % 97
		}
		var q bucketQueue
		fill(&q, counts, nil)
		for {
			id, ok := popLive(&q, counts, live)
			if !ok {
				break
			}
			// Stale the next object's key so it re-enters lower.
			if next := (id + 1) % len(counts); counts[next] > 0 {
				counts[next]--
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, round); allocs > 3 {
		t.Errorf("fresh bucketQueue fill-and-drain allocates %.1f/op, want at most 3", allocs)
	}
}

// TestBucketQueueZeroAlloc: refilling and draining a queue that has
// been drained once reuses its bucket storage and allocates nothing,
// stale re-entries included.
func TestBucketQueueZeroAlloc(t *testing.T) {
	var q bucketQueue
	counts := make([]int, 256)
	live := func(int) bool { return true }
	round := func() {
		for i := range counts {
			counts[i] = i % 17
			q.push(int32(len(counts)-1-i), counts[i])
		}
		q.start()
		for {
			id, ok := popLive(&q, counts, live)
			if !ok {
				break
			}
			// Stale the next object's key so it re-enters lower.
			if next := (id + 1) % len(counts); counts[next] > 0 {
				counts[next]--
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("bucketQueue refill allocates %.1f/op", allocs)
	}
}

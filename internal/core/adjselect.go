package core

import (
	"math"
	"time"

	"github.com/discdiversity/disc/internal/bitset"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/telemetry"
)

// GreedyDisCComponents is Greedy-DisC run over the materialised
// r-adjacency in CSR form: one sequential pruned greedy that pops
// (count desc, id asc) from a bucketQueue, as GreedyDisC does, so it
// selects GreedyDisC's ids in GreedyDisC's order. The name is
// historical: picks in one connected component never change white
// counts in another, so the run needs no component decomposition to
// select what per-component runs would.
//
// The coverage-graph engine serves its materialised graph directly (or
// a cached row-prefix view of it); every other engine pays one range
// query per object to materialise the adjacency first — the cost of
// the count-initialisation pass a global run issues anyway. Accesses
// mirrors the global pruned run's accounting: one unit per adjacency
// entry examined, at least one per query.
//
// UpdateGrey and UpdateLazyGrey run natively. UpdateWhite maintains the
// same exact counts through grey-side decrements (the objects that
// leave the white set with a pick are the pick and its new greys, so
// the count a 2r candidate query refreshes equals the decremented one
// and selections are identical; only the access profile differs).
// UpdateLazyWhite's 1.5r candidate queries cannot be answered from the
// materialised r-adjacency, so it falls back to the global path, as
// does a radius whose adjacency would pass AdjacencyBudget.
func GreedyDisCComponents(e Engine, r float64, opts GreedyOptions) *Solution {
	if opts.Update == UpdateLazyWhite {
		return GreedyDisC(e, r, opts)
	}
	var run Run
	csr, ok := adjacency(e, r, &run)
	if !ok {
		return GreedyDisC(e, r, opts)
	}
	// From here on the run is over the adjacency; fallback runs above
	// land in the mode="global" series via GreedyDisC.
	defer telemetry.Since(metSelectComponents, time.Now())
	updR := r
	if opts.Update == UpdateLazyGrey {
		updR = r / 2
	}
	ids, acc := newAdjGreedy(e.Size()).run(csr, updR, nil)
	run.accesses += acc
	return (&coloring{ids: ids, run: run}).solution(greedyName(opts, true), r)
}

// adjGreedy is the reusable state of the pruned greedy over a CSR.
// Every structure is sized once for the id domain: a finished run
// leaves the white set empty (every object ends covered) and the queue
// drained with its lists kept, and count entries are
// rewritten before they are read, so a second run over the same domain
// allocates nothing.
type adjGreedy struct {
	white bitset.Set
	nw    []int32
	grey  []int32
	q     bucketQueue
}

func newAdjGreedy(n int) *adjGreedy {
	g := &adjGreedy{nw: make([]int32, n)}
	g.white.Reset(n)
	return g
}

// run selects over the whole id domain, appending the selected ids, in
// pick order, to ids. It returns them with the entries-examined access
// count. Counts
// start at the exact degrees; each pick greys its white neighbours and
// decrements the count of every object within updR of a new grey — the
// grey update of the global algorithm. Decrements touch only the count
// array and skip the white test: a non-white object's count is never
// read again (popLive drops its entries before reading it, and the next
// run rewrites it), so only white counts need be exact. popLive
// re-enters a stale entry at its current count, as in every other
// greedy run.
func (g *adjGreedy) run(csr *grid.CSR, updR float64, ids []int) ([]int, int64) {
	var acc int64
	for id := range g.nw {
		g.white.Set(id)
		g.nw[id] = int32(csr.Degree(id))
	}
	fill(&g.q, g.nw, nil)
	for {
		pi, ok := popLive(&g.q, g.nw, g.white.Test)
		if !ok {
			break
		}
		g.white.Clear(pi)
		ids = append(ids, pi)
		row := csr.Row(pi)
		acc += int64(max(len(row), 1))
		g.grey = g.grey[:0]
		for _, nb := range row {
			if g.white.Test(nb.ID) {
				g.white.Clear(nb.ID)
				g.grey = append(g.grey, int32(nb.ID))
			}
		}
		for _, gj := range g.grey {
			grow := csr.Row(int(gj))
			acc += int64(len(grow))
			for _, nb := range grow {
				if nb.Dist <= updR {
					g.nw[nb.ID]--
				}
			}
		}
	}
	return ids, acc
}

// adjacency returns the exact r-adjacency of the engine's objects: the
// coverage-graph engine's own graph or view when r is at most its
// ceiling, otherwise one materialised by range queries. ok is false
// when that adjacency would pass AdjacencyBudget.
func adjacency(e Engine, r float64, run *Run) (*grid.CSR, bool) {
	if g, ok := e.(*ParallelGraphEngine); ok {
		if csr, have := g.AdjacencyCSR(r); have {
			return csr, true
		}
	}
	return materializeAdjacency(e, r, run)
}

// materializeAdjacency builds the exact r-adjacency of the engine's
// objects as a CSR, one range query per object in ascending id order,
// charged to run:
// the queries cost what Greedy-DisC's count initialisation would, and
// afterwards every scan is an array walk. ok is false when the
// adjacency would pass AdjacencyBudget (callers fall back to the global
// path, whose memory does not grow with the edge count).
func materializeAdjacency(e Engine, r float64, run *Run) (csr *grid.CSR, ok bool) {
	n := e.Size()
	limit := min(AdjacencyBudget(n), math.MaxInt32)
	offsets := make([]int32, n+1)
	var nbrs []object.Neighbor
	for id := 0; id < n; id++ {
		nbrs = e.NeighborsAppend(nbrs, id, r, run)
		if int64(len(nbrs)) > limit {
			return nil, false
		}
		offsets[id+1] = int32(len(nbrs))
	}
	return &grid.CSR{Offsets: offsets, Nbrs: nbrs}, true
}

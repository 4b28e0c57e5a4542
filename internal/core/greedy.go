package core

import (
	"time"

	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/telemetry"
)

// UpdateStrategy selects how Greedy-DisC refreshes the white-neighbourhood
// sizes of the remaining white objects after a selection (Section 5.1).
type UpdateStrategy int

const (
	// UpdateGrey issues one range query per newly greyed object
	// ("Grey-Greedy-DisC"). Exact counts.
	UpdateGrey UpdateStrategy = iota
	// UpdateWhite issues a single 2r query around the selected object to
	// find the whites whose counts may have changed, then fixes their
	// counts with direct distance computations ("White-Greedy-DisC").
	// Exact counts, fewer node accesses when many objects grey at once.
	UpdateWhite
	// UpdateLazyGrey is UpdateGrey with radius r/2: cheaper queries that
	// miss some updates, trading slightly larger solutions for fewer
	// accesses ("Lazy-Grey-Greedy-DisC").
	UpdateLazyGrey
	// UpdateLazyWhite is UpdateWhite with radius 3r/2
	// ("Lazy-White-Greedy-DisC").
	UpdateLazyWhite
)

// String implements fmt.Stringer.
func (u UpdateStrategy) String() string {
	switch u {
	case UpdateGrey:
		return "grey"
	case UpdateWhite:
		return "white"
	case UpdateLazyGrey:
		return "lazy-grey"
	case UpdateLazyWhite:
		return "lazy-white"
	default:
		return "update?"
	}
}

// GreedyOptions configures GreedyDisC.
type GreedyOptions struct {
	// Update is the count-maintenance strategy.
	Update UpdateStrategy
	// Pruned enables the grey-subtree pruning rule when the engine
	// supports it.
	Pruned bool
}

// queryScratch holds the per-run reusable neighbour buffers the
// selection and zoom algorithms thread through their query loops: one
// buffer per concurrently-live role, so the steady-state loop performs
// no allocation once each buffer has reached its high-water capacity.
// Contents are invalidated by the next query into the same buffer.
type queryScratch struct {
	ns   []object.Neighbor // primary neighbourhood of the selected object
	grey []object.Neighbor // objects newly greyed by the selection
	upd  []object.Neighbor // count-maintenance queries
}

// GreedyDisC computes an r-DisC diverse subset with Algorithm 1 of the
// paper: repeatedly select the white object covering the most white
// objects. The white-neighbourhood sizes live in the priority list L′,
// a bucketQueue as in every greedy run (one push per object, stale
// entries re-enter at their current count when popped); how they are
// maintained after each selection is governed by opts.Update.
//
// If the engine collected neighbourhood counts during construction
// (CountingEngine, radius matching r), initialisation is free; otherwise
// one range query per object establishes the counts.
func GreedyDisC(e Engine, r float64, opts GreedyOptions) *Solution {
	defer telemetry.Since(metSelectGlobal, time.Now())
	s := newColoring(e.Size())
	run := &s.run
	if opts.Pruned {
		run.startCoverage(e, nil)
	}

	var sc queryScratch
	nw := initialWhiteCounts(e, r, run, &sc)
	var q bucketQueue
	fill(&q, nw, nil)
	for {
		pi, ok := popLive(&q, nw, s.isWhite)
		if !ok {
			break
		}
		s.selectBlack(pi)
		sc.ns = run.neighbors(e, sc.ns[:0], pi, r)
		sc.grey = sc.grey[:0]
		for _, nb := range sc.ns {
			if s.colors[nb.ID] == White {
				s.grey(nb.ID)
				sc.grey = append(sc.grey, nb)
			}
		}
		updateWhiteCounts(e, run, s.colors, r, opts.Update, pi, sc.grey, nw, &sc)
	}
	return s.solution(greedyName(opts, false), r)
}

func greedyName(opts GreedyOptions, components bool) string {
	var name string
	switch opts.Update {
	case UpdateWhite:
		name = "White-Greedy-DisC"
	case UpdateLazyGrey:
		name = "Lazy-Grey-Greedy-DisC"
	case UpdateLazyWhite:
		name = "Lazy-White-Greedy-DisC"
	default:
		name = "Grey-Greedy-DisC"
	}
	switch {
	case opts.Pruned && components:
		name += " (Pruned, Components)"
	case opts.Pruned:
		name += " (Pruned)"
	case components:
		name += " (Components)"
	}
	return name
}

// initialWhiteCounts returns |N_r(p)| per object, using build-time counts
// when available and issuing one range query per object (into the shared
// scratch buffer) otherwise.
func initialWhiteCounts(e Engine, r float64, run *Run, sc *queryScratch) []int {
	if ce, ok := e.(CountingEngine); ok {
		if counts, cr, have := ce.InitialCounts(); have && cr == r {
			return append([]int(nil), counts...)
		}
	}
	nw := make([]int, e.Size())
	for id := range nw {
		sc.ns = e.NeighborsAppend(sc.ns[:0], id, r, run)
		nw[id] = len(sc.ns)
	}
	return nw
}

// updateWhiteCounts applies the chosen maintenance strategy after pi was
// selected and newGrey turned grey, decrementing nw in place (the queue
// catches up when it pops a stale entry). newGrey aliases sc.grey; the
// queries issued here land in sc.upd, never in sc.ns or sc.grey.
func updateWhiteCounts(e Engine, run *Run, colors []Color, r float64, strategy UpdateStrategy, pi int, newGrey []object.Neighbor, nw []int, sc *queryScratch) {
	switch {
	// White-Greedy's 2r candidate query finds every white object within r
	// of a new grey only under the triangle inequality; without it (cosine,
	// dot product) the exact count comes from the grey side, as in the
	// grey update.
	case strategy == UpdateGrey, strategy == UpdateLazyGrey,
		strategy == UpdateWhite && !object.TriangleSafe(e.Metric()):
		radius := r
		if strategy == UpdateLazyGrey {
			radius = r / 2
		}
		for _, gj := range newGrey {
			sc.upd = run.neighbors(e, sc.upd[:0], gj.ID, radius)
			for _, nk := range sc.upd {
				if colors[nk.ID] == White {
					nw[nk.ID]--
				}
			}
		}
	default: // UpdateWhite, UpdateLazyWhite
		radius := 2 * r
		if strategy == UpdateLazyWhite {
			radius = 1.5 * r
		}
		sc.upd = run.neighbors(e, sc.upd[:0], pi, radius)
		m := e.Metric()
		for _, wk := range sc.upd {
			if colors[wk.ID] != White {
				continue
			}
			cnt := 0
			for _, gj := range newGrey {
				if m.Dist(e.Point(wk.ID), e.Point(gj.ID)) <= r {
					cnt++
				}
			}
			nw[wk.ID] -= cnt
		}
	}
}

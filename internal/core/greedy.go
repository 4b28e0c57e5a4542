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

// GreedyDisC computes an r-DisC diverse subset with Algorithm 1 of the
// paper: repeatedly select the white object covering the most white
// objects (coverGreedy). How the white-neighbourhood sizes in L′ are
// maintained after each selection is governed by opts.Update.
//
// If the engine collected neighbourhood counts during construction
// (CountingEngine, radius matching r), initialisation is free; otherwise
// one range query per object establishes the counts.
func GreedyDisC(e Engine, r float64, opts GreedyOptions) *Solution {
	defer telemetry.Since(metSelectGlobal, time.Now())
	s := newColoring(e.Size())
	if opts.Pruned {
		s.run.startCoverage(e, nil)
	}
	nw := initialWhiteCounts(e, r, &s.run)
	coverGreedy(s, nw, within(e, r), countUpdate(e, s, r, opts.Update, nw))
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
// when available and issuing one range query per object otherwise.
func initialWhiteCounts(e Engine, r float64, run *Run) []int {
	if ce, ok := e.(CountingEngine); ok {
		if counts, cr, have := ce.InitialCounts(); have && cr == r {
			return append([]int(nil), counts...)
		}
	}
	nw := make([]int, e.Size())
	var ns []object.Neighbor
	for id := range nw {
		ns = e.NeighborsAppend(ns[:0], id, r, run)
		nw[id] = len(ns)
	}
	return nw
}

// countUpdate returns the chosen maintenance strategy as coverGreedy's
// update, decrementing nw in place (the queue catches up when it pops
// a stale entry).
func countUpdate(e Engine, s *coloring, r float64, strategy UpdateStrategy, nw []int) func(pi int, grey []object.Neighbor) {
	switch {
	// White-Greedy's 2r candidate query finds every white object within r
	// of a new grey only under the triangle inequality; without it (cosine,
	// dot product) the exact count comes from the grey side, as in the
	// grey update.
	case strategy == UpdateGrey, strategy == UpdateWhite && !object.TriangleSafe(e.Metric()):
		return greyUpdate(s, nw, within(e, r))
	case strategy == UpdateLazyGrey:
		return greyUpdate(s, nw, within(e, r/2))
	}
	// UpdateWhite, UpdateLazyWhite
	radius := 2 * r
	if strategy == UpdateLazyWhite {
		radius = 1.5 * r
	}
	m := e.Metric()
	var ns []object.Neighbor
	return func(pi int, grey []object.Neighbor) {
		ns = s.run.neighbors(e, ns[:0], pi, radius)
		for _, wk := range ns {
			if s.colors[wk.ID] != White {
				continue
			}
			cnt := 0
			for _, gj := range grey {
				if m.Dist(e.Point(wk.ID), e.Point(gj.ID)) <= r {
					cnt++
				}
			}
			nw[wk.ID] -= cnt
		}
	}
}

package mtree

import (
	"math"

	"github.com/discdiversity/disc/internal/object"
)

// queryOpts bundles the variations of a range query.
type queryOpts struct {
	// pruned skips subtrees with no white objects (the paper's pruning
	// rule) and reports only white objects. Requires coverage tracking.
	pruned bool
	// exclude is an object id omitted from the result (-1 for none);
	// range queries around an object must not report the object itself.
	exclude int
}

// All query distance work goes through the tree's compiled kernel
// (object.Kernel): routing decisions need the true distance (it feeds
// the triangle-inequality bounds), while leaf entries are filtered on
// the surrogate distance against a widened threshold so that misses
// never pay the Euclidean square root. Results are bit-identical to
// evaluating the Metric interface directly.
//
// Every query appends to a caller-owned buffer and performs no
// allocation when the buffer has capacity.

// AppendRangeQuery appends all objects within distance r of q, with
// their distances, to dst. Ascending id order is NOT guaranteed;
// callers that need determinism must sort. Every visited node counts as
// one access.
func (t *Tree) AppendRangeQuery(dst []object.Neighbor, q object.Point, r float64) []object.Neighbor {
	return t.rangeSearch(dst, q, r, queryOpts{exclude: -1})
}

// AppendRangeQueryAround appends the neighbours of object id within
// distance r, excluding the object itself.
func (t *Tree) AppendRangeQueryAround(dst []object.Neighbor, id int, r float64) []object.Neighbor {
	return t.rangeSearch(dst, t.pts[id], r, queryOpts{exclude: id})
}

// AppendRangeQueryPruned behaves like AppendRangeQueryAround but
// applies the paper's pruning rule: subtrees without white objects are
// skipped entirely and only white objects are reported. Coverage
// tracking must be enabled.
func (t *Tree) AppendRangeQueryPruned(dst []object.Neighbor, id int, r float64) []object.Neighbor {
	t.requireTracking()
	return t.rangeSearch(dst, t.pts[id], r, queryOpts{pruned: true, exclude: id})
}

func (t *Tree) requireTracking() {
	if !t.tracking {
		panic("mtree: pruned query requires coverage tracking (EnableTracking)")
	}
}

func (t *Tree) rangeSearch(dst []object.Neighbor, q object.Point, r float64, opts queryOpts) []object.Neighbor {
	return t.searchNode(t.root, q, r, t.kern.RawThreshold(r), math.NaN(), opts, dst)
}

// searchNode processes one node. dqParent is the precomputed distance from
// q to the node's pivot (NaN when unknown, e.g. at the root), enabling the
// triangle-inequality shortcut on each entry's stored parent distance.
// rawR is the query radius on the kernel's surrogate scale.
func (t *Tree) searchNode(n *node, q object.Point, r, rawR float64, dqParent float64, opts queryOpts, dst []object.Neighbor) []object.Neighbor {
	t.touch(n)
	cheap := !math.IsNaN(dqParent)
	for i := range n.entries {
		e := &n.entries[i]
		if n.leaf {
			if opts.pruned && !t.white.Test(e.id) {
				continue
			}
			if e.id == opts.exclude {
				continue
			}
			if cheap && math.Abs(dqParent-e.dparent) > r {
				continue
			}
			// Fused threshold test (early exit at high dim); the raw
			// recomputation on the rare survivors is bit-identical.
			if t.kern.Within(q, e.pt, rawR) {
				if d := t.kern.Finish(t.kern.Raw(q, e.pt)); d <= r {
					dst = append(dst, object.Neighbor{ID: e.id, Dist: d})
				}
			}
			continue
		}
		if opts.pruned && e.child.whiteCount == 0 {
			continue
		}
		rr := r + e.radius
		if cheap && math.Abs(dqParent-e.dparent) > rr {
			continue
		}
		// Routing entries are filtered on the surrogate too: the square
		// root is paid only when the ball actually intersects and the
		// subtree is entered (the true distance then seeds the child's
		// parent-distance shortcut).
		if raw := t.kern.Raw(q, e.pt); raw <= t.kern.RawThreshold(rr) {
			if d := t.kern.Finish(raw); d <= rr {
				dst = t.searchNode(e.child, q, r, rawR, d, opts, dst)
			}
		}
	}
	return dst
}

// AppendRangeQueryBottomUp answers a range query around object id by
// starting at the object's leaf and climbing towards the root, searching
// sibling subtrees at each level, and appends the result to dst. With
// stopAtGrey set the climb stops at the first grey (fully covered)
// ancestor, which is the approximate query used by the Fast-C heuristic:
// it may miss neighbours stored in distant leaves.
func (t *Tree) AppendRangeQueryBottomUp(dst []object.Neighbor, id int, r float64, stopAtGrey, pruned bool) []object.Neighbor {
	if pruned {
		t.requireTracking()
	}
	opts := queryOpts{pruned: pruned, exclude: id}
	q := t.pts[id]
	rawR := t.kern.RawThreshold(r)
	cur := t.loc[id].leaf
	var dqp float64 = math.NaN()
	if cur.pivot != nil {
		dqp = t.kern.Dist(q, cur.pivot)
	}
	dst = t.searchLeafOnly(cur, q, r, rawR, dqp, opts, dst)
	for cur.parent != nil {
		parent := cur.parent
		// Fast-C's early stop: once an ancestor is grey (no white
		// objects below it) and its region already contains the whole
		// query ball, climbing further can only find objects stored in
		// overlapping siblings — rare in a low-overlap tree — so the
		// search ends here. The containment guard keeps the
		// approximation from collapsing for query balls much larger
		// than the local regions.
		if stopAtGrey && t.tracking && parent.whiteCount == 0 &&
			parent.pivot != nil && t.kern.Dist(q, parent.pivot)+r <= parent.radius {
			break
		}
		t.touch(parent)
		var dqParent float64 = math.NaN()
		if parent.pivot != nil {
			dqParent = t.kern.Dist(q, parent.pivot)
		}
		cheap := !math.IsNaN(dqParent)
		for i := range parent.entries {
			e := &parent.entries[i]
			if e.child == cur {
				continue
			}
			if opts.pruned && e.child.whiteCount == 0 {
				continue
			}
			rr := r + e.radius
			if cheap && math.Abs(dqParent-e.dparent) > rr {
				continue
			}
			if raw := t.kern.Raw(q, e.pt); raw <= t.kern.RawThreshold(rr) {
				if d := t.kern.Finish(raw); d <= rr {
					dst = t.searchNode(e.child, q, r, rawR, d, opts, dst)
				}
			}
		}
		cur = parent
	}
	return dst
}

// searchLeafOnly scans the entries of a single leaf without recursion.
func (t *Tree) searchLeafOnly(n *node, q object.Point, r, rawR float64, dqParent float64, opts queryOpts, dst []object.Neighbor) []object.Neighbor {
	t.touch(n)
	cheap := !math.IsNaN(dqParent)
	for i := range n.entries {
		e := &n.entries[i]
		if opts.pruned && !t.white.Test(e.id) {
			continue
		}
		if e.id == opts.exclude {
			continue
		}
		if cheap && math.Abs(dqParent-e.dparent) > r {
			continue
		}
		if t.kern.Within(q, e.pt, rawR) {
			if d := t.kern.Finish(t.kern.Raw(q, e.pt)); d <= r {
				dst = append(dst, object.Neighbor{ID: e.id, Dist: d})
			}
		}
	}
	return dst
}

// ScanIDs returns all object ids in leaf-chain (left-to-right) order, the
// locality-preserving order Basic-DisC processes objects in. Each leaf
// visited counts as one node access.
func (t *Tree) ScanIDs() []int {
	ids := make([]int, 0, t.size)
	for l := t.firstLeaf; l != nil; l = l.next {
		t.touch(l)
		for i := range l.entries {
			ids = append(ids, l.entries[i].id)
		}
	}
	return ids
}

// LeafOrderIndex returns, for every object id, its rank in the leaf scan
// order. No accesses are charged; this is derived bookkeeping.
func (t *Tree) LeafOrderIndex() []int {
	rank := make([]int, len(t.pts))
	pos := 0
	for l := t.firstLeaf; l != nil; l = l.next {
		for i := range l.entries {
			rank[l.entries[i].id] = pos
			pos++
		}
	}
	return rank
}

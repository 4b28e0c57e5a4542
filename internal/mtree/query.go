package mtree

import (
	"math"

	"github.com/discdiversity/disc/internal/bitset"
	"github.com/discdiversity/disc/internal/object"
)

// search is one range query: its centre and radii, the object it
// leaves out, and the state of the run it serves, which the tree only
// reads (the access counter excepted, which it adds to).
type search struct {
	q       object.Point
	r, rawR float64 // radius, and radius on the kernel's surrogate scale
	exclude int     // object omitted from the result (-1 for none)
	// white, when non-nil, applies the paper's pruning rule: only
	// objects it holds are reported, and subtrees whose count in
	// counts (per node number, see CountWhite) is zero are skipped.
	white  *bitset.Set
	counts []int32
	acc    *int64 // node accesses: one per node visited
}

// All query distance work goes through the tree's compiled kernel
// (object.Kernel): routing decisions need the true distance (it feeds
// the triangle-inequality bounds), while leaf entries are filtered on
// the surrogate distance against a widened threshold so that misses
// never pay the Euclidean square root. Results are bit-identical to
// evaluating the Metric interface directly.
//
// Every query appends to a caller-owned buffer and performs no
// allocation when the buffer has capacity, and adds the nodes it
// visits to the caller's counter *acc.

// AppendRangeQuery appends all objects within distance r of q, with
// their distances, to dst. Ascending id order is NOT guaranteed;
// callers that need determinism must sort.
func (t *Tree) AppendRangeQuery(dst []object.Neighbor, q object.Point, r float64, acc *int64) []object.Neighbor {
	s := search{q: q, r: r, rawR: t.kern.RawThreshold(r), exclude: -1, acc: acc}
	return t.searchNode(t.root, math.NaN(), &s, dst)
}

// AppendRangeQueryAround appends the neighbours of object id within
// distance r, excluding the object itself.
func (t *Tree) AppendRangeQueryAround(dst []object.Neighbor, id int, r float64, acc *int64) []object.Neighbor {
	return t.AppendRangeQueryPruned(dst, id, r, nil, nil, acc)
}

// AppendRangeQueryPruned behaves like AppendRangeQueryAround but, with
// a non-nil white set, applies the paper's pruning rule: only objects
// white holds are reported and subtrees without any are skipped
// entirely; counts are white's per-node counts (see CountWhite).
func (t *Tree) AppendRangeQueryPruned(dst []object.Neighbor, id int, r float64, white *bitset.Set, counts []int32, acc *int64) []object.Neighbor {
	s := search{q: t.pts[id], r: r, rawR: t.kern.RawThreshold(r), exclude: id, white: white, counts: counts, acc: acc}
	return t.searchNode(t.root, math.NaN(), &s, dst)
}

// searchNode processes one node. dqParent is the precomputed distance from
// q to the node's pivot (NaN when unknown, e.g. at the root), enabling the
// triangle-inequality shortcut on each entry's stored parent distance.
func (t *Tree) searchNode(n *node, dqParent float64, s *search, dst []object.Neighbor) []object.Neighbor {
	if n.leaf {
		return t.searchLeaf(n, dqParent, s, dst)
	}
	*s.acc++
	cheap := !math.IsNaN(dqParent)
	for i := range n.entries {
		dst = t.searchEntry(&n.entries[i], cheap, dqParent, s, dst)
	}
	return dst
}

// searchEntry descends into the subtree of routing entry e when its
// ball intersects the query ball (and, pruned, it holds a white object).
func (t *Tree) searchEntry(e *entry, cheap bool, dqParent float64, s *search, dst []object.Neighbor) []object.Neighbor {
	if s.white != nil && s.counts[e.child.num] == 0 {
		return dst
	}
	rr := s.r + e.radius
	if cheap && math.Abs(dqParent-e.dparent) > rr {
		return dst
	}
	// Routing entries are filtered on the surrogate too: the square
	// root is paid only when the ball actually intersects and the
	// subtree is entered (the true distance then seeds the child's
	// parent-distance shortcut).
	if raw := t.kern.Raw(s.q, e.pt); raw <= t.kern.RawThreshold(rr) {
		if d := t.kern.Finish(raw); d <= rr {
			dst = t.searchNode(e.child, d, s, dst)
		}
	}
	return dst
}

// searchLeaf scans the entries of a single leaf.
func (t *Tree) searchLeaf(n *node, dqParent float64, s *search, dst []object.Neighbor) []object.Neighbor {
	*s.acc++
	cheap := !math.IsNaN(dqParent)
	for i := range n.entries {
		e := &n.entries[i]
		if s.white != nil && !s.white.Test(e.id) {
			continue
		}
		if e.id == s.exclude {
			continue
		}
		if cheap && math.Abs(dqParent-e.dparent) > s.r {
			continue
		}
		if d, ok := t.kern.InRange(s.q, e.pt, s.rawR, s.r); ok {
			dst = append(dst, object.Neighbor{ID: e.id, Dist: d})
		}
	}
	return dst
}

// AppendRangeQueryBottomUp answers a range query around object id by
// starting at the object's leaf and climbing towards the root, searching
// sibling subtrees at each level, and appends the result to dst. A
// non-nil white set prunes as in AppendRangeQueryPruned. With stopAtGrey
// set and counts given, the climb stops at the first grey (fully
// covered) ancestor, which is the approximate query used by the Fast-C
// heuristic: it may miss neighbours stored in distant leaves.
func (t *Tree) AppendRangeQueryBottomUp(dst []object.Neighbor, id int, r float64, stopAtGrey bool, white *bitset.Set, counts []int32, acc *int64) []object.Neighbor {
	s := search{q: t.pts[id], r: r, rawR: t.kern.RawThreshold(r), exclude: id, white: white, counts: counts, acc: acc}
	q := s.q
	cur := t.loc[id].leaf
	var dqp float64 = math.NaN()
	if cur.pivot != nil {
		dqp = t.kern.Dist(q, cur.pivot)
	}
	dst = t.searchLeaf(cur, dqp, &s, dst)
	for cur.parent != nil {
		parent := cur.parent
		// Fast-C's early stop: once an ancestor is grey (no white
		// objects below it) and its region already contains the whole
		// query ball, climbing further can only find objects stored in
		// overlapping siblings — rare in a low-overlap tree — so the
		// search ends here. The containment guard keeps the
		// approximation from collapsing for query balls much larger
		// than the local regions.
		if stopAtGrey && counts != nil && counts[parent.num] == 0 &&
			parent.pivot != nil && t.kern.Dist(q, parent.pivot)+r <= parent.radius {
			break
		}
		*acc++
		var dqParent float64 = math.NaN()
		if parent.pivot != nil {
			dqParent = t.kern.Dist(q, parent.pivot)
		}
		cheap := !math.IsNaN(dqParent)
		for i := range parent.entries {
			if e := &parent.entries[i]; e.child != cur {
				dst = t.searchEntry(e, cheap, dqParent, &s, dst)
			}
		}
		cur = parent
	}
	return dst
}

// ScanIDs returns all object ids in leaf-chain (left-to-right) order, the
// locality-preserving order Basic-DisC processes objects in. Each leaf
// visited counts as one node access on *acc.
func (t *Tree) ScanIDs(acc *int64) []int {
	ids := make([]int, 0, t.size)
	for l := t.firstLeaf; l != nil; l = l.next {
		*acc++
		for i := range l.entries {
			ids = append(ids, l.entries[i].id)
		}
	}
	return ids
}

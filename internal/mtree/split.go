package mtree

import (
	"math"

	"github.com/discdiversity/disc/internal/object"
)

// split divides an overflowed node into two, promotes two pivots to the
// parent and recurses upward if the parent overflows in turn.
func (t *Tree) split(n *node) {
	ents := n.entries
	p1, p2 := t.promote(n)

	var g1, g2 []entry
	switch t.cfg.Policy.Partition {
	case PartitionBalanced:
		g1, g2 = partitionBalanced(t, ents, p1, p2)
	default:
		g1, g2 = partitionClosest(t, ents, p1, p2)
	}

	// One node became two: n1 takes over n's number, n2 takes the next.
	n1 := &node{leaf: n.leaf, entries: g1, pivot: p1, num: n.num}
	n2 := &node{leaf: n.leaf, entries: g2, pivot: p2, num: int32(t.nodes)}
	r1 := t.finishNode(n1)
	r2 := t.finishNode(n2)
	n1.radius, n2.radius = r1, r2
	t.nodes++

	if n.leaf {
		// Replace n with n1, n2 in the leaf chain.
		n1.prev, n1.next = n.prev, n2
		n2.prev, n2.next = n1, n.next
		if n.prev != nil {
			n.prev.next = n1
		} else {
			t.firstLeaf = n1
		}
		if n.next != nil {
			n.next.prev = n2
		}
	}

	parent := n.parent
	if parent == nil {
		root := &node{
			leaf: false,
			entries: []entry{
				{pt: p1, id: -1, radius: r1, child: n1},
				{pt: p2, id: -1, radius: r2, child: n2},
			},
			num: int32(t.nodes),
		}
		n1.parent, n2.parent = root, root
		t.root = root
		t.nodes++
		t.height++
		return
	}

	idx := -1
	for i := range parent.entries {
		if parent.entries[i].child == n {
			idx = i
			break
		}
	}
	var dp1, dp2 float64
	if parent.pivot != nil {
		dp1 = t.cfg.Metric.Dist(parent.pivot, p1)
		dp2 = t.cfg.Metric.Dist(parent.pivot, p2)
	}
	n1.parent, n2.parent = parent, parent
	parent.entries[idx] = entry{pt: p1, id: -1, radius: r1, dparent: dp1, child: n1}
	parent.entries = append(parent.entries, entry{pt: p2, id: -1, radius: r2, dparent: dp2, child: n2})
	if len(parent.entries) > t.cfg.Capacity {
		t.split(parent)
	}
}

// finishNode recomputes per-entry parent distances, child back-pointers
// and object locators for a freshly partitioned node, and returns its
// covering radius.
func (t *Tree) finishNode(n *node) float64 {
	var radius float64
	for i := range n.entries {
		e := &n.entries[i]
		e.dparent = t.cfg.Metric.Dist(n.pivot, e.pt)
		if r := e.dparent + e.radius; r > radius {
			radius = r
		}
		if n.leaf {
			t.loc[e.id] = locator{leaf: n, idx: i}
		} else {
			e.child.parent = n
		}
	}
	return radius
}

// promote returns the two pivot points for splitting node n according to
// the configured promote policy.
func (t *Tree) promote(n *node) (p1, p2 object.Point) {
	ents := n.entries
	switch t.cfg.Policy.Promote {
	case PromoteMaxPair:
		bi, bj, best := 0, 1, -1.0
		for i := range ents {
			for j := i + 1; j < len(ents); j++ {
				if d := t.cfg.Metric.Dist(ents[i].pt, ents[j].pt); d > best {
					best, bi, bj = d, i, j
				}
			}
		}
		return ents[bi].pt, ents[bj].pt
	case PromoteRandom:
		i := t.rng.IntN(len(ents))
		j := t.rng.IntN(len(ents) - 1)
		if j >= i {
			j++
		}
		return ents[i].pt, ents[j].pt
	default: // PromoteKeepFarthest ("MinOverlap")
		p1 = n.pivot
		if p1 == nil {
			p1 = ents[0].pt
		}
		far, best := 0, -1.0
		for i := range ents {
			if d := t.cfg.Metric.Dist(p1, ents[i].pt); d > best {
				best, far = d, i
			}
		}
		return p1, ents[far].pt
	}
}

// partitionClosest assigns each entry to its closest pivot, guaranteeing
// neither side is empty.
func partitionClosest(t *Tree, ents []entry, p1, p2 object.Point) (g1, g2 []entry) {
	for _, e := range ents {
		d1 := t.cfg.Metric.Dist(p1, e.pt)
		d2 := t.cfg.Metric.Dist(p2, e.pt)
		if d1 <= d2 {
			g1 = append(g1, e)
		} else {
			g2 = append(g2, e)
		}
	}
	if len(g1) == 0 {
		g1, g2 = rebalanceOne(t, g2, g1, p1)
		g1, g2 = g2, g1
	} else if len(g2) == 0 {
		g2, g1 = rebalanceOne(t, g1, g2, p2)
		g2, g1 = g1, g2
	}
	return g1, g2
}

// rebalanceOne moves the entry of src closest to pivot into dst (which is
// empty) and returns (src', dst').
func rebalanceOne(t *Tree, src, dst []entry, pivot object.Point) ([]entry, []entry) {
	best, bestDist := 0, math.Inf(1)
	for i, e := range src {
		if d := t.cfg.Metric.Dist(pivot, e.pt); d < bestDist {
			best, bestDist = i, d
		}
	}
	dst = append(dst, src[best])
	src = append(src[:best], src[best+1:]...)
	return src, dst
}

// partitionBalanced alternately gives each pivot its closest remaining
// entry, producing equally sized nodes (a higher-overlap policy used to
// vary the fat-factor in Figure 10).
func partitionBalanced(t *Tree, ents []entry, p1, p2 object.Point) (g1, g2 []entry) {
	type cand struct {
		e      entry
		d1, d2 float64
	}
	rest := make([]cand, 0, len(ents))
	for _, e := range ents {
		rest = append(rest, cand{e, t.cfg.Metric.Dist(p1, e.pt), t.cfg.Metric.Dist(p2, e.pt)})
	}
	takeClosest := func(first bool) {
		best, bestDist := -1, math.Inf(1)
		for i, c := range rest {
			d := c.d1
			if !first {
				d = c.d2
			}
			if d < bestDist {
				best, bestDist = i, d
			}
		}
		if first {
			g1 = append(g1, rest[best].e)
		} else {
			g2 = append(g2, rest[best].e)
		}
		rest = append(rest[:best], rest[best+1:]...)
	}
	for turn := 0; len(rest) > 0; turn++ {
		takeClosest(turn%2 == 0)
	}
	return g1, g2
}

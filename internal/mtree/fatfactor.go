package mtree

import "fmt"

// FatFactor computes the overlap measure of Traina et al. ("Slim-trees",
// TKDE 2002) used by the paper's Figure 10:
//
//	f(T) = (Z - n*h) / (n * (m - h))
//
// where Z is the total number of node accesses needed to answer a point
// query for every indexed object, n the number of objects, h the tree
// height and m the node count. An overlap-free tree visits exactly h nodes
// per point query (f = 0); the worst tree visits all m nodes (f = 1).
func (t *Tree) FatFactor() float64 {
	if t.size == 0 {
		return 0
	}
	n := float64(t.size)
	h := float64(t.height)
	m := float64(t.nodes)
	if m <= h {
		return 0
	}
	var z float64
	for id := range t.pts {
		if t.loc[id].leaf == nil {
			continue
		}
		z += float64(t.pointQueryAccesses(id))
	}
	f := (z - n*h) / (n * (m - h))
	if f < 0 {
		return 0
	}
	return f
}

// pointQueryAccesses counts the nodes whose region contains the point of
// object id — the cost of a point query that must find the object under
// arbitrary overlap.
func (t *Tree) pointQueryAccesses(id int) int64 {
	q := t.pts[id]
	var visits int64
	var walk func(n *node)
	walk = func(n *node) {
		visits++
		if n.leaf {
			return
		}
		for i := range n.entries {
			e := &n.entries[i]
			if t.cfg.Metric.Dist(q, e.pt) <= e.radius {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return visits
}

// Validate checks the structural invariants of the tree: covering radii
// contain all descendants, parent distances are correct, the leaf chain
// visits every object exactly once, and locators point at the right slots.
// It returns the first violation found, or nil. Intended for tests.
func (t *Tree) Validate() error {
	return t.validateNode(t.root, nil)
}

type validationError struct{ msg string }

func (e *validationError) Error() string { return "mtree: invalid tree: " + e.msg }

func errf(format string, args ...any) error {
	return &validationError{msg: fmt.Sprintf(format, args...)}
}

func (t *Tree) validateNode(n *node, pivot []float64) error {
	for i := range n.entries {
		e := &n.entries[i]
		if pivot != nil {
			want := t.cfg.Metric.Dist(pivot, e.pt)
			if diff := want - e.dparent; diff > 1e-9 || diff < -1e-9 {
				return errf("entry %d: dparent %g, want %g", i, e.dparent, want)
			}
		}
		if n.leaf {
			if e.child != nil {
				return errf("leaf entry %d has child", i)
			}
			if loc := t.loc[e.id]; loc.leaf != n || loc.idx != i {
				return errf("object %d locator mismatch", e.id)
			}
			continue
		}
		if e.child == nil {
			return errf("routing entry %d has nil child", i)
		}
		if e.child.parent != n {
			return errf("routing entry %d: child parent pointer broken", i)
		}
		if !pointsEqual(e.child.pivot, e.pt) {
			return errf("routing entry %d: child pivot mismatch", i)
		}
		if err := t.checkRadius(e); err != nil {
			return err
		}
		if err := t.validateNode(e.child, e.pt); err != nil {
			return err
		}
	}
	return nil
}

// checkRadius verifies that every object under e.child lies within
// e.radius of e.pt.
func (t *Tree) checkRadius(e *entry) error {
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.leaf {
			for i := range n.entries {
				if d := t.cfg.Metric.Dist(e.pt, n.entries[i].pt); d > e.radius+1e-9 {
					return errf("object %d at distance %g outside covering radius %g", n.entries[i].id, d, e.radius)
				}
			}
			return nil
		}
		for i := range n.entries {
			if err := walk(n.entries[i].child); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(e.child)
}

func pointsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

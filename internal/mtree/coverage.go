package mtree

// Coverage tracking implements the paper's pruning rule (Section 5.1):
// once every object below a node is covered (grey or black), the node is
// "grey" and range queries skip it. The tree maintains a per-node count of
// white (uncovered) objects, decremented along the leaf-to-root path each
// time an object is covered. The per-object white flags live in a packed
// bitset (internal/bitset), 8x denser than the former []bool, so the
// per-entry white tests inside leaf scans stay cache-resident.

// EnableTracking switches coverage tracking on with every inserted object
// white. Subsequent inserts are counted as white automatically.
func (t *Tree) EnableTracking() {
	t.white.Reset(len(t.pts))
	for id := range t.pts {
		if t.loc[id].leaf != nil {
			t.white.Set(id)
		}
	}
	t.tracking = true
	t.recountWhite(t.root)
}

// ResetTracking re-initialises coverage tracking with the given white set
// (whiteIDs[id] == true means uncovered). Used by the zooming algorithms,
// which restart from a partially covered state.
func (t *Tree) ResetTracking(white []bool) {
	t.white.Reset(len(t.pts))
	for id := range white {
		if white[id] && t.loc[id].leaf != nil {
			t.white.Set(id)
		}
	}
	t.tracking = true
	t.recountWhite(t.root)
}

func (t *Tree) recountWhite(n *node) int {
	c := 0
	if n.leaf {
		for i := range n.entries {
			if t.white.Test(n.entries[i].id) {
				c++
			}
		}
	} else {
		for i := range n.entries {
			c += t.recountWhite(n.entries[i].child)
		}
	}
	n.whiteCount = c
	return c
}

// IsWhite reports whether object id is still uncovered. It is meaningful
// only while tracking is enabled.
func (t *Tree) IsWhite(id int) bool { return t.tracking && t.white.Test(id) }

// Cover marks object id as covered (grey or black), decrementing white
// counts up the tree so the pruning rule can take effect. Covering an
// already covered object is a no-op.
func (t *Tree) Cover(id int) {
	if !t.tracking || !t.white.Test(id) {
		return
	}
	t.white.Clear(id)
	for n := t.loc[id].leaf; n != nil; n = n.parent {
		n.whiteCount--
	}
}

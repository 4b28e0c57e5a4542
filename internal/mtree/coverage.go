package mtree

import "github.com/discdiversity/disc/internal/bitset"

// Coverage state implements the paper's pruning rule (Section 5.1): once
// every object below a node is covered (grey or black), the node is
// "grey" and range queries skip it. The state belongs to one run, not to
// the tree: a per-object white set (a packed bitset) and a per-node
// count of the white objects below each node, indexed by node number.
// The tree only reads it during queries and decrements it in Cover, so
// runs over one tree never share anything.

// CountWhite returns, for every node number, the number of indexed
// objects below that node which white holds, reusing counts' storage
// when it is large enough.
func (t *Tree) CountWhite(counts []int32, white *bitset.Set) []int32 {
	if cap(counts) < t.nodes {
		counts = make([]int32, t.nodes)
	}
	counts = counts[:t.nodes]
	t.countWhite(t.root, white, counts)
	return counts
}

func (t *Tree) countWhite(n *node, white *bitset.Set, counts []int32) int32 {
	var c int32
	for i := range n.entries {
		if n.leaf {
			if white.Test(n.entries[i].id) {
				c++
			}
		} else {
			c += t.countWhite(n.entries[i].child, white, counts)
		}
	}
	counts[n.num] = c
	return c
}

// Cover records in counts (from CountWhite) that object id left the
// white set: every node on the path from its leaf to the root has one
// white object fewer. The caller clears id's white bit and must cover
// each object at most once.
func (t *Tree) Cover(counts []int32, id int) {
	for n := t.loc[id].leaf; n != nil; n = n.parent {
		counts[n.num]--
	}
}

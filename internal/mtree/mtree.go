// Package mtree implements the M-tree, the balanced metric-space index the
// paper uses to accelerate neighbourhood (range) queries (Zezula et al.,
// "Similarity Search - The Metric Space Approach").
//
// The tree partitions space around pivot objects with bounding-ball
// regions. Internal entries carry a pivot, a covering radius and the
// distance to their parent pivot; leaf entries carry indexed objects.
// Beyond the textbook structure, this implementation provides everything
// Section 5 of the paper relies on:
//
//   - configurable splitting policies (promote x partition), including the
//     paper's low-overlap "MinOverlap" policy;
//   - a doubly linked chain of leaves enabling a locality-preserving
//     left-to-right scan of all objects;
//   - top-down and bottom-up range queries with node-access accounting;
//   - the "pruning rule": subtrees containing no white (uncovered) objects
//     are skipped by range queries, via per-node white counts that the
//     caller keeps (see coverage.go);
//   - the fat-factor overlap measure of Traina et al. used by Figure 10.
package mtree

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/discdiversity/disc/internal/object"
)

// PromotePolicy selects the two pivots promoted to the parent node when a
// node overflows.
type PromotePolicy int

const (
	// PromoteKeepFarthest keeps the overflowed node's current pivot and
	// promotes the entry farthest from it. Combined with
	// PartitionClosest this is the paper's "MinOverlap" policy, which
	// produced the lowest fat-factors in its experiments.
	PromoteKeepFarthest PromotePolicy = iota
	// PromoteMaxPair promotes the two entries with the greatest distance
	// from each other (O(c^2) distance computations).
	PromoteMaxPair
	// PromoteRandom promotes two distinct entries chosen uniformly at
	// random; the paper uses it to build deliberately bad (high
	// fat-factor) trees.
	PromoteRandom
)

// String implements fmt.Stringer.
func (p PromotePolicy) String() string {
	switch p {
	case PromoteKeepFarthest:
		return "keep-farthest"
	case PromoteMaxPair:
		return "max-pair"
	case PromoteRandom:
		return "random"
	default:
		return fmt.Sprintf("promote(%d)", int(p))
	}
}

// PartitionPolicy distributes the entries of an overflowed node between
// the two new nodes.
type PartitionPolicy int

const (
	// PartitionClosest assigns every entry to the promoted pivot closest
	// to it (part of "MinOverlap").
	PartitionClosest PartitionPolicy = iota
	// PartitionBalanced alternately assigns each pivot its closest
	// remaining entry so both nodes end up with equal counts; this
	// raises overlap and therefore the fat-factor.
	PartitionBalanced
)

// String implements fmt.Stringer.
func (p PartitionPolicy) String() string {
	switch p {
	case PartitionClosest:
		return "closest"
	case PartitionBalanced:
		return "balanced"
	default:
		return fmt.Sprintf("partition(%d)", int(p))
	}
}

// SplitPolicy combines a promote and a partition policy.
type SplitPolicy struct {
	Promote   PromotePolicy
	Partition PartitionPolicy
}

// MinOverlap is the paper's default policy: keep the old pivot, promote
// the farthest entry, assign entries to the closest pivot.
var MinOverlap = SplitPolicy{PromoteKeepFarthest, PartitionClosest}

// String implements fmt.Stringer.
func (p SplitPolicy) String() string {
	return p.Promote.String() + "/" + p.Partition.String()
}

// Config controls tree construction.
type Config struct {
	// Capacity is the maximum number of entries per node (paper default:
	// 50, range 25-100). Minimum accepted value is 4.
	Capacity int
	// Metric is the distance function; it must satisfy the triangle
	// inequality for range queries to be exact.
	Metric object.Metric
	// Policy is the node splitting policy.
	Policy SplitPolicy
	// Seed drives PromoteRandom; ignored by deterministic policies.
	Seed uint64
}

// DefaultConfig mirrors the paper's Table 2 defaults.
func DefaultConfig(m object.Metric) Config {
	return Config{Capacity: 50, Metric: m, Policy: MinOverlap}
}

type entry struct {
	pt      object.Point
	id      int     // object id for leaf entries; -1 for routing entries
	radius  float64 // covering radius (routing entries only)
	dparent float64 // distance from pt to the parent node's pivot
	child   *node   // subtree (routing entries only)
}

type node struct {
	parent *node
	// pivot is the point of the routing entry pointing at this node
	// (nil for the root). It is kept here to make the distance-to-parent
	// pruning test cheap during descent.
	pivot object.Point
	// radius mirrors the covering radius of the routing entry pointing
	// at this node (meaningless for the root); bottom-up queries use it
	// to decide whether a query ball is fully inside the node's region.
	radius     float64
	leaf       bool
	entries    []entry
	prev, next *node // leaf chain (leaves only)
	// num is the node's number in [0, NodeCount()): per-node arrays
	// kept outside the tree (a run's white counts) are indexed by it.
	num int32
}

type locator struct {
	leaf *node
	idx  int
}

// Tree is a dynamic M-tree over a fixed universe of object IDs.
// Queries read the tree only: the node accesses they perform and the
// coverage they prune by belong to the caller, so any number of queries
// may run concurrently. Insert mutates the tree and must not run
// concurrently with anything else.
type Tree struct {
	cfg       Config
	root      *node
	firstLeaf *node
	size      int
	nodes     int
	height    int
	loc       []locator // object id -> leaf position
	pts       []object.Point
	rng       *rand.Rand
	// kern is the distance kernel, compiled at New for a non-empty
	// universe; query paths use it instead of Metric interface
	// dispatch.
	kern object.Kernel
}

// New creates an empty tree. The points slice provides the universe of
// objects; Insert adds them (by id) to the index. Points must outlive the
// tree and must not be mutated.
func New(cfg Config, pts []object.Point) (*Tree, error) {
	if cfg.Capacity < 4 {
		return nil, fmt.Errorf("mtree: capacity %d below minimum 4", cfg.Capacity)
	}
	if cfg.Metric == nil {
		return nil, fmt.Errorf("mtree: nil metric")
	}
	if !object.TriangleSafe(cfg.Metric) {
		// Every routing decision is a triangle-inequality bound; a
		// non-metric distance would silently drop true neighbours.
		return nil, fmt.Errorf("mtree: metric %q violates the triangle inequality", cfg.Metric.Name())
	}
	if len(pts) > 0 {
		if _, err := object.ValidatePoints(pts); err != nil {
			return nil, fmt.Errorf("mtree: %w", err)
		}
	}
	root := &node{leaf: true}
	t := &Tree{
		cfg:       cfg,
		root:      root,
		firstLeaf: root,
		nodes:     1,
		height:    1,
		loc:       make([]locator, len(pts)),
		pts:       pts,
		rng:       rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
	}
	for i := range t.loc {
		t.loc[i].idx = -1
	}
	if len(pts) > 0 {
		t.kern = object.CompileKernel(cfg.Metric, len(pts[0]))
	}
	return t, nil
}

// Build constructs a tree over all points, inserting them in id order,
// and returns it with the node accesses the inserts performed.
func Build(cfg Config, pts []object.Point) (*Tree, int64, error) {
	t, err := New(cfg, pts)
	if err != nil {
		return nil, 0, err
	}
	var cost int64
	for id := range pts {
		acc, err := t.Insert(id)
		if err != nil {
			return nil, 0, err
		}
		cost += acc
	}
	return t, cost, nil
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// NodeCount returns the current number of tree nodes.
func (t *Tree) NodeCount() int { return t.nodes }

// Height returns the tree height (1 for a root-only tree).
func (t *Tree) Height() int { return t.height }

// Metric returns the tree's distance function.
func (t *Tree) Metric() object.Metric { return t.cfg.Metric }

// Point returns the coordinates of object id.
func (t *Tree) Point(id int) object.Point { return t.pts[id] }

// Insert adds object id to the index and returns the node accesses it
// performed: one per node on the descent path, the cost measure the
// paper's evaluation reports for every index operation.
func (t *Tree) Insert(id int) (int64, error) {
	if id < 0 || id >= len(t.pts) {
		return 0, fmt.Errorf("mtree: insert id %d out of range [0,%d)", id, len(t.pts))
	}
	if t.loc[id].leaf != nil {
		return 0, fmt.Errorf("mtree: object %d already inserted", id)
	}
	p := t.pts[id]
	n := t.root
	acc := int64(1)
	for !n.leaf {
		best := t.chooseSubtree(n, p)
		e := &n.entries[best]
		d := t.kern.Dist(e.pt, p)
		if d > e.radius {
			e.radius = d
			e.child.radius = d
		}
		n = e.child
		acc++
	}
	var dp float64
	if n.pivot != nil {
		dp = t.kern.Dist(n.pivot, p)
	}
	n.entries = append(n.entries, entry{pt: p, id: id, dparent: dp})
	t.loc[id] = locator{leaf: n, idx: len(n.entries) - 1}
	t.size++
	if len(n.entries) > t.cfg.Capacity {
		t.split(n)
	}
	return acc, nil
}

// chooseSubtree picks the routing entry to descend into: among entries
// whose ball already contains p, the closest pivot; otherwise the entry
// requiring the least radius enlargement.
func (t *Tree) chooseSubtree(n *node, p object.Point) int {
	bestIn, bestOut := -1, -1
	bestInDist, bestEnlarge := math.Inf(1), math.Inf(1)
	for i := range n.entries {
		e := &n.entries[i]
		d := t.kern.Dist(e.pt, p)
		if d <= e.radius {
			if d < bestInDist {
				bestInDist = d
				bestIn = i
			}
		} else if enl := d - e.radius; enl < bestEnlarge {
			bestEnlarge = enl
			bestOut = i
		}
	}
	if bestIn >= 0 {
		return bestIn
	}
	return bestOut
}

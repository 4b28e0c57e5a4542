package grid

import (
	"fmt"
	"time"

	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/telemetry"
)

// Components is the connected-component decomposition of an r-coverage
// graph: Label[id] names the component of every point, and the component
// index (Offsets + Members, CSR-shaped) lists each component's members
// in ascending id order. Components are numbered canonically by
// ascending minimum member id — component 0 always contains point 0 —
// so the decomposition is a pure function of the graph, independent of
// traversal order, worker count or whether it was recomputed or loaded
// from a snapshot.
//
// The decomposition is what makes selection parallel: a dominating set
// of a disconnected graph is exactly the union of dominating sets of
// its components, so per-component runs never interact and can execute
// on independent workers.
type Components struct {
	// Count is the number of components.
	Count int
	// Label[id] is the component of point id, in [0, Count).
	Label []int32
	// Members of component c are Members[Offsets[c]:Offsets[c+1]], in
	// ascending id order.
	Offsets []int32
	Members []int32
}

// MemberIDs returns the members of component c, ascending. The slice
// aliases the packed index and must not be modified.
func (cp *Components) MemberIDs(c int) []int32 {
	return cp.Members[cp.Offsets[c]:cp.Offsets[c+1]]
}

// Size returns the number of members of component c.
func (cp *Components) Size(c int) int {
	return int(cp.Offsets[c+1] - cp.Offsets[c])
}

// Largest returns the size of the largest component (0 for an empty
// decomposition).
func (cp *Components) Largest() int {
	max := 0
	for c := 0; c < cp.Count; c++ {
		if s := cp.Size(c); s > max {
			max = s
		}
	}
	return max
}

// ComponentsOf labels the connected components of the r-coverage graph
// whose adjacency is served by row — any function returning the
// neighbour list of an id (entries beyond distance r are filtered here,
// so rows from a graph joined at a larger radius, or unfiltered range
// queries, are both fine; the returned slice may be reused between
// calls). This is the single definition of the canonical numbering
// every consumer — engines, snapshots, the conformance suite — relies
// on: one depth-first traversal visiting roots in ascending id order,
// so component numbers ascend with their minimum member ids, followed
// by the O(n) counting-sort member index. O(n + edges) plus the cost of
// the row calls.
func ComponentsOf(n int, r float64, row func(id int) []object.Neighbor) *Components {
	defer telemetry.Since(metLabel, time.Now())
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	stack := make([]int32, 0, 256)
	count := int32(0)
	for root := 0; root < n; root++ {
		if label[root] >= 0 {
			continue
		}
		label[root] = count
		stack = append(stack[:0], int32(root))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range row(int(u)) {
				if nb.Dist <= r && label[nb.ID] < 0 {
					label[nb.ID] = count
					stack = append(stack, int32(nb.ID))
				}
			}
		}
		count++
	}
	cp := &Components{Count: int(count), Label: label}
	cp.buildIndex()
	return cp
}

// ComponentsOfCSR is ComponentsOf over a materialised CSR adjacency.
func ComponentsOfCSR(c *CSR, n int, r float64) *Components {
	return ComponentsOf(n, r, c.Row)
}

// buildIndex derives Offsets and Members from Label by counting sort;
// scattering ids in ascending order leaves every component's member
// list ascending.
func (cp *Components) buildIndex() {
	offsets := make([]int32, cp.Count+1)
	for _, l := range cp.Label {
		offsets[l+1]++
	}
	for c := 1; c <= cp.Count; c++ {
		offsets[c] += offsets[c-1]
	}
	members := make([]int32, len(cp.Label))
	for id, l := range cp.Label {
		members[offsets[l]] = int32(id)
		offsets[l]++
	}
	// The scatter shifted offsets one slot left; restore in place.
	copy(offsets[1:], offsets[:cp.Count])
	offsets[0] = 0
	cp.Offsets, cp.Members = offsets, members
}

// ComponentsFromLabels reassembles a decomposition from a deserialised
// label array, revalidating what ComponentsOfCSR would have established
// structurally: every label in [0, count), and the canonical numbering
// (walking ids ascending, the first occurrence of each label value must
// introduce the next unused number — exactly the ascending-min-member
// order). Consistency with an actual graph is a separate, O(edges)
// concern: see Validate.
func ComponentsFromLabels(labels []int32, count int) (*Components, error) {
	n := len(labels)
	if n == 0 {
		return nil, fmt.Errorf("grid: components: empty label array")
	}
	if count < 1 || count > n {
		return nil, fmt.Errorf("grid: components: implausible component count %d for %d points", count, n)
	}
	next := int32(0)
	for id, l := range labels {
		if l < 0 || int(l) >= count {
			return nil, fmt.Errorf("grid: components: point %d labeled %d, outside [0, %d)", id, l, count)
		}
		if l == next {
			next++
		} else if l > next {
			return nil, fmt.Errorf("grid: components: label %d of point %d breaks the ascending-min-member numbering", l, id)
		}
	}
	if int(next) != count {
		return nil, fmt.Errorf("grid: components: only %d of %d declared components are populated", next, count)
	}
	cp := &Components{Count: count, Label: append([]int32(nil), labels...)}
	cp.buildIndex()
	return cp, nil
}

// Validate checks the decomposition against the adjacency it claims to
// decompose, in one O(edges) pass: every edge within distance r must
// connect same-labeled points, and every member of a multi-member class
// must carry at least one within-r edge. Together with the structural
// checks of ComponentsFromLabels this guarantees soundness — no
// cross-label edge means every label class is a union of true connected
// components, so class-local greedy runs select exactly what a global
// run would — and it guarantees the invariants the selection fast paths
// rely on: a two-member class is a genuine connected pair, and no
// isolated point hides inside a larger class. What remains undetectable
// is a label array merging two components that each have edges; that
// would require a full re-traversal (exactly the recomputation the
// persisted labels exist to skip) and is harmless — the per-class
// greedy handles a disconnected multi-edge class exactly like the
// global run does. Requires the member index (Offsets) to be built.
func (cp *Components) Validate(c *CSR, r float64) error {
	n := len(c.Offsets) - 1
	if len(cp.Label) != n {
		return fmt.Errorf("grid: components: %d labels for a %d-point graph", len(cp.Label), n)
	}
	for id := 0; id < n; id++ {
		l := cp.Label[id]
		linked := false
		for _, nb := range c.Row(id) {
			if nb.Dist > r {
				continue
			}
			if cp.Label[nb.ID] != l {
				return fmt.Errorf("grid: components: edge %d–%d crosses components %d and %d", id, nb.ID, l, cp.Label[nb.ID])
			}
			linked = true
		}
		if !linked && cp.Size(int(l)) > 1 {
			return fmt.Errorf("grid: components: point %d has no edge but shares component %d with %d other points", id, l, cp.Size(int(l))-1)
		}
	}
	return nil
}

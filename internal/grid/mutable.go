package grid

import (
	"fmt"
	"math"
	"time"

	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/telemetry"
)

// MutGrid is the mutable counterpart of Grid: the same uniform directory
// geometry (computeGeometry is shared, so a re-bucketed MutGrid and a
// Build over the same live points have bit-identical directories), but
// occupancy is kept in per-cell buckets that support O(bucket) insert
// and remove instead of the immutable counting-sort layout. Points live
// in an object.DynDataset; deleted ids are removed from their bucket
// eagerly, so scans never see tombstones.
//
// Inserts outside the bounding box the geometry was derived from are
// clamped to the boundary cells. That is exact, not approximate:
// clamping every coordinate is a monotone contraction (|clamp(a) −
// clamp(b)| ≤ |a − b|), so two points within r stay within r after
// clamping and therefore still land within one cell of each other —
// the property the ±1 ring scan needs. What suffers is only pruning
// (boundary cells grow crowded), which the occupancy-triggered
// re-bucketing below repairs.
//
// Re-bucketing is automatic: when the live count doubles or quarters
// relative to the last re-bucket, the geometry is recomputed over the
// current live bounding box and every live id re-bucketed in one O(n)
// pass. Ids are never changed by a re-bucket.
type MutGrid struct {
	dyn *object.DynDataset
	r   float64

	cell   float64
	min    []float64
	nd     []int32
	stride []int32
	maxND  int32
	ncells int

	buckets     [][]int32 // cell -> live ids, ascending
	cellOf      []int32   // id -> cell, -1 when unbucketed (dead)
	liveAtBuild int
}

// NewMutGrid creates a mutable grid over dyn for radius r, bucketing any
// rows already live. The dataset is retained; all mutations must go
// through Insert/Remove so occupancy stays consistent.
func NewMutGrid(dyn *object.DynDataset, r float64) (*MutGrid, error) {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("grid: invalid radius %g", r)
	}
	if !Supports(dyn.Metric()) {
		return nil, fmt.Errorf("grid: metric %q does not dominate per-coordinate differences; the cell neighbourhood scan would miss true neighbours", dyn.Metric().Name())
	}
	g := &MutGrid{dyn: dyn, r: r}
	if dyn.Live() > 0 {
		g.Rebucket()
	}
	return g, nil
}

// Radius returns the radius the grid is bucketed for.
func (g *MutGrid) Radius() float64 { return g.r }

// Rebucket recomputes the directory geometry over the live bounding box
// and re-buckets every live id in one O(n) pass. Scanning ids ascending
// keeps every bucket sorted.
func (g *MutGrid) Rebucket() {
	dim := g.dyn.Dim()
	n := g.dyn.Live()
	g.min = make([]float64, dim)
	max := make([]float64, dim)
	first := true
	for id := 0; id < g.dyn.Slots(); id++ {
		if !g.dyn.Alive(id) {
			continue
		}
		row := g.dyn.Row(id)
		if first {
			copy(g.min, row)
			copy(max, row)
			first = false
			continue
		}
		for i, v := range row {
			if v < g.min[i] {
				g.min[i] = v
			}
			if v > max[i] {
				max[i] = v
			}
		}
	}
	g.nd = make([]int32, dim)
	g.stride = make([]int32, dim)
	g.cell, g.maxND, g.ncells = computeGeometry(g.min, max, n, g.r, g.nd, g.stride)
	g.buckets = make([][]int32, g.ncells)
	g.cellOf = make([]int32, g.dyn.Slots())
	for id := 0; id < g.dyn.Slots(); id++ {
		if !g.dyn.Alive(id) {
			g.cellOf[id] = -1
			continue
		}
		c := g.cellIndex(g.dyn.Row(id))
		g.cellOf[id] = c
		g.buckets[c] = append(g.buckets[c], int32(id))
	}
	g.liveAtBuild = n
}

// cellIndex maps a coordinate row to its flattened (clamped) cell index.
func (g *MutGrid) cellIndex(row []float64) int32 {
	var idx int32
	for i, v := range row {
		c := int32((v - g.min[i]) / g.cell)
		if c < 0 {
			c = 0
		} else if c >= g.nd[i] {
			c = g.nd[i] - 1
		}
		idx += c * g.stride[i]
	}
	return idx
}

// needsRebucket reports whether occupancy has drifted far enough from
// the last geometry derivation (2× growth or 4× shrinkage) that pruning
// quality warrants an O(n) re-bucket.
func (g *MutGrid) needsRebucket() bool {
	live := g.dyn.Live()
	if g.ncells == 0 {
		return live > 0
	}
	return live > 2*g.liveAtBuild || (g.liveAtBuild >= 8 && live*4 < g.liveAtBuild)
}

// Insert buckets the already-appended live row id. It must be called
// once per Append, after the append.
func (g *MutGrid) Insert(id int) {
	if g.needsRebucket() {
		g.Rebucket()
		return
	}
	for len(g.cellOf) < g.dyn.Slots() {
		g.cellOf = append(g.cellOf, -1)
	}
	c := g.cellIndex(g.dyn.Row(id))
	g.cellOf[id] = c
	g.buckets[c] = spliceID(g.buckets[c], int32(id))
}

// Remove unbuckets row id. Either order relative to the dataset Delete
// is safe: Rebucket walks live ids, so when the shrink trigger fires
// while id has not been tombstoned yet, the O(n) pass re-admits it —
// Remove detects that and unbuckets it a second time, so the id never
// stays bucketed past this call. (Tombstoning first sidesteps the
// double unbucket and keeps the occupancy heuristics on true
// post-delete counts, which is what LiveDisC does.)
func (g *MutGrid) Remove(id int) {
	c := g.cellOf[id]
	if c < 0 {
		return
	}
	g.cellOf[id] = -1
	g.buckets[c] = removeID(g.buckets[c], int32(id))
	if g.needsRebucket() {
		g.Rebucket()
		if c = g.cellOf[id]; c >= 0 {
			g.cellOf[id] = -1
			g.buckets[c] = removeID(g.buckets[c], int32(id))
		}
	}
}

// spliceID inserts id into the sorted slice, keeping it sorted. Ids are
// appended in ascending order by the streaming path, so the common case
// is a pure append; the slice's amortized growth provides the slack.
func spliceID(s []int32, id int32) []int32 {
	if n := len(s); n == 0 || s[n-1] < id {
		return append(s, id)
	}
	i := len(s)
	s = append(s, 0)
	for i > 0 && s[i-1] > id {
		s[i] = s[i-1]
		i--
	}
	s[i] = id
	return s
}

// removeID deletes id from the sorted slice, keeping order.
func removeID(s []int32, id int32) []int32 {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// AppendRange appends every live point within rq of q (excluding id
// exclude; -1 for none) to dst in ascending id order, the order the
// live adjacency merges rely on. Candidates come from the clamped cell
// range covering rq, as in Grid.AppendRange, and take the kernel's
// one-call range test (InRange), so distances are bit-identical to the
// batch ε-join's.
func (g *MutGrid) AppendRange(dst []object.Neighbor, q []float64, rq float64, exclude int, examined *int64, s *Scratch) []object.Neighbor {
	if g.ncells == 0 {
		return dst
	}
	k := g.dyn.Kernel()
	rawR := k.RawThreshold(rq)
	dim := g.dyn.Dim()
	base := len(dst)
	var acc int64

	reach := g.maxND
	if f := rq / g.cell; f < float64(g.maxND-1) {
		reach = int32(f) + 1
	}
	var c int32
	for i := 0; i < dim; i++ {
		cc := int32((q[i] - g.min[i]) / g.cell)
		if cc < 0 {
			cc = 0
		} else if cc >= g.nd[i] {
			cc = g.nd[i] - 1
		}
		lo, hi := cc-reach, cc+reach
		if lo < 0 {
			lo = 0
		}
		if hi >= g.nd[i] {
			hi = g.nd[i] - 1
		}
		s.lo[i], s.hi[i], s.cur[i] = lo, hi, lo
		c += lo * g.stride[i]
	}
	for ; c >= 0; c = ringNext(s.cur, s.lo, s.hi, g.stride, c) {
		for _, id := range g.buckets[c] {
			if int(id) == exclude {
				continue
			}
			acc++
			if d, ok := k.InRange(q, g.dyn.Row(int(id)), rawR, rq); ok {
				dst = append(dst, object.Neighbor{ID: int(id), Dist: d})
			}
		}
	}
	if examined != nil {
		*examined += acc
	}
	sortRow(dst[base:], false)
	return dst
}

// emptyRow marks a vertex whose adjacency has been explicitly emptied,
// distinguishing it from a nil slot that still defers to the base CSR.
var emptyRow = make([]object.Neighbor, 0)

// DynAdj is a mutable adjacency layered copy-on-write over an optional
// immutable base CSR: a vertex's row is its override when one exists and
// the base row otherwise, so seeding from a batch ε-join costs nothing
// and only mutated rows are ever copied out. Overridden rows keep the
// CSR invariants (ascending ids, symmetric edges) and are spliced in
// place; the append-driven amortized slack of the backing slices makes a
// sequence of edge splices into one row amortized O(shift), not
// O(copy-all) per splice. Compact rebuilds a canonical CSR under an id
// remap, which is how the incremental edge set is proven bit-identical
// to a from-scratch Join.
type DynAdj struct {
	base  *CSR
	baseN int
	rows  [][]object.Neighbor
}

// NewDynAdj creates a dynamic adjacency over base (nil for empty).
func NewDynAdj(base *CSR) *DynAdj {
	a := &DynAdj{base: base}
	if base != nil {
		a.baseN = len(base.Offsets) - 1
		a.rows = make([][]object.Neighbor, a.baseN)
	}
	return a
}

// Row returns the current adjacency of id, ascending by neighbour id.
// The slice must not be modified by the caller and is invalidated by the
// next mutation touching id.
func (a *DynAdj) Row(id int) []object.Neighbor {
	if id < len(a.rows) && a.rows[id] != nil {
		return a.rows[id]
	}
	if id < a.baseN {
		return a.base.Row(id)
	}
	return nil
}

// Degree returns len(Row(id)).
func (a *DynAdj) Degree(id int) int { return len(a.Row(id)) }

// grow extends the override table to cover id.
func (a *DynAdj) grow(id int) {
	for len(a.rows) <= id {
		a.rows = append(a.rows, nil)
	}
}

// materialize returns an owned, mutable copy of id's row, with slack for
// coming splices.
func (a *DynAdj) materialize(id int) []object.Neighbor {
	a.grow(id)
	if a.rows[id] != nil {
		return a.rows[id]
	}
	var src []object.Neighbor
	if id < a.baseN {
		src = a.base.Row(id)
	}
	row := make([]object.Neighbor, len(src), len(src)+4)
	copy(row, src)
	return row
}

// AddVertex installs vertex id with the given neighbour list (ascending
// by id, distances final) and splices the reverse edge into every
// neighbour's row. nbrs is copied.
func (a *DynAdj) AddVertex(id int, nbrs []object.Neighbor) {
	a.grow(id)
	row := make([]object.Neighbor, len(nbrs))
	copy(row, nbrs)
	a.rows[id] = row
	if len(row) == 0 {
		a.rows[id] = emptyRow
	}
	for _, nb := range nbrs {
		r := a.materialize(nb.ID)
		a.rows[nb.ID] = spliceNeighbor(r, object.Neighbor{ID: id, Dist: nb.Dist})
	}
}

// RemoveVertex empties vertex id's row and removes the reverse edge from
// every neighbour.
func (a *DynAdj) RemoveVertex(id int) {
	nbrs := a.Row(id)
	for _, nb := range nbrs {
		r := a.materialize(nb.ID)
		a.rows[nb.ID] = removeNeighbor(r, id)
	}
	a.grow(id)
	a.rows[id] = emptyRow
}

// spliceNeighbor inserts nb into the id-sorted row.
func spliceNeighbor(row []object.Neighbor, nb object.Neighbor) []object.Neighbor {
	if n := len(row); n == 0 || row[n-1].ID < nb.ID {
		return append(row, nb)
	}
	i := len(row)
	row = append(row, object.Neighbor{})
	for i > 0 && row[i-1].ID > nb.ID {
		row[i] = row[i-1]
		i--
	}
	row[i] = nb
	return row
}

// removeNeighbor deletes the entry with the given id from the sorted row.
func removeNeighbor(row []object.Neighbor, id int) []object.Neighbor {
	for i, nb := range row {
		if nb.ID == id {
			row = append(row[:i], row[i+1:]...)
			if len(row) == 0 {
				return emptyRow
			}
			return row
		}
	}
	return row
}

// Edge is one undirected coverage-graph edge a replayed insert
// records: vertex New joined the graph within Dist of the older vertex
// Old.
type Edge struct {
	New, Old int32
	Dist     float64
}

// Fold builds the id-sorted CSR over slots vertices that base (nil for
// none) plus the recorded edges describe, in two passes (count, then
// fill). A vertex alive reports dead gets an empty row and is dropped
// from every other row. Each live row holds its base row, then its
// edges in arrival order, in both directions.
//
// The edges must arrive in insertion order, as a replay of appended ids
// records them: New ascending and at least base's vertex count, and
// each New's Old ids ascending and below it. Every row is then
// ascending without a sort: base neighbours (all below base's vertex
// count), then the older vertices it joined, then the newer vertices
// that joined it. The caller bounds the entry count to int32 offsets
// (base entries plus two per edge). The fold produces a coverage
// graph, so it is timed as one join.
func Fold(base *CSR, slots int, alive func(int) bool, edges []Edge) *CSR {
	defer telemetry.Since(metJoin, time.Now())
	baseN := 0
	if base != nil {
		baseN = len(base.Offsets) - 1
	}
	live := make([]bool, slots)
	for id := range live {
		live[id] = alive(id)
	}
	// Count: offsets[id+1] holds id's degree until the prefix sum turns
	// offsets[id] into the start of id's row.
	offsets := make([]int32, slots+1)
	for id := 0; id < baseN; id++ {
		if !live[id] {
			continue
		}
		deg := int32(0)
		for _, nb := range base.Row(id) {
			if live[nb.ID] {
				deg++
			}
		}
		offsets[id+1] = deg
	}
	for _, e := range edges {
		if live[e.New] && live[e.Old] {
			offsets[e.New+1]++
			offsets[e.Old+1]++
		}
	}
	var total int64
	for id := 1; id <= slots; id++ {
		total += int64(offsets[id])
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("grid: fold exceeds %d adjacency entries", math.MaxInt32))
		}
		offsets[id] = int32(total)
	}
	// Fill, using offsets[id] as id's cursor: it ends at the start of
	// row id+1, so one shift restores the offsets.
	nbrs := make([]object.Neighbor, total)
	for id := 0; id < baseN; id++ {
		if !live[id] {
			continue
		}
		at := offsets[id]
		for _, nb := range base.Row(id) {
			if live[nb.ID] {
				nbrs[at] = nb
				at++
			}
		}
		offsets[id] = at
	}
	for _, e := range edges {
		if live[e.New] && live[e.Old] {
			nbrs[offsets[e.New]] = object.Neighbor{ID: int(e.Old), Dist: e.Dist}
			offsets[e.New]++
			nbrs[offsets[e.Old]] = object.Neighbor{ID: int(e.New), Dist: e.Dist}
			offsets[e.Old]++
		}
	}
	copy(offsets[1:], offsets[:slots])
	offsets[0] = 0
	return &CSR{Offsets: offsets, Nbrs: nbrs}
}

// Compact packs the live rows into a canonical CSR under remap (old id →
// dense new id, -1 for dead; must be monotone over live ids, as
// DynDataset.CompactFlat produces). Rows and within-row neighbour order
// are preserved by monotonicity, so no re-sorting happens — the output
// is bit-identical to Join over the compacted dataset whenever the
// incremental edge set is correct.
func (a *DynAdj) Compact(remap []int32, liveN int) (*CSR, error) {
	offsets := make([]int32, liveN+1)
	var total int64
	for old, nw := range remap {
		if nw < 0 {
			continue
		}
		total += int64(len(a.Row(old)))
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("grid: coverage graph exceeds %d adjacency entries", math.MaxInt32)
		}
		offsets[nw+1] = int32(total)
	}
	nbrs := make([]object.Neighbor, total)
	for old, nw := range remap {
		if nw < 0 {
			continue
		}
		out := nbrs[offsets[nw]:offsets[nw+1]]
		for i, nb := range a.Row(old) {
			rid := remap[nb.ID]
			if rid < 0 {
				return nil, fmt.Errorf("grid: live row %d holds edge to dead id %d", old, nb.ID)
			}
			out[i] = object.Neighbor{ID: int(rid), Dist: nb.Dist}
		}
	}
	return &CSR{Offsets: offsets, Nbrs: nbrs}, nil
}

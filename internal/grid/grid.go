// Package grid implements a uniform-grid spatial hash over an
// object.FlatDataset, the substrate of the cell-pair ε-join that builds
// the r-coverage graph in O(n + |edges|) and of that graph's range scans
// beyond its build radius.
//
// Points are bucketed by counting sort into a flat, contiguous
// cell→points layout: one pass counts occupancy per cell, a prefix sum
// turns the counts into offsets, and a second pass scatters the ids, so
// every cell's members sit consecutively (and in ascending id order) in
// one shared array. The cell side is the build radius r, widened by a
// relative 2⁻²⁰ so that floating-point rounding in the coordinate→cell
// mapping can never place two points within r of each other more than
// one cell apart, and coarsened (doubled) until the total cell count
// stays within a small multiple of n — which also bounds per-dimension
// cell indexes far below the magnitude where that rounding analysis
// would stop holding.
//
// The grid prunes on per-coordinate differences: a point within metric
// distance r of a query must have every coordinate within r of the
// query's, which holds exactly for the metrics whose distance dominates
// each coordinate gap (the Lp family: Euclidean, Manhattan, Chebyshev —
// not Hamming, where a differing coordinate contributes 1 regardless of
// gap). Supports reports the property; Build enforces it. Candidate
// cells are always re-checked with the dataset's compiled kernel, so
// results are bit-identical to a brute-force scan.
package grid

import (
	"fmt"
	"math"
	"time"

	"github.com/discdiversity/disc/internal/bitset"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/telemetry"
)

// maxCellsPerPoint bounds the total cell count at maxCellsPerPoint·n (+ a
// small constant for tiny inputs): below it the flat cell arrays stay a
// small multiple of the point storage, above it the cell side doubles
// until the grid fits. 8 cells per point keeps sub-r cells available for
// sparse data without letting fine radii explode the directory.
const maxCellsPerPoint = 8

// maxCellsFloor is the minimum value of the total-cell cap, so tiny
// inputs still get a useful directory.
const maxCellsFloor = 1024

// Supports reports whether the grid can answer exact range queries under
// m: the metric's distance must dominate every per-coordinate difference
// (|aᵢ-bᵢ| ≤ Dist(a,b)), which is what restricting a query to the ±1
// cell neighbourhood relies on.
func Supports(m object.Metric) bool {
	switch m.(type) {
	case object.Euclidean, object.Manhattan, object.Chebyshev:
		return true
	default:
		return false
	}
}

// Grid is a uniform spatial hash over a FlatDataset, bucketed for a
// build radius r with cell side ≥ r. It is immutable after Build and
// safe for concurrent reads (the ε-join workers rely on this).
type Grid struct {
	flat *object.FlatDataset
	r    float64 // the radius the grid was bucketed for
	cell float64 // cell side: r widened by 2⁻²⁰, then doubled to fit the cap

	min    []float64 // bounding-box lower corner per dimension
	nd     []int32   // cells per dimension
	stride []int32   // flattened-index stride per dimension (stride[dim-1] = 1)
	ncells int

	start  []int32 // len ncells+1; cell c holds ids[start[c]:start[c+1]]
	ids    []int32 // point ids grouped by cell, ascending id within a cell
	cellOf []int32 // id -> flattened cell index
}

// Build buckets flat's points for radius r. The dataset is retained (not
// copied); it must not change afterwards.
func Build(flat *object.FlatDataset, r float64) (*Grid, error) {
	defer telemetry.Since(metBuild, time.Now())
	if flat == nil || flat.Len() == 0 {
		return nil, fmt.Errorf("grid: empty dataset")
	}
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("grid: invalid radius %g", r)
	}
	if !Supports(flat.Metric()) {
		return nil, fmt.Errorf("grid: metric %q does not dominate per-coordinate differences; the cell neighbourhood scan would miss true neighbours", flat.Metric().Name())
	}
	if flat.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("grid: %d points exceed the int32 id domain", flat.Len())
	}
	n, dim := flat.Len(), flat.Dim()
	coords := flat.Coords()

	g := &Grid{
		flat:   flat,
		r:      r,
		min:    make([]float64, dim),
		nd:     make([]int32, dim),
		stride: make([]int32, dim),
		cellOf: make([]int32, n),
	}

	// Bounding box.
	max := make([]float64, dim)
	copy(g.min, coords[:dim])
	copy(max, coords[:dim])
	for off := dim; off < len(coords); off += dim {
		for i := 0; i < dim; i++ {
			v := coords[off+i]
			if v < g.min[i] {
				g.min[i] = v
			}
			if v > max[i] {
				max[i] = v
			}
		}
	}

	g.cell, _, g.ncells = computeGeometry(g.min, max, n, r, g.nd, g.stride)

	// Counting sort: occupancy, prefix sum, scatter. Scanning ids in
	// ascending order keeps each cell's members id-sorted.
	g.start = make([]int32, g.ncells+1)
	for id, off := 0, 0; id < n; id, off = id+1, off+dim {
		c := g.cellIndex(coords[off : off+dim : off+dim])
		g.cellOf[id] = c
		g.start[c+1]++
	}
	for c := 0; c < g.ncells; c++ {
		g.start[c+1] += g.start[c]
	}
	g.ids = make([]int32, n)
	cursor := make([]int32, g.ncells)
	copy(cursor, g.start[:g.ncells])
	for id := 0; id < n; id++ {
		c := g.cellOf[id]
		g.ids[cursor[c]] = int32(id)
		cursor[c]++
	}
	return g, nil
}

// computeGeometry derives the directory geometry for a bounding box and
// radius, writing the per-dimension cell counts and strides into the
// caller's nd and stride slices (len dim each) and returning the cell
// side, the maximum per-dimension cell count and the total cell count.
// It is the single definition of the bucketing geometry, shared by the
// immutable Build and the mutable grid's re-bucketing so both produce
// bit-identical directories for the same point set.
//
// The cell side is r widened so boundary rounding never pushes a true
// neighbour outside the ±1 cell ring, with a fallback for r = 0 (only
// exact duplicates match then, and duplicates share a cell at any side
// length), then doubled until the total cell count fits the
// maxCellsPerPoint·n cap.
func computeGeometry(min, max []float64, n int, r float64, nd, stride []int32) (cell float64, maxND int32, ncells int) {
	dim := len(nd)
	side := r + r*0x1p-20
	if side <= 0 {
		side = 1
	}
	capCells := maxCellsPerPoint * n
	if capCells < maxCellsFloor {
		capCells = maxCellsFloor
	}
	// Keep the directory inside the int32 index domain (with headroom
	// for the stride products) no matter how large n grows.
	if capCells > math.MaxInt32/4 {
		capCells = math.MaxInt32 / 4
	}
	for {
		total := 1
		ok := true
		for i := 0; i < dim; i++ {
			nc := int((max[i]-min[i])/side) + 1
			if nc < 1 {
				nc = 1
			}
			nd[i] = int32(nc)
			if total > capCells/nc { // overflow-safe total*nc > capCells
				ok = false
				break
			}
			total *= nc
		}
		if ok {
			ncells = total
			break
		}
		side *= 2
	}
	cell = side
	stride[dim-1] = 1
	for i := dim - 2; i >= 0; i-- {
		stride[i] = stride[i+1] * nd[i+1]
	}
	for _, nc := range nd {
		if nc > maxND {
			maxND = nc
		}
	}
	return cell, maxND, ncells
}

// cellIndex maps a coordinate row to its flattened cell index.
func (g *Grid) cellIndex(row []float64) int32 {
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

// coordCell maps one coordinate to its (clamped) cell index along dim i.
func (g *Grid) coordCell(i int, v float64) int32 {
	c := int32((v - g.min[i]) / g.cell)
	if c < 0 {
		c = 0
	} else if c >= g.nd[i] {
		c = g.nd[i] - 1
	}
	return c
}

// Radius returns the radius the grid was bucketed for.
func (g *Grid) Radius() float64 { return g.r }

// Cell returns the cell side length (≥ Radius, see Build).
func (g *Grid) Cell() float64 { return g.cell }

// ScanOrder appends the ids in cell order — a locality-preserving scan
// order (points in the same or adjacent cells are close in the order).
func (g *Grid) ScanOrder() []int {
	order := make([]int, len(g.ids))
	for i, id := range g.ids {
		order[i] = int(id)
	}
	return order
}

// Scratch holds the per-query odometer state of a cell-range scan. One
// Scratch serves any number of sequential queries on the same grid
// dimensionality without allocating; concurrent queries need one each.
type Scratch struct {
	lo, hi, cur []int32
}

// NewScratch returns scan scratch for a grid of the given dimensionality.
func NewScratch(dim int) *Scratch {
	return &Scratch{lo: make([]int32, dim), hi: make([]int32, dim), cur: make([]int32, dim)}
}

// setup positions the scratch on the cell range covering radius rq
// around q and returns the range's first cell and its run span, or
// first = -1 when no cell of the directory can hold a point within rq.
// Per dimension the range is the cells the box [qᵢ − rq, qᵢ + rq]
// touches, clamped to the directory: a point within rq of q has every
// coordinate within rq of q's (Supports), so its cell lies in the box's
// cell range. The box's ends are taken in cell units and widened by a
// relative 2⁻³² (plus 2⁻³² of a cell), far more than the few ulps by
// which coordinate→cell rounding and the kernel's rounded distance can
// move a neighbour across a cell boundary. The range is then cut to the
// centre cell ± (⌊rq/cell⌋+1), which already bounds every neighbour's
// cell, so it is never wider than that ring; the box clip drops the
// ring's cells on the far side of each box end, and a query outside
// the bounding box scans only the cells its box reaches.
//
// The scans walk the range in runs: the cells of one row along the last
// dimension have consecutive flattened indexes (its stride is 1), so
// their members are the one slice ids[start[c]:start[c+span+1]], where
// c is the row's first cell and span = hi−lo along that dimension. The
// odometer steps over the outer dimensions only (nextRun), and the runs
// come in cell order, so a scan answers exactly as a cell-by-cell walk
// would.
func (g *Grid) setup(s *Scratch, q []float64, rq float64) (first, span int32) {
	t := rq / g.cell
	for i := range q {
		nd := g.nd[i]
		f := (q[i] - g.min[i]) / g.cell
		slack := (math.Abs(f) + t + 1) * 0x1p-32
		lof, hif := f-t-slack, f+t+slack
		if !(hif >= 0 && lof < float64(nd)) {
			return -1, 0 // the box misses the directory along dimension i
		}
		lo, hi := int32(0), nd-1
		if lof > 0 {
			lo = int32(lof)
		}
		if hif < float64(nd) {
			hi = int32(hif)
		}
		if t < float64(nd) {
			c, reach := g.coordCell(i, q[i]), int32(t)+1
			lo, hi = max(lo, c-reach), min(hi, c+reach)
		}
		s.lo[i], s.hi[i], s.cur[i] = lo, hi, lo
		first += lo * g.stride[i]
	}
	last := len(q) - 1
	return first, s.hi[last] - s.lo[last]
}

// nextRun returns the first cell of the run after the one starting at
// c, or -1 when the range is exhausted.
func (g *Grid) nextRun(s *Scratch, c int32) int32 {
	outer := len(s.cur) - 1
	return ringNext(s.cur[:outer], s.lo[:outer], s.hi[:outer], g.stride[:outer], c)
}

// run returns the members of the span+1 cells starting at c.
func (g *Grid) run(c, span int32) []int32 {
	return g.ids[g.start[c]:g.start[c+span+1]]
}

// before reports whether a sorts before b: by id, or by ascending
// (distance, id) when byDist is set.
func before(a, b *object.Neighbor, byDist bool) bool {
	if byDist && a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// sortRow orders a neighbour list in place without allocating: by id,
// the order CSR.Validate checks, or by (distance, id), the order
// CSR.Prefix reads. Sorting adjacency rows is the hottest post-join
// phase, so this is a hand-rolled median-of-three quicksort with direct
// field comparisons (no comparator indirection) and insertion sort for
// short ranges — several times faster than the generic comparison sort
// on the short, nearly-run-sorted lists the cell scans produce. IDs are
// unique per list, so both keys are total and pathological equal-key
// partitions cannot arise.
func sortRow(ns []object.Neighbor, byDist bool) {
	for len(ns) > 16 {
		// Median of three to the pivot position 0.
		m, last := len(ns)/2, len(ns)-1
		if before(&ns[m], &ns[0], byDist) {
			ns[m], ns[0] = ns[0], ns[m]
		}
		if before(&ns[last], &ns[0], byDist) {
			ns[last], ns[0] = ns[0], ns[last]
		}
		if before(&ns[last], &ns[m], byDist) {
			ns[last], ns[m] = ns[m], ns[last]
		}
		ns[0], ns[m] = ns[m], ns[0]
		pivot := ns[0]
		store := 0
		for k := 1; k < len(ns); k++ {
			if before(&ns[k], &pivot, byDist) {
				store++
				ns[store], ns[k] = ns[k], ns[store]
			}
		}
		ns[0], ns[store] = ns[store], ns[0]
		// Recurse on the smaller half, iterate on the larger.
		if store < len(ns)-store-1 {
			sortRow(ns[:store], byDist)
			ns = ns[store+1:]
		} else {
			sortRow(ns[store+1:], byDist)
			ns = ns[:store]
		}
	}
	for i := 1; i < len(ns); i++ {
		v := ns[i]
		j := i - 1
		for j >= 0 && before(&v, &ns[j], byDist) {
			ns[j+1] = ns[j]
			j--
		}
		ns[j+1] = v
	}
}

// AppendRange appends every point within rq of q (excluding id exclude;
// -1 for none) to dst in cell order — the cells of the scanned range in
// flattened order, ascending ids within a cell; no consumer needs id
// order, so none is paid for — and returns the extended slice,
// allocating only when dst must grow. The range is walked in runs of
// cells along the last dimension, each run's members handed to the
// dataset's gather (AppendRangeIDs: the float32 pre-filter when the
// mirror exists, otherwise one kernel call per candidate), so distances
// stay bit-identical to a brute-force scan. Each candidate examined adds
// one to *examined when it is non-nil.
func (g *Grid) AppendRange(dst []object.Neighbor, q []float64, rq float64, exclude int, examined *int64, s *Scratch) []object.Neighbor {
	var acc int64
	qid := -1
	if exclude >= 0 && g.flat.IsRow(q, exclude) {
		qid = exclude
	}
	c, span := g.setup(s, q, rq)
	if exclude < 0 || qid >= 0 {
		for ; c >= 0; c = g.nextRun(s, c) {
			ids := g.run(c, span)
			acc += int64(len(ids))
			dst = g.flat.AppendRangeIDs(dst, q, qid, ids, exclude, rq)
		}
		if qid >= 0 {
			// Row qid sits in a visited cell (its cell contains q) and
			// was skipped, not examined; the per-run charge counted it.
			acc--
		}
	} else {
		// Excluding an id that is not the query row: no batch entry
		// models this accounting, so keep the per-candidate scan.
		k := g.flat.Kernel()
		rawR := k.RawThreshold(rq)
		for ; c >= 0; c = g.nextRun(s, c) {
			for _, id := range g.run(c, span) {
				if int(id) == exclude {
					continue
				}
				acc++
				if d, ok := k.InRange(q, g.flat.Row(int(id)), rawR, rq); ok {
					dst = append(dst, object.Neighbor{ID: int(id), Dist: d})
				}
			}
		}
	}
	if examined != nil {
		*examined += acc
	}
	return dst
}

// AppendRangeWhite is AppendRange restricted to the ids whose bit is
// set in white — the coverage graph's pruned query beyond its ceiling,
// in the same cell order. Cleared ids are neither examined nor charged,
// mirroring how the scan engines account skipped covered objects.
func (g *Grid) AppendRangeWhite(dst []object.Neighbor, q []float64, rq float64, exclude int, white *bitset.Set, examined *int64, s *Scratch) []object.Neighbor {
	k := g.flat.Kernel()
	rawR := k.RawThreshold(rq)
	coords := g.flat.Coords()
	dim := g.flat.Dim()
	var acc int64
	c, span := g.setup(s, q, rq)
	for ; c >= 0; c = g.nextRun(s, c) {
		for _, id := range g.run(c, span) {
			if int(id) == exclude || !white.Test(int(id)) {
				continue
			}
			acc++
			off := int(id) * dim
			if d, ok := k.InRange(q, coords[off:off+dim:off+dim], rawR, rq); ok {
				dst = append(dst, object.Neighbor{ID: int(id), Dist: d})
			}
		}
	}
	if examined != nil {
		*examined += acc
	}
	return dst
}

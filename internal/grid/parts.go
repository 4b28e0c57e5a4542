package grid

import (
	"fmt"
	"math"

	"github.com/discdiversity/disc/internal/object"
)

// Parts is the serialisable layout of a Grid: the bucketing parameters
// plus the counting-sorted occupancy arrays, exactly the state a
// snapshot must carry to reconstruct the spatial hash without paying the
// O(n) re-bucket. Derived fields (strides, cell count, the per-dimension
// maximum) are recomputed on load rather than stored, so a snapshot can
// never carry an inconsistent copy of them.
//
// The slices returned by Grid.Parts alias the grid's internal storage
// and must not be modified; FromParts likewise retains the slices it is
// given.
type Parts struct {
	// R is the radius the grid was bucketed for; Cell the chosen cell
	// side (R widened by 2⁻²⁰, then doubled to fit the directory cap).
	R, Cell float64
	// Min is the bounding-box lower corner per dimension.
	Min []float64
	// ND is the cell count per dimension.
	ND []int32
	// Start, IDs and CellOf are the counting-sort occupancy: cell c
	// holds IDs[Start[c]:Start[c+1]] in ascending id order, and
	// CellOf[id] is id's flattened cell index.
	Start, IDs, CellOf []int32
}

// Parts exposes the grid's internal layout for snapshotting. The slices
// alias the grid's storage; callers must treat them as read-only.
func (g *Grid) Parts() Parts {
	return Parts{R: g.r, Cell: g.cell, Min: g.min, ND: g.nd, Start: g.start, IDs: g.ids, CellOf: g.cellOf}
}

// FromParts reassembles a Grid over flat from a deserialised layout. It
// revalidates every invariant Build would have established — metric
// support, the Covers widening margin, the shape and partition property
// of the occupancy arrays, ascending ids within each cell, and that the
// stored coordinate→cell mapping reproduces CellOf exactly — so a
// corrupt or mismatched snapshot fails here rather than as a wrong
// query result later. The validation is O(n·dim).
func FromParts(flat *object.FlatDataset, p Parts) (*Grid, error) {
	if flat == nil || flat.Len() == 0 {
		return nil, fmt.Errorf("grid: from parts: empty dataset")
	}
	if !Supports(flat.Metric()) {
		return nil, fmt.Errorf("grid: from parts: metric %q is not grid-servable", flat.Metric().Name())
	}
	n, dim := flat.Len(), flat.Dim()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("grid: from parts: %d points exceed the int32 id domain", n)
	}
	if p.R < 0 || math.IsNaN(p.R) || math.IsInf(p.R, 0) {
		return nil, fmt.Errorf("grid: from parts: invalid radius %g", p.R)
	}
	if !(p.Cell > 0) || math.IsInf(p.Cell, 0) || p.R+p.R*0x1p-20 > p.Cell {
		return nil, fmt.Errorf("grid: from parts: cell side %g does not cover radius %g", p.Cell, p.R)
	}
	if len(p.Min) != dim || len(p.ND) != dim {
		return nil, fmt.Errorf("grid: from parts: %d-dimensional layout for a %d-dimensional dataset", len(p.ND), dim)
	}
	ncells := 1
	for i, nc := range p.ND {
		if nc < 1 {
			return nil, fmt.Errorf("grid: from parts: dimension %d has %d cells", i, nc)
		}
		if ncells > (math.MaxInt32/4)/int(nc) {
			return nil, fmt.Errorf("grid: from parts: directory exceeds the cell-index domain")
		}
		ncells *= int(nc)
	}
	if len(p.Start) != ncells+1 {
		return nil, fmt.Errorf("grid: from parts: %d cell offsets for %d cells", len(p.Start), ncells)
	}
	if len(p.IDs) != n || len(p.CellOf) != n {
		return nil, fmt.Errorf("grid: from parts: occupancy sized for %d points, dataset has %d", len(p.IDs), n)
	}
	if p.Start[0] != 0 || p.Start[ncells] != int32(n) {
		return nil, fmt.Errorf("grid: from parts: cell offsets do not span the id range")
	}

	g := &Grid{
		flat:   flat,
		r:      p.R,
		cell:   p.Cell,
		min:    p.Min,
		nd:     p.ND,
		stride: make([]int32, dim),
		ncells: ncells,
		start:  p.Start,
		ids:    p.IDs,
		cellOf: p.CellOf,
	}
	g.stride[dim-1] = 1
	for i := dim - 2; i >= 0; i-- {
		g.stride[i] = g.stride[i+1] * g.nd[i+1]
	}
	for _, nc := range g.nd {
		if nc > g.maxND {
			g.maxND = nc
		}
	}

	// The occupancy must partition the id range: offsets nondecreasing,
	// each cell's members ascending, each member's CellOf pointing back
	// at its cell — which together with the length checks makes IDs a
	// permutation of [0, n).
	for c := 0; c < ncells; c++ {
		lo, hi := p.Start[c], p.Start[c+1]
		if lo > hi {
			return nil, fmt.Errorf("grid: from parts: cell %d has negative occupancy", c)
		}
		prev := int32(-1)
		for _, id := range p.IDs[lo:hi] {
			if id <= prev || id >= int32(n) {
				return nil, fmt.Errorf("grid: from parts: cell %d members are not ascending ids in range", c)
			}
			prev = id
			if p.CellOf[id] != int32(c) {
				return nil, fmt.Errorf("grid: from parts: point %d listed in cell %d but mapped to %d", id, c, p.CellOf[id])
			}
		}
	}
	// The stored mapping must agree with the coordinates: re-deriving
	// each point's cell from (Min, Cell, ND) must reproduce CellOf, so
	// an occupancy saved for a different dataset (or tampered
	// parameters) cannot be grafted onto this one.
	for id := 0; id < n; id++ {
		if g.cellIndex(flat.Row(id)) != p.CellOf[id] {
			return nil, fmt.Errorf("grid: from parts: point %d does not map to its recorded cell", id)
		}
	}
	return g, nil
}

// Validate checks the structural invariants of a deserialised CSR
// adjacency for an n-point coverage graph built at radius r: the offsets
// must be a nondecreasing span of the packed array, and every row must
// hold strictly ascending neighbour ids in [0, n) excluding the row's
// own id, with distances at most r. A negative distance is accepted:
// cosine and dot-product distances between parallel vectors may round a
// few ulps below zero. NaN is rejected by the comparison. O(edges).
func (c *CSR) Validate(n int, r float64) error {
	if len(c.Offsets) != n+1 {
		return fmt.Errorf("grid: csr: %d offsets for %d points", len(c.Offsets), n)
	}
	if c.Offsets[0] != 0 || int(c.Offsets[n]) != len(c.Nbrs) {
		return fmt.Errorf("grid: csr: offsets do not span the %d packed neighbours", len(c.Nbrs))
	}
	for id := 0; id < n; id++ {
		lo, hi := c.Offsets[id], c.Offsets[id+1]
		if lo > hi {
			return fmt.Errorf("grid: csr: point %d has negative degree", id)
		}
		prev := -1
		for _, nb := range c.Nbrs[lo:hi] {
			if nb.ID <= prev || nb.ID >= n || nb.ID == id {
				return fmt.Errorf("grid: csr: point %d has an invalid neighbour list", id)
			}
			prev = nb.ID
			if !(nb.Dist <= r) {
				return fmt.Errorf("grid: csr: point %d records neighbour %d at distance %g above %g", id, nb.ID, nb.Dist, r)
			}
		}
	}
	return nil
}

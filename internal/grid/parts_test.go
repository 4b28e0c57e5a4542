package grid

import (
	"math"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

// TestPartsRoundTrip: FromParts(g.Parts()) must answer queries exactly
// like the original grid — same neighbours, same order, bit-identical
// distances — across dimensionalities and metrics.
func TestPartsRoundTrip(t *testing.T) {
	metrics := []object.Metric{object.Euclidean{}, object.Manhattan{}, object.Chebyshev{}}
	for dim := 1; dim <= 4; dim++ {
		m := metrics[dim%len(metrics)]
		flat := randomFlat(t, 150+20*dim, dim, m, int64(40+dim))
		g, err := Build(flat, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		re, err := FromParts(flat, g.Parts())
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if re.Radius() != g.Radius() || re.Cell() != g.Cell() || re.Cells() != g.Cells() {
			t.Fatalf("dim %d: grid parameters drifted", dim)
		}
		s1, s2 := NewScratch(dim), NewScratch(dim)
		for id := 0; id < flat.Len(); id += 7 {
			for _, r := range []float64{0.05, 0.15, 0.5} {
				a := g.AppendRange(nil, flat.Row(id), r, id, nil, s1)
				b := re.AppendRange(nil, flat.Row(id), r, id, nil, s2)
				if !equalNeighbors(a, b) {
					t.Fatalf("dim %d id %d r %g: rehydrated grid drifted", dim, id, r)
				}
			}
		}
	}
}

// TestFromPartsRejectsTampering: each single-field inconsistency must be
// caught by validation, not surface as a wrong query result.
func TestFromPartsRejectsTampering(t *testing.T) {
	flat := randomFlat(t, 200, 2, object.Euclidean{}, 77)
	g, err := Build(flat, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pristine := g.Parts()
	clone := func() Parts {
		p := pristine
		p.Min = append([]float64(nil), p.Min...)
		p.ND = append([]int32(nil), p.ND...)
		p.Start = append([]int32(nil), p.Start...)
		p.IDs = append([]int32(nil), p.IDs...)
		p.CellOf = append([]int32(nil), p.CellOf...)
		return p
	}
	cases := []struct {
		name   string
		mutate func(*Parts)
	}{
		{"cell below radius", func(p *Parts) { p.Cell = p.R / 2 }},
		{"negative radius", func(p *Parts) { p.R = -1 }},
		{"wrong dimensionality", func(p *Parts) { p.ND = p.ND[:1]; p.Min = p.Min[:1] }},
		{"zero cells in a dimension", func(p *Parts) { p.ND[0] = 0 }},
		{"offsets do not span", func(p *Parts) { p.Start[len(p.Start)-1]-- }},
		{"swapped members", func(p *Parts) {
			// Swapping two ids across cells breaks CellOf consistency.
			p.IDs[0], p.IDs[len(p.IDs)-1] = p.IDs[len(p.IDs)-1], p.IDs[0]
		}},
		{"duplicated member", func(p *Parts) { p.IDs[1] = p.IDs[0] }},
		{"shifted origin", func(p *Parts) { p.Min[0] += 2 * p.Cell }},
		{"remapped point", func(p *Parts) {
			// Point 0's recorded cell no longer matches its coordinates.
			from := p.CellOf[0]
			to := from + 1
			if int(to) >= len(p.Start)-1 {
				to = from - 1
			}
			p.CellOf[0] = to
		}},
	}
	for _, tc := range cases {
		p := clone()
		tc.mutate(&p)
		if _, err := FromParts(flat, p); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	// The pristine layout itself must of course load.
	if _, err := FromParts(flat, clone()); err != nil {
		t.Fatalf("pristine parts rejected: %v", err)
	}
}

// TestCSRValidate: structural lies in a deserialised adjacency must be
// rejected.
func TestCSRValidate(t *testing.T) {
	flat := randomFlat(t, 180, 2, object.Euclidean{}, 78)
	g, err := Build(flat, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	csr, _, err := Join(g, 0.12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := csr.Validate(flat.Len(), 0.12); err != nil {
		t.Fatalf("genuine CSR rejected: %v", err)
	}
	if len(csr.Nbrs) == 0 {
		t.Skip("degenerate workload: no edges")
	}
	clone := func() *CSR {
		return &CSR{
			Offsets: append([]int32(nil), csr.Offsets...),
			Nbrs:    append([]object.Neighbor(nil), csr.Nbrs...),
		}
	}
	row := 0
	for csr.Degree(row) == 0 {
		row++
	}
	first := int(csr.Offsets[row])
	cases := []struct {
		name   string
		mutate func(*CSR)
	}{
		{"short offsets", func(c *CSR) { c.Offsets = c.Offsets[:len(c.Offsets)-1] }},
		{"offsets overrun", func(c *CSR) { c.Offsets[len(c.Offsets)-1]++ }},
		{"id out of range", func(c *CSR) { c.Nbrs[first].ID = flat.Len() }},
		{"self loop", func(c *CSR) { c.Nbrs[first].ID = row }},
		{"distance beyond radius", func(c *CSR) { c.Nbrs[first].Dist = 1e9 }},
		{"NaN distance", func(c *CSR) { c.Nbrs[first].Dist = math.NaN() }},
	}
	for _, tc := range cases {
		c := clone()
		tc.mutate(c)
		if err := c.Validate(flat.Len(), 0.12); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	// Cosine and dot-product distances between parallel vectors round a
	// few ulps below zero, so a negative distance is not corruption.
	c := clone()
	c.Nbrs[first].Dist = -0x1p-52
	if err := c.Validate(flat.Len(), 0.12); err != nil {
		t.Fatalf("negative distance rejected: %v", err)
	}
}

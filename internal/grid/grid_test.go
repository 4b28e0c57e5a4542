package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/bitset"
	"github.com/discdiversity/disc/internal/object"
)

func randomFlat(t *testing.T, n, dim int, m object.Metric, seed int64) *object.FlatDataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]object.Point, n)
	for i := range pts {
		p := make(object.Point, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	flat, err := object.Flatten(pts, m)
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

func equalNeighbors(a, b []object.Neighbor) bool {
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

// byID returns an id-sorted copy of a neighbour list: AppendRange
// answers in cell order, the brute-force reference in id order.
func byID(ns []object.Neighbor) []object.Neighbor {
	out := append([]object.Neighbor(nil), ns...)
	sortRow(out, false)
	return out
}

// brute returns the reference neighbourhood: the flat dataset's own
// linear scan, which reports ascending ids with kernel-exact distances.
func brute(flat *object.FlatDataset, id int, r float64) []object.Neighbor {
	return flat.AppendRange(nil, flat.Row(id), r, id)
}

// TestGridMatchesBruteForce: across random dimensionalities, metrics and
// radii — including query radii above and below the bucketing radius —
// the cell-range scan must return exactly the brute-force neighbour
// list (same ids, bit-identical distances; compared in id order, since
// the scan answers in cell order).
func TestGridMatchesBruteForce(t *testing.T) {
	metrics := []object.Metric{object.Euclidean{}, object.Manhattan{}, object.Chebyshev{}}
	rng := rand.New(rand.NewSource(17))
	for dim := 1; dim <= 5; dim++ {
		m := metrics[dim%len(metrics)]
		n := 120 + rng.Intn(200)
		flat := randomFlat(t, n, dim, m, int64(100+dim))
		buildR := 0.02 + rng.Float64()*0.2
		g, err := Build(flat, buildR)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScratch(dim)
		for trial := 0; trial < 40; trial++ {
			id := rng.Intn(n)
			rq := rng.Float64() * 3 * buildR // exercises reach 1 and multi-ring scans
			got := byID(g.AppendRange(nil, flat.Row(id), rq, id, nil, s))
			want := brute(flat, id, rq)
			if !equalNeighbors(got, want) {
				t.Fatalf("dim=%d metric=%s buildR=%g rq=%g id=%d: grid %v want %v",
					dim, m.Name(), buildR, rq, id, got, want)
			}
		}
	}
}

// TestGridAppendRangeWhite: the white-filtered scan must return exactly
// AppendRange's answer with the cleared ids dropped — same order,
// bit-identical distances — at radii within one cell ring and beyond
// it, for row and free-point queries. Only white candidates may be
// charged: with every bit set the charge equals AppendRange's, and
// otherwise it counts the white ids in the scanned cells.
func TestGridAppendRangeWhite(t *testing.T) {
	metrics := []object.Metric{object.Euclidean{}, object.Manhattan{}, object.Chebyshev{}}
	rng := rand.New(rand.NewSource(29))
	for dim := 1; dim <= 4; dim++ {
		m := metrics[dim%len(metrics)]
		n := 150 + rng.Intn(150)
		flat := randomFlat(t, n, dim, m, int64(200+dim))
		const buildR = 0.1
		g, err := Build(flat, buildR)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScratch(dim)
		var all, some bitset.Set
		all.Reset(n)
		all.Fill()
		some.Reset(n)
		for id := 0; id < n; id++ {
			if rng.Intn(3) > 0 {
				some.Set(id)
			}
		}
		for trial := 0; trial < 30; trial++ {
			id := rng.Intn(n)
			q, exclude := flat.Row(id), id
			if trial%5 == 0 {
				q = make([]float64, dim)
				for j := range q {
					q[j] = rng.Float64()
				}
				exclude = -1
			}
			for _, rq := range []float64{buildR / 2, buildR, 2.5 * buildR} {
				var scanned int64
				full := g.AppendRange(nil, q, rq, exclude, &scanned, s)
				var charged int64
				if got := g.AppendRangeWhite(nil, q, rq, exclude, &all, &charged, s); !equalNeighbors(got, full) || charged != scanned {
					t.Fatalf("dim=%d rq=%g id=%d, all white: %v charged %d, want %v charged %d", dim, rq, exclude, got, charged, full, scanned)
				}
				var want []object.Neighbor
				for _, nb := range full {
					if some.Test(nb.ID) {
						want = append(want, nb)
					}
				}
				var whiteScanned int64
				eachCell(g, s, q, rq, func(c int32) {
					for _, cid := range g.ids[g.start[c]:g.start[c+1]] {
						if int(cid) != exclude && some.Test(int(cid)) {
							whiteScanned++
						}
					}
				})
				charged = 0
				if got := g.AppendRangeWhite(nil, q, rq, exclude, &some, &charged, s); !equalNeighbors(got, want) || charged != whiteScanned {
					t.Fatalf("dim=%d rq=%g id=%d: %v charged %d, want %v charged %d", dim, rq, exclude, got, charged, want, whiteScanned)
				}
			}
		}
	}
}

// TestGridBoundaryPoints: points placed on exact multiples of r — every
// pair distance lands exactly on a cell boundary and many exactly on the
// radius — must bucket and join without losing or inventing neighbours.
func TestGridBoundaryPoints(t *testing.T) {
	const r = 0.125 // exactly representable so k·r stays on the boundary
	var pts []object.Point
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			pts = append(pts, object.Point{float64(i) * r, float64(j) * r})
		}
	}
	flat, err := object.Flatten(pts, object.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(flat, r)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(2)
	for id := range pts {
		for _, rq := range []float64{r / 2, r, 2 * r} {
			got := byID(g.AppendRange(nil, flat.Row(id), rq, id, nil, s))
			want := brute(flat, id, rq)
			if !equalNeighbors(got, want) {
				t.Fatalf("id=%d rq=%g: grid %v want %v", id, rq, got, want)
			}
		}
	}
	// At rq = r every lattice point must see its 4-neighbourhood (the
	// diagonal at r·√2 is outside): a direct sanity check that boundary
	// distances are kept, not just brute-force agreement.
	centre := 3*8 + 3
	if got := g.AppendRange(nil, flat.Row(centre), r, centre, nil, s); len(got) != 4 {
		t.Fatalf("lattice centre at rq=r has %d neighbours, want 4", len(got))
	}
}

// TestGridAppendRangeOfPoint: queries around arbitrary points, including
// points outside the bounding box, must match brute force.
func TestGridAppendRangeOfPoint(t *testing.T) {
	flat := randomFlat(t, 300, 3, object.Euclidean{}, 7)
	g, err := Build(flat, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(3)
	queries := [][]float64{
		{0.5, 0.5, 0.5},
		{-0.3, 0.5, 0.2},  // below the box
		{1.4, 1.4, 1.4},   // above the box
		{0.5, -2.0, 0.5},  // far outside
		{0.25, 0.25, 0.0}, // on the boundary
	}
	for _, q := range queries {
		for _, rq := range []float64{0.05, 0.1, 0.6} {
			got := byID(g.AppendRange(nil, q, rq, -1, nil, s))
			want := flat.AppendRange(nil, q, rq, -1)
			if !equalNeighbors(got, want) {
				t.Fatalf("q=%v rq=%g: grid %v want %v", q, rq, got, want)
			}
		}
	}
}

// TestJoinMatchesBruteForce: every CSR row must equal the brute-force
// neighbourhood at the join radius, for one and several workers.
func TestJoinMatchesBruteForce(t *testing.T) {
	for _, dim := range []int{1, 2, 4} {
		flat := randomFlat(t, 250, dim, object.Euclidean{}, int64(20+dim))
		const r = 0.15
		g, err := Build(flat, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			csr, examined, err := Join(g, r, workers)
			if err != nil {
				t.Fatal(err)
			}
			if examined == 0 {
				t.Fatalf("dim=%d workers=%d: join examined nothing", dim, workers)
			}
			for id := 0; id < flat.Len(); id++ {
				if !equalNeighbors(csr.Row(id), brute(flat, id, r)) {
					t.Fatalf("dim=%d workers=%d id=%d: row %v want %v",
						dim, workers, id, csr.Row(id), brute(flat, id, r))
				}
			}
		}
	}
}

// TestJoinRadiusReuse: a grid bucketed for r must serve the join at
// r' < r without re-bucketing (Covers reports it) and produce a CSR
// identical to a from-scratch grid at r'; r' > r must demand
// re-bucketing, after which the CSR again matches.
func TestJoinRadiusReuse(t *testing.T) {
	flat := randomFlat(t, 400, 2, object.Euclidean{}, 33)
	const r = 0.12
	g, err := Build(flat, r)
	if err != nil {
		t.Fatal(err)
	}

	equalCSR := func(a, b *CSR) bool {
		if len(a.Offsets) != len(b.Offsets) || len(a.Nbrs) != len(b.Nbrs) {
			return false
		}
		for i := range a.Offsets {
			if a.Offsets[i] != b.Offsets[i] {
				return false
			}
		}
		return equalNeighbors(a.Nbrs, b.Nbrs)
	}

	// r/2: reuse the existing occupancy.
	if !g.Covers(r / 2) {
		t.Fatal("grid must cover r/2 without re-bucketing")
	}
	reused, _, err := Join(g, r/2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Build(flat, r/2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := Join(fine, r/2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !equalCSR(reused, fresh) {
		t.Fatal("reused-grid join at r/2 differs from a from-scratch build")
	}

	// 2r: the fine grid cannot serve it; a re-bucketed one can.
	if g.Covers(2 * r) {
		t.Fatal("grid must not claim to cover 2r")
	}
	if _, _, err := Join(g, 2*r, 1); err == nil {
		t.Fatal("join beyond the cell side must be rejected")
	}
	coarse, err := Build(flat, 2*r)
	if err != nil {
		t.Fatal(err)
	}
	joined, _, err := Join(coarse, 2*r, 2)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < flat.Len(); id++ {
		if !equalNeighbors(joined.Row(id), brute(flat, id, 2*r)) {
			t.Fatalf("id=%d: re-bucketed join row differs from brute force", id)
		}
	}
}

// TestGridRejects: unsupported metrics, invalid radii and empty inputs
// must fail loudly.
func TestGridRejects(t *testing.T) {
	flatHam, err := object.Flatten([]object.Point{{0, 1}, {1, 0}}, object.Hamming{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(flatHam, 1); err == nil {
		t.Fatal("Hamming metric accepted; its distance does not dominate coordinate gaps")
	}
	flat := randomFlat(t, 10, 2, object.Euclidean{}, 1)
	for _, r := range []float64{-1} {
		if _, err := Build(flat, r); err == nil {
			t.Fatalf("radius %g accepted", r)
		}
	}
	if _, err := Build(nil, 0.1); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

// TestGridDuplicatesAndZeroRadius: co-located points share a cell at any
// cell side, so an r = 0 grid still finds exact duplicates.
func TestGridDuplicatesAndZeroRadius(t *testing.T) {
	pts := []object.Point{{0.5, 0.5}, {0.5, 0.5}, {0.9, 0.1}, {0.5, 0.5}}
	flat, err := object.Flatten(pts, object.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(flat, 0)
	if err != nil {
		t.Fatal(err)
	}
	csr, _, err := Join(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []object.Neighbor{{ID: 1, Dist: 0}, {ID: 3, Dist: 0}}
	if !equalNeighbors(csr.Row(0), want) {
		t.Fatalf("duplicate row %v, want %v", csr.Row(0), want)
	}
	if csr.Degree(2) != 0 {
		t.Fatalf("isolated point has degree %d", csr.Degree(2))
	}
}

// TestCSRValidate: structural lies in a deserialised adjacency must be
// rejected by both checks. Validate accepts id-ordered rows only (the
// live adjacency's order). ValidateByDist keeps (distance, id)-ordered
// rows, sorts id-ordered ones into that order, refuses rows in neither
// order, and finds a neighbour repeated at a larger distance although
// the row stays (distance, id)-ascending.
func TestCSRValidate(t *testing.T) {
	const r = 0.12
	flat := randomFlat(t, 180, 2, object.Euclidean{}, 78)
	n := flat.Len()
	g, err := Build(flat, r)
	if err != nil {
		t.Fatal(err)
	}
	byID, _, err := Join(g, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	byDist, _, err := JoinByDist(g, r, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	clone := func(c *CSR) *CSR {
		return &CSR{
			Offsets: slices.Clone(c.Offsets),
			Nbrs:    slices.Clone(c.Nbrs),
		}
	}
	if err := byID.Validate(n, r); err != nil {
		t.Fatalf("genuine id-ordered CSR rejected: %v", err)
	}
	if err := byDist.Validate(n, r); err == nil {
		t.Fatal("Validate accepted (distance, id)-ordered rows")
	}
	for name, c := range map[string]*CSR{"id-ordered": clone(byID), "distance-ordered": clone(byDist)} {
		if err := c.ValidateByDist(n, r); err != nil {
			t.Fatalf("%s CSR rejected by ValidateByDist: %v", name, err)
		}
		if !slices.Equal(c.Offsets, byDist.Offsets) || !slices.Equal(c.Nbrs, byDist.Nbrs) {
			t.Fatalf("%s CSR after ValidateByDist differs from the ByDist join", name)
		}
	}

	// A row whose id-descending form is in neither order, and one of
	// degree >= 2 whose neighbours all sit below r.
	mixed, deep := -1, -1
	var unordered []object.Neighbor
	for id := 0; id < n; id++ {
		row := byID.Row(id)
		if mixed < 0 && len(row) >= 2 {
			rev := slices.Clone(row)
			slices.Reverse(rev)
			if !ascending(rev, true) {
				mixed, unordered = id, rev
			}
		}
		if deep < 0 && len(row) >= 2 && byDist.Row(id)[len(row)-1].Dist < r {
			deep = id
		}
	}
	if mixed < 0 || deep < 0 {
		t.Skip("degenerate workload: no row to tamper with")
	}
	for _, base := range []struct {
		name  string
		csr   *CSR
		check func(*CSR) error
	}{
		{"Validate", byID, func(c *CSR) error { return c.Validate(n, r) }},
		{"ValidateByDist", byDist, func(c *CSR) error { return c.ValidateByDist(n, r) }},
	} {
		first := int(base.csr.Offsets[deep])
		cases := []struct {
			name   string
			mutate func(*CSR)
		}{
			{"short offsets", func(c *CSR) { c.Offsets = c.Offsets[:len(c.Offsets)-1] }},
			{"offsets overrun", func(c *CSR) { c.Offsets[len(c.Offsets)-1]++ }},
			{"id out of range", func(c *CSR) { c.Nbrs[first].ID = n }},
			{"negative id", func(c *CSR) { c.Nbrs[first].ID = -1 }},
			{"self loop", func(c *CSR) { c.Nbrs[first].ID = deep }},
			{"distance beyond radius", func(c *CSR) { c.Nbrs[first].Dist = 1e9 }},
			{"NaN distance", func(c *CSR) { c.Nbrs[first].Dist = math.NaN() }},
			{"neither order", func(c *CSR) { copy(c.Row(mixed), unordered) }},
		}
		for _, tc := range cases {
			c := clone(base.csr)
			tc.mutate(c)
			if err := base.check(c); err == nil {
				t.Fatalf("%s: %s: accepted", base.name, tc.name)
			}
		}
		// Cosine and dot-product distances between parallel vectors
		// round a few ulps below zero, so a negative distance is not
		// corruption.
		c := clone(base.csr)
		c.Nbrs[first].Dist = -0x1p-52
		if err := base.check(c); err != nil {
			t.Fatalf("%s: negative distance rejected: %v", base.name, err)
		}
	}

	// The last entry of a (distance, id)-ordered row names the first
	// neighbour again, at r: the row stays (distance, id)-ascending, so
	// only the mark array can see the repeat.
	c := clone(byDist)
	row := c.Row(deep)
	row[len(row)-1] = object.Neighbor{ID: row[0].ID, Dist: r}
	if !ascending(row, true) {
		t.Fatal("tampered row is not (distance, id)-ascending")
	}
	if err := c.ValidateByDist(n, r); err == nil {
		t.Fatal("ValidateByDist accepted a neighbour listed twice")
	}
}

// eachCell is the per-cell reference walk of the scanned range: the
// odometer over every dimension, calling fn once per cell in flattened
// order, as the scans did before they walked runs of cells.
func eachCell(g *Grid, s *Scratch, q []float64, rq float64, fn func(c int32)) {
	c, _ := g.setup(s, q, rq)
	for ; c >= 0; c = ringNext(s.cur, s.lo, s.hi, g.stride, c) {
		fn(c)
	}
}

// cellScan is the per-cell, per-pair reference of AppendRange and
// AppendRangeWhite (white nil for the former): every member of every
// cell in flattened order, except exclude and ids white clears, is
// charged and kept when Finish(Raw(row, q)) passes the RawThreshold
// protocol.
func cellScan(g *Grid, q []float64, rq float64, exclude int, white *bitset.Set) ([]object.Neighbor, int64) {
	k := g.flat.Kernel()
	rawR := k.RawThreshold(rq)
	var out []object.Neighbor
	var examined int64
	eachCell(g, NewScratch(len(q)), q, rq, func(c int32) {
		for _, id32 := range g.ids[g.start[c]:g.start[c+1]] {
			id := int(id32)
			if id == exclude || (white != nil && !white.Test(id)) {
				continue
			}
			examined++
			if raw := k.Raw(g.flat.Row(id), q); raw <= rawR {
				if d := k.Finish(raw); d <= rq {
					out = append(out, object.Neighbor{ID: id, Dist: d})
				}
			}
		}
	})
	return out, examined
}

// sameBits reports whether two neighbour lists hold the same ids in the
// same order with bit-identical distances.
func sameBits(a, b []object.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// TestRunScanMatchesCellScan pins the run walk of AppendRange and
// AppendRangeWhite against the per-cell reference: the same ids in the
// same order, bit-identical distances and the same examined charge, in
// 1–4 dimensions, for radii from 0 to past the directory, queries that
// are rows, copies of rows and points outside the bounding box, and
// exclude set to the query row, another id and -1.
func TestRunScanMatchesCellScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for dim := 1; dim <= 4; dim++ {
		for _, m := range []object.Metric{object.Euclidean{}, object.Manhattan{}, object.Chebyshev{}} {
			n := 150
			flat := randomFlat(t, n, dim, m, int64(300+dim))
			g, err := Build(flat, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			s := NewScratch(dim)
			var white bitset.Set
			white.Reset(n)
			for id := 0; id < n; id++ {
				if rng.Intn(3) > 0 {
					white.Set(id)
				}
			}
			for trial := 0; trial < 24; trial++ {
				id := rng.Intn(n)
				q := flat.Row(id)
				switch trial % 4 {
				case 1: // a copy of the row: not the row's storage
					q = append([]float64(nil), q...)
				case 2: // outside the bounding box
					q = make([]float64, dim)
					for j := range q {
						q[j] = -0.5 + 2*rng.Float64()
					}
					q[rng.Intn(dim)] = 1.5
				}
				// An exact pair distance puts a candidate at exactly rq.
				atR := m.Dist(object.Point(q), object.Point(flat.Row(rng.Intn(n))))
				for _, rq := range []float64{0, 0.01, 0.05, atR, 0.3, 4} {
					for _, exclude := range []int{id, rng.Intn(n), -1} {
						var examined int64
						got := g.AppendRange(nil, q, rq, exclude, &examined, s)
						want, wantExamined := cellScan(g, q, rq, exclude, nil)
						if !sameBits(got, want) || examined != wantExamined {
							t.Fatalf("%s dim=%d rq=%g exclude=%d: %v examined %d, want %v examined %d", m.Name(), dim, rq, exclude, got, examined, want, wantExamined)
						}
						examined = 0
						got = g.AppendRangeWhite(nil, q, rq, exclude, &white, &examined, s)
						want, wantExamined = cellScan(g, q, rq, exclude, &white)
						if !sameBits(got, want) || examined != wantExamined {
							t.Fatalf("%s dim=%d rq=%g exclude=%d white: %v examined %d, want %v examined %d", m.Name(), dim, rq, exclude, got, examined, want, wantExamined)
						}
					}
				}
			}
		}
	}
}

// ringCandidates counts the candidates the unclipped scan examined: the
// members, except exclude and the ids white clears (white nil keeps
// every id), of the centre cell ± (⌊rq/cell⌋+1) in every dimension,
// clamped to the directory. The examined charge of the clipped scan
// must never exceed it.
func ringCandidates(g *Grid, q []float64, rq float64, exclude int, white *bitset.Set) int64 {
	maxND := slices.Max(g.nd)
	reach := maxND
	if f := rq / g.cell; f < float64(maxND-1) {
		reach = int32(f) + 1
	}
	var count int64
	var walk func(i int, c int32)
	walk = func(i int, c int32) {
		if i == len(q) {
			for _, id := range g.ids[g.start[c]:g.start[c+1]] {
				if int(id) != exclude && (white == nil || white.Test(int(id))) {
					count++
				}
			}
			return
		}
		centre := g.coordCell(i, q[i])
		for k := max(centre-reach, 0); k <= min(centre+reach, g.nd[i]-1); k++ {
			walk(i+1, c+k*g.stride[i])
		}
	}
	walk(0, 0)
	return count
}

// TestGridRangeClipMatchesFlat: the scans clipped to the query's box
// find exactly what the flat scan finds — the same ids with
// bit-identical distances — and examine no more candidates than the
// unclipped ring did. The datasets put a third of their coordinates on
// cell boundaries, the queries are rows, copies of rows, points on cell
// boundaries and points outside the bounding box, and the radii sit at
// whole cells and one ulp either side of them, from 0 to wider than the
// whole directory; under Euclidean, Manhattan and Chebyshev distance,
// in 1–7 dimensions, with coordinates offset by 0 and by 1e6.
func TestGridRangeClipMatchesFlat(t *testing.T) {
	const n, r = 120, 0.05
	rng := rand.New(rand.NewSource(41))
	for dim := 1; dim <= 7; dim++ {
		for _, m := range []object.Metric{object.Euclidean{}, object.Manhattan{}, object.Chebyshev{}} {
			for _, offset := range []float64{0, 1e6} {
				// Points 0 and 1 pin the bounding box to [offset,
				// offset+1] in every dimension, so the geometry is
				// known before the boundary coordinates are placed.
				pts := make([]object.Point, n)
				for i := range pts {
					p := make(object.Point, dim)
					for j := range p {
						switch i {
						case 0:
							p[j] = offset
						case 1:
							p[j] = offset + 1
						default:
							p[j] = offset + rng.Float64()
						}
					}
					pts[i] = p
				}
				build := func() (*object.FlatDataset, *Grid) {
					flat, err := object.Flatten(pts, m)
					if err != nil {
						t.Fatal(err)
					}
					g, err := Build(flat, r)
					if err != nil {
						t.Fatal(err)
					}
					return flat, g
				}
				_, g := build()
				cell := g.cell
				for i := 2; i < n; i++ {
					for j := range pts[i] {
						if rng.Intn(3) == 0 {
							pts[i][j] = min(g.min[j]+float64(rng.Int31n(g.nd[j]))*cell, offset+1)
						}
					}
				}
				flat, g := build()
				if g.cell != cell {
					t.Fatalf("dim=%d: cell side moved from %g to %g", dim, cell, g.cell)
				}
				var white bitset.Set
				white.Reset(n)
				for id := 0; id < n; id++ {
					if rng.Intn(3) > 0 {
						white.Set(id)
					}
				}
				radii := []float64{0, 0.03, 10}
				for k := 1; k <= 2; k++ {
					at := float64(k) * cell
					radii = append(radii, math.Nextafter(at, 0), at, math.Nextafter(at, math.Inf(1)))
				}
				s := NewScratch(dim)
				for trial := 0; trial < 16; trial++ {
					id := rng.Intn(n)
					q, exclude := flat.Row(id), id
					switch trial % 4 {
					case 1: // a copy of a row
						q, exclude = slices.Clone(q), -1
					case 2: // on cell boundaries
						q, exclude = make([]float64, dim), rng.Intn(n)
						for j := range q {
							q[j] = g.min[j] + float64(rng.Int31n(g.nd[j]+1))*cell
						}
					case 3: // outside the bounding box
						q, exclude = make([]float64, dim), -1
						for j := range q {
							q[j] = offset - 1 + 3*rng.Float64()
						}
						q[rng.Intn(dim)] = offset + 1.2 + rng.Float64()
					}
					for _, rq := range radii {
						name := func(scan string) string {
							return fmt.Sprintf("%s dim=%d offset=%g trial=%d rq=%v %s", m.Name(), dim, offset, trial, rq, scan)
						}
						var examined int64
						got := g.AppendRange(nil, q, rq, exclude, &examined, s)
						want := flat.AppendRange(nil, q, rq, exclude)
						if !sameBits(byID(got), want) {
							t.Fatalf("%s: %v, flat scan %v", name("AppendRange"), byID(got), want)
						}
						if ring := ringCandidates(g, q, rq, exclude, nil); examined > ring {
							t.Fatalf("%s: examined %d, ring held %d", name("AppendRange"), examined, ring)
						}
						examined = 0
						var flatExamined int64
						got = g.AppendRangeWhite(nil, q, rq, exclude, &white, &examined, s)
						want = flat.AppendRangeWhite(nil, q, rq, exclude, &white, &flatExamined)
						if !sameBits(byID(got), want) {
							t.Fatalf("%s: %v, flat scan %v", name("AppendRangeWhite"), byID(got), want)
						}
						if ring := ringCandidates(g, q, rq, exclude, &white); examined > ring {
							t.Fatalf("%s: examined %d, ring held %d", name("AppendRangeWhite"), examined, ring)
						}
					}
				}
			}
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

func gridEngine(t *testing.T, pts []object.Point, m object.Metric, r float64) *GridEngine {
	t.Helper()
	e, err := BuildGridEngine(pts, m, r)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestGridEngineMatchesFlat: the cell-range scan must agree with brute
// force at the bucketing radius, below it and above it (multi-ring
// scans), for neighbours of objects and of arbitrary points.
func TestGridEngineMatchesFlat(t *testing.T) {
	pts := randomPoints(400, 2, 120)
	m := object.Euclidean{}
	flat := flatEngine(t, pts, m)
	e := gridEngine(t, pts, m, 0.1)
	for _, r := range []float64{0.04, 0.1, 0.3} {
		for _, id := range []int{0, 177, 399} {
			got := sortNeighbors(e.Neighbors(id, r))
			want := sortNeighbors(flat.Neighbors(id, r))
			if len(got) != len(want) {
				t.Fatalf("r=%g id=%d: %d neighbours, want %d", r, id, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("r=%g id=%d: neighbour %d is %+v, want %+v", r, id, i, got[i], want[i])
				}
			}
		}
		q := object.Point{0.41, 0.63}
		got := e.NeighborsOfPoint(q, r)
		want := sortNeighbors(flat.NeighborsOfPoint(q, r))
		if len(got) != len(want) {
			t.Fatalf("point query r=%g: %d neighbours, want %d", r, len(got), len(want))
		}
	}
}

// TestGridEngineEnsureRadius: radii covered by the current cell side
// must not re-bucket; larger ones must, preserving correctness and any
// active coverage state.
func TestGridEngineEnsureRadius(t *testing.T) {
	pts := randomPoints(300, 2, 121)
	m := object.Euclidean{}
	e := gridEngine(t, pts, m, 0.1)
	before := e.Grid()
	if err := e.EnsureRadius(0.05); err != nil {
		t.Fatal(err)
	}
	if e.Grid() != before {
		t.Fatal("EnsureRadius re-bucketed for a halved radius")
	}
	// A radius far below the cell side must re-bucket finer: keeping
	// 0.1-side cells for r=0.01 queries would scan ~100x the candidates.
	if err := e.EnsureRadius(0.01); err != nil {
		t.Fatal(err)
	}
	if e.Grid() == before {
		t.Fatal("EnsureRadius kept cells far coarser than the radius")
	}
	if err := e.EnsureRadius(0.1); err != nil { // restore for the checks below
		t.Fatal(err)
	}
	e.StartCoverage(nil)
	for id := 0; id < len(pts); id += 5 {
		e.Cover(id)
	}
	if err := e.EnsureRadius(0.4); err != nil {
		t.Fatal(err)
	}
	if e.Grid() == before {
		t.Fatal("EnsureRadius kept a grid that cannot cover the radius in one ring")
	}
	// Coverage state must survive the re-bucket: the white-pruned query
	// on the new grid agrees with a brute-force white filter.
	for _, id := range []int{1, 151} {
		got := map[int]bool{}
		for _, nb := range e.NeighborsWhite(id, 0.4) {
			got[nb.ID] = true
		}
		for j := range pts {
			want := j != id && e.IsWhite(j) && m.Dist(pts[id], pts[j]) <= 0.4
			if got[j] != want {
				t.Fatalf("id=%d: neighbour %d reported=%v want %v", id, j, got[j], want)
			}
		}
	}
}

// TestGridEngineGreedyMatchesFlat: the full greedy selection must be
// identical to the flat engine's, pruned or not.
func TestGridEngineGreedyMatchesFlat(t *testing.T) {
	pts := randomPoints(500, 2, 122)
	m := object.Euclidean{}
	want := GreedyDisC(flatEngine(t, pts, m), 0.08, GreedyOptions{Update: UpdateGrey}).SortedIDs()
	e := gridEngine(t, pts, m, 0.08)
	for _, pruned := range []bool{false, true} {
		s := GreedyDisC(e, 0.08, GreedyOptions{Update: UpdateGrey, Pruned: pruned})
		if !equalInts(want, s.SortedIDs()) {
			t.Fatalf("pruned=%v: solution differs from flat", pruned)
		}
	}
}

// TestGridEngineRejectsHamming: the grid requires a metric that
// dominates per-coordinate differences; Hamming does not.
func TestGridEngineRejectsHamming(t *testing.T) {
	pts := []object.Point{{0, 1}, {1, 0}}
	if _, err := BuildGridEngine(pts, object.Hamming{}, 1); err == nil {
		t.Fatal("Hamming metric accepted")
	}
}

// TestGraphEngineJoinPathsAgree: the grid ε-join fast path and the
// flat all-pairs join path must produce identical CSR adjacency — same
// offsets, same neighbours, bit-identical distances. The grid path is
// the default for Lp metrics, so this pins the flat path against drift
// too.
func TestGraphEngineJoinPathsAgree(t *testing.T) {
	pts := randomPoints(350, 3, 123)
	m := object.Manhattan{}
	flat, err := object.Flatten(pts, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{0.05, 0.25} {
		viaGrid := graphEngine(t, pts, m, r, 3)
		if !viaGrid.GridJoined() {
			t.Fatal("Lp metric did not take the grid join path")
		}
		viaFlat, err := buildGraph(flat, nil, nil, r, 3, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(viaFlat.csr.Nbrs) != len(viaGrid.csr.Nbrs) {
			t.Fatalf("r=%g: flat join has %d entries, grid join %d", r, len(viaFlat.csr.Nbrs), len(viaGrid.csr.Nbrs))
		}
		for id := range pts {
			a, b := viaFlat.csr.Row(id), viaGrid.csr.Row(id)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("r=%g id=%d entry %d: flat %+v grid %+v", r, id, i, a[i], b[i])
				}
			}
		}
	}
}

// TestGraphEngineHammingPath: metrics the grid cannot serve (Hamming)
// take the flat join path at low dimensionality; its materialised
// graph, fallback queries, white-filtered fallback scans and greedy
// selections must all match the flat engine.
func TestGraphEngineHammingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	pts := make([]object.Point, 300)
	for i := range pts {
		pts[i] = object.Point{float64(rng.Intn(4)), float64(rng.Intn(4)), float64(rng.Intn(4)), float64(rng.Intn(4))}
	}
	m := object.Hamming{}
	g := graphEngine(t, pts, m, 2, 3)
	if g.GridJoined() {
		t.Fatal("Hamming did not take the flat join path")
	}
	flat := flatEngine(t, pts, m)
	for _, r := range []float64{1, 2, 3} { // below, at and beyond the build radius
		for _, id := range []int{0, 150, 299} {
			got := sortNeighbors(g.Neighbors(id, r))
			want := sortNeighbors(flat.Neighbors(id, r))
			if len(got) != len(want) {
				t.Fatalf("r=%g id=%d: %d neighbours, want %d", r, id, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("r=%g id=%d neighbour %d: %+v want %+v", r, id, i, got[i], want[i])
				}
			}
		}
	}
	gs := GreedyDisC(g, 2, GreedyOptions{Update: UpdateGrey, Pruned: true}).SortedIDs()
	fs := GreedyDisC(flat, 2, GreedyOptions{Update: UpdateGrey, Pruned: true}).SortedIDs()
	if !equalInts(gs, fs) {
		t.Fatal("flat-join-path greedy differs from flat")
	}
	// The white-filtered fallback beyond the build radius must skip
	// exactly the covered objects.
	g.StartCoverage(nil)
	for id := 0; id < len(pts); id += 4 {
		g.Cover(id)
	}
	for _, id := range []int{1, 99} {
		got := map[int]bool{}
		for _, nb := range g.NeighborsWhite(id, 3) {
			got[nb.ID] = true
		}
		for j := range pts {
			want := j != id && g.IsWhite(j) && m.Dist(pts[id], pts[j]) <= 3
			if got[j] != want {
				t.Fatalf("id=%d: neighbour %d reported=%v want %v", id, j, got[j], want)
			}
		}
	}
}

// TestGraphEngineRebuildReusesGrid: zooming in (smaller radius) must
// re-join within the existing grid occupancy, zooming out must
// re-bucket — and both must match a from-scratch build exactly.
func TestGraphEngineRebuildReusesGrid(t *testing.T) {
	pts := randomPoints(400, 2, 124)
	m := object.Euclidean{}
	base := graphEngine(t, pts, m, 0.1, 2)
	for _, r := range []float64{0.05, 0.2, 0.01} { // r/2, 2r, far finer
		rebuilt, err := base.Rebuild(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r == 0.05 && rebuilt.hash != base.hash {
			t.Fatalf("r=%g: rebuild re-bucketed although the occupancy suits it", r)
		}
		// Both a larger radius (one ring cannot cover it) and a far
		// smaller one (the ring would hold mostly non-neighbours) must
		// re-bucket.
		if r != 0.05 && rebuilt.hash == base.hash {
			t.Fatalf("r=%g: rebuild kept a grid whose cell side does not suit it", r)
		}
		fresh := graphEngine(t, pts, m, r, 2)
		for id := range pts {
			a, b := rebuilt.Neighbors(id, r), fresh.Neighbors(id, r)
			if len(a) != len(b) {
				t.Fatalf("r=%g id=%d: rebuilt %d neighbours, fresh %d", r, id, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("r=%g id=%d neighbour %d: rebuilt %+v, fresh %+v", r, id, i, a[i], b[i])
				}
			}
		}
	}
}

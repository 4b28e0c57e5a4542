package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

func graphEngine(t *testing.T, pts []object.Point, m object.Metric, r float64, workers int) *ParallelGraphEngine {
	t.Helper()
	g, err := BuildParallelGraphEngine(pts, m, r, workers)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGraphEngineAdjacencyMatchesFlat: the materialised graph must agree
// with brute force at the ceiling, below it (row prefix) and above it
// (grid ring-scan fallback), for every worker count. The engine answers
// in (distance, id) or cell order, so lists are compared by id.
func TestGraphEngineAdjacencyMatchesFlat(t *testing.T) {
	pts := randomPoints(400, 2, 90)
	m := object.Euclidean{}
	flat := flatEngine(t, pts, m)
	for _, workers := range []int{1, 3, 8, 64} {
		g := graphEngine(t, pts, m, 0.1, workers)
		for _, r := range []float64{0.04, 0.1, 0.25} {
			for _, id := range []int{0, 199, 399} {
				got := sortNeighbors(g.NeighborsAppend(nil, id, r, new(Run)))
				want := sortNeighbors(flat.NeighborsAppend(nil, id, r, new(Run)))
				if len(got) != len(want) {
					t.Fatalf("workers=%d r=%g id=%d: %d neighbours, want %d", workers, r, id, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d r=%g id=%d: neighbour %d is %+v, want %+v", workers, r, id, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGraphEngineInitialCounts: degrees must equal brute-force
// neighbourhood sizes and be reported through CountingEngine.
func TestGraphEngineInitialCounts(t *testing.T) {
	pts := randomPoints(300, 3, 91)
	m := object.Manhattan{}
	g := graphEngine(t, pts, m, 0.3, 0)
	counts, r, ok := g.InitialCounts()
	if !ok || r != 0.3 {
		t.Fatalf("InitialCounts: ok=%v r=%g", ok, r)
	}
	for id := range pts {
		want := 0
		for j := range pts {
			if j != id && m.Dist(pts[id], pts[j]) <= 0.3 {
				want++
			}
		}
		if counts[id] != want {
			t.Fatalf("id=%d: count %d, want %d", id, counts[id], want)
		}
	}
}

// TestGraphEngineNeighborsWhite: the pruned lookup must keep exactly the
// white neighbours, both on the graph path and on the fallback path.
func TestGraphEngineNeighborsWhite(t *testing.T) {
	pts := randomPoints(250, 2, 92)
	m := object.Euclidean{}
	g := graphEngine(t, pts, m, 0.15, 4)
	run := coveringRun(g)
	for id := 0; id < len(pts); id += 3 {
		run.cover(id)
	}
	for _, r := range []float64{0.15, 0.4} {
		for _, id := range []int{1, 100} {
			got := map[int]bool{}
			for _, nb := range g.NeighborsWhiteAppend(nil, id, r, run) {
				got[nb.ID] = true
			}
			for j := range pts {
				want := j != id && run.white.Test(j) && m.Dist(pts[id], pts[j]) <= r
				if got[j] != want {
					t.Fatalf("r=%g id=%d: neighbour %d reported=%v want %v", r, id, j, got[j], want)
				}
			}
		}
	}
}

// TestGraphEngineGreedyMatchesFlat: the full greedy algorithm must return
// the flat engine's solution regardless of parallelism, with and without
// pruning — and with dramatically fewer "accesses" than queries cost on
// the flat engine.
func TestGraphEngineGreedyMatchesFlat(t *testing.T) {
	pts := randomPoints(500, 2, 93)
	m := object.Euclidean{}
	flat := flatEngine(t, pts, m)
	want := GreedyDisC(flat, 0.08, GreedyOptions{Update: UpdateGrey}).SortedIDs()
	for _, workers := range []int{1, 4} {
		g := graphEngine(t, pts, m, 0.08, workers)
		for _, pruned := range []bool{false, true} {
			s := GreedyDisC(g, 0.08, GreedyOptions{Update: UpdateGrey, Pruned: pruned})
			if !equalInts(want, s.SortedIDs()) {
				t.Fatalf("workers=%d pruned=%v: solution differs from flat", workers, pruned)
			}
		}
	}
}

// TestGraphEngineRebuild: rebuilding at a new radius over the shared
// substrate must be indistinguishable from a fresh build at that radius.
func TestGraphEngineRebuild(t *testing.T) {
	pts := randomPoints(300, 2, 96)
	m := object.Euclidean{}
	g := graphEngine(t, pts, m, 0.05, 4)
	rebuilt, err := g.Rebuild(0.12, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := graphEngine(t, pts, m, 0.12, 4)
	if rebuilt.Radius() != 0.12 {
		t.Fatalf("rebuilt radius %g", rebuilt.Radius())
	}
	for id := range pts {
		a, b := rebuilt.NeighborsAppend(nil, id, 0.12, new(Run)), fresh.NeighborsAppend(nil, id, 0.12, new(Run))
		if len(a) != len(b) {
			t.Fatalf("id=%d: rebuilt %d neighbours, fresh %d", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("id=%d neighbour %d: rebuilt %+v, fresh %+v", id, i, a[i], b[i])
			}
		}
	}
}

// TestCeilingViewsMatchJoin: a graph joined at the ceiling C serves
// every r ≤ C as a row-prefix view; each view must be the graph a fresh
// join at r builds over the same substrate — rows compared in the
// (distance, id) order both serve, entry for entry, distances bit for
// bit — with the same component-mode selection. Every built-in
// metric, both join substrates (the grid and the flat join, forced for
// the Lp metrics too) and both precisions, at r ∈ {C, 0.75C, C/2, 0}.
func TestCeilingViewsMatchJoin(t *testing.T) {
	cases := []struct {
		m   object.Metric
		dim int
		c   float64
	}{
		{object.Euclidean{}, 2, 0.12},
		{object.Manhattan{}, 3, 0.2},
		{object.Chebyshev{}, 2, 0.1},
		{object.Hamming{}, 6, 3},
		{object.Cosine{}, 4, 0.1},
		{object.DotProduct{}, 4, 0.3},
	}
	opts := GreedyOptions{Update: UpdateGrey, Pruned: true}
	for _, tc := range cases {
		pts := randomPoints(400, tc.dim, 131)
		if tc.m.Name() == "hamming" {
			for _, p := range pts {
				for j := range p {
					p[j] = float64(int(p[j] * 3))
				}
			}
		}
		for _, f32 := range []bool{false, true} {
			flatten := object.Flatten
			if f32 {
				flatten = object.Flatten32
			}
			flat, err := flatten(pts, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			substrates := []bool{true}
			if grid.Supports(tc.m) {
				substrates = append(substrates, false)
			}
			for _, flatsub := range substrates {
				ceil, err := buildGraph(flat, nil, nil, tc.c, 2, flatsub, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range []float64{tc.c, 0.75 * tc.c, tc.c / 2, 0} {
					name := fmt.Sprintf("%s f32=%v flatjoin=%v r=%g", tc.m.Name(), f32, flatsub, r)
					fresh, err := buildGraph(flat, nil, nil, r, 2, flatsub, 0)
					if err != nil {
						t.Fatal(err)
					}
					view, ok := ceil.AdjacencyCSR(r)
					if !ok {
						t.Fatalf("%s: no adjacency under the ceiling", name)
					}
					for id := range flat.Len() {
						if !slices.Equal(view.Row(id), fresh.csr.Row(id)) {
							t.Fatalf("%s: view row %d differs from a join at r, entry for entry", name, id)
						}
					}
					vs := GreedyDisCComponents(ceil, r, opts)
					fs := GreedyDisCComponents(fresh, r, opts)
					if !slices.Equal(vs.IDs, fs.IDs) {
						t.Fatalf("%s: component selection on the view differs from the join's", name)
					}
				}
			}
		}
	}
}

// TestGraphEngineBuildCost: construction reports its cost (like
// BuildTreeEngine), and a lookup charges its run, not the build.
func TestGraphEngineBuildCost(t *testing.T) {
	pts := randomPoints(200, 2, 94)
	g := graphEngine(t, pts, object.Euclidean{}, 0.1, 2)
	build := g.BuildCost()
	if build == 0 {
		t.Fatal("build charged nothing")
	}
	var run Run
	g.NeighborsAppend(nil, 0, 0.1, &run)
	if run.Accesses() == 0 {
		t.Fatal("graph lookup charged nothing")
	}
	if g.BuildCost() != build {
		t.Fatal("a lookup changed the build cost")
	}
}

// TestGraphEngineInvalidRadius: NaN/negative/infinite build radii are
// rejected.
func TestGraphEngineInvalidRadius(t *testing.T) {
	pts := randomPoints(10, 2, 95)
	for _, r := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := BuildParallelGraphEngine(pts, object.Euclidean{}, r, 2); err == nil {
			t.Fatalf("radius %g accepted", r)
		}
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
			got := sortNeighbors(g.NeighborsAppend(nil, id, r, new(Run)))
			want := sortNeighbors(flat.NeighborsAppend(nil, id, r, new(Run)))
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
	run := coveringRun(g)
	for id := 0; id < len(pts); id += 4 {
		run.cover(id)
	}
	for _, id := range []int{1, 99} {
		got := map[int]bool{}
		for _, nb := range g.NeighborsWhiteAppend(nil, id, 3, run) {
			got[nb.ID] = true
		}
		for j := range pts {
			want := j != id && run.white.Test(j) && m.Dist(pts[id], pts[j]) <= 3
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
			a, b := rebuilt.NeighborsAppend(nil, id, r, new(Run)), fresh.NeighborsAppend(nil, id, r, new(Run))
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

package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

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
// with brute force at the build radius, below it (filter path) and above
// it (grid ring-scan fallback), for every worker count.
func TestGraphEngineAdjacencyMatchesFlat(t *testing.T) {
	pts := randomPoints(400, 2, 90)
	m := object.Euclidean{}
	flat := flatEngine(t, pts, m)
	for _, workers := range []int{1, 3, 8, 64} {
		g := graphEngine(t, pts, m, 0.1, workers)
		for _, r := range []float64{0.04, 0.1, 0.25} {
			for _, id := range []int{0, 199, 399} {
				got := g.Neighbors(id, r)
				want := sortNeighbors(flat.Neighbors(id, r))
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
	g.StartCoverage(nil)
	for id := 0; id < len(pts); id += 3 {
		g.Cover(id)
	}
	for _, r := range []float64{0.15, 0.4} {
		for _, id := range []int{1, 100} {
			got := map[int]bool{}
			for _, nb := range g.NeighborsWhite(id, r) {
				got[nb.ID] = true
			}
			for j := range pts {
				want := j != id && g.IsWhite(j) && m.Dist(pts[id], pts[j]) <= r
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
		a, b := rebuilt.Neighbors(id, 0.12), fresh.Neighbors(id, 0.12)
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

// TestGraphEngineRebuildFiltersDown: a rebuild at a smaller radius that
// keeps the substrate filters the receiver's adjacency instead of
// joining; the result must be the engine a join at that radius over the
// same substrate builds — CSR entry for entry (distances bit for bit),
// scan order, degree counts and component numbering — on the grid
// substrate (three Lp metrics) and on the flat join (Hamming, cosine).
func TestGraphEngineRebuildFiltersDown(t *testing.T) {
	cases := []struct {
		m   object.Metric
		dim int
		r   float64
	}{
		{object.Euclidean{}, 2, 0.12},
		{object.Manhattan{}, 3, 0.2},
		{object.Chebyshev{}, 2, 0.1},
		{object.Hamming{}, 6, 3},
		{object.Cosine{}, 4, 0.1},
	}
	for _, tc := range cases {
		pts := randomPoints(500, tc.dim, 131)
		if tc.m.Name() == "hamming" {
			for _, p := range pts {
				for j := range p {
					p[j] = float64(int(p[j] * 3))
				}
			}
		}
		base := graphEngine(t, pts, tc.m, tc.r, 2)
		for _, r := range []float64{tc.r * 0.75, tc.r / 2} {
			filtered, err := base.Rebuild(r, 0)
			if err != nil {
				t.Fatal(err)
			}
			if filtered.hash != base.hash || filtered.Accesses() != int64(len(base.csr.Nbrs)) {
				t.Fatalf("%s r=%g: rebuild did not take the filter path", tc.m.Name(), r)
			}
			joined, err := buildGraph(base.flat, base.hash, base.scan, r, 2, base.hash == nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s r=%g", tc.m.Name(), r)
			if !slices.Equal(filtered.csr.Offsets, joined.csr.Offsets) || !slices.Equal(filtered.csr.Nbrs, joined.csr.Nbrs) {
				t.Fatalf("%s: filtered adjacency differs from the join's", name)
			}
			if !slices.Equal(filtered.ScanOrder(), joined.ScanOrder()) || !slices.Equal(filtered.counts, joined.counts) {
				t.Fatalf("%s: filtered scan order or degree counts differ from the join's", name)
			}
			fc, jc := filtered.Components(r), joined.Components(r)
			if fc.Count != jc.Count || !slices.Equal(fc.Label, jc.Label) {
				t.Fatalf("%s: filtered components differ from the join's", name)
			}
		}
	}
}

// TestGraphEngineBuildCostOnCounter: construction leaves its cost on the
// access counter (like BuildTreeEngine) and ResetAccesses clears it.
func TestGraphEngineBuildCostOnCounter(t *testing.T) {
	pts := randomPoints(200, 2, 94)
	g := graphEngine(t, pts, object.Euclidean{}, 0.1, 2)
	if g.Accesses() == 0 {
		t.Fatal("build charged nothing")
	}
	g.ResetAccesses()
	if g.Accesses() != 0 {
		t.Fatal("reset failed")
	}
	g.Neighbors(0, 0.1)
	if g.Accesses() == 0 {
		t.Fatal("graph lookup charged nothing")
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

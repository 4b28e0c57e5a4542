package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/object"
)

func baseSolution(t *testing.T, e Engine, r float64) *Solution {
	t.Helper()
	s := GreedyDisC(e, r, GreedyOptions{Update: UpdateGrey})
	if err := VerifySolution(e, s); err != nil {
		t.Fatalf("base solution invalid: %v", err)
	}
	return s
}

func TestZoomInProducesValidSuperset(t *testing.T) {
	pts := randomPoints(500, 2, 11)
	m := object.Euclidean{}
	for engName, e := range bothEngines(t, pts, m) {
		for _, greedy := range []bool{false, true} {
			prev := baseSolution(t, e, 0.1)
			zoomed, err := ZoomIn(e, prev, 0.05, greedy, false)
			if err != nil {
				t.Fatalf("%s greedy=%v: %v", engName, greedy, err)
			}
			if err := VerifySolution(e, zoomed); err != nil {
				t.Errorf("%s greedy=%v: invalid: %v", engName, greedy, err)
			}
			// Lemma 5(i): S^r ⊆ S^r'.
			for _, id := range prev.IDs {
				if !zoomed.Contains(id) {
					t.Errorf("%s greedy=%v: previous representative %d dropped", engName, greedy, id)
				}
			}
			if zoomed.Size() < prev.Size() {
				t.Errorf("%s greedy=%v: zoom-in shrank the solution", engName, greedy)
			}
		}
	}
}

func TestZoomInPrunedStillValid(t *testing.T) {
	pts := randomPoints(600, 2, 12)
	m := object.Euclidean{}
	e := treeEngine(t, pts, m)
	prev := baseSolution(t, e, 0.12)
	zoomed, err := ZoomIn(e, prev, 0.06, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySolution(e, zoomed); err != nil {
		t.Fatal(err)
	}
}

func TestZoomInAfterPrunedBaseRun(t *testing.T) {
	// A pruned base run's white-filtered queries miss closest-black
	// distances; ZoomIn derives them from the ids (the paper's
	// post-processing) and must still produce a valid solution.
	pts := randomPoints(600, 2, 13)
	m := object.Euclidean{}
	e := treeEngine(t, pts, m)
	prev := BasicDisC(e, 0.1, true)
	zoomed, err := ZoomIn(e, prev, 0.04, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySolution(e, zoomed); err != nil {
		t.Fatal(err)
	}
}

func TestZoomInRejectsBadArguments(t *testing.T) {
	pts := randomPoints(100, 2, 14)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	prev := baseSolution(t, e, 0.1)
	if _, err := ZoomIn(e, prev, 0.2, false, false); err == nil {
		t.Error("zoom-in with larger radius accepted")
	}
	if _, err := ZoomIn(e, prev, -0.1, false, false); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := ZoomIn(e, nil, 0.05, false, false); err == nil {
		t.Error("nil solution accepted")
	}
	for _, ids := range [][]int{{0, 0}, {len(pts)}, {-1}} {
		bad := &Solution{Radius: 0.1, IDs: ids}
		if _, err := ZoomIn(e, bad, 0.05, false, false); err == nil {
			t.Errorf("ids %v accepted", ids)
		}
		if err := VerifySolution(e, bad); err == nil {
			t.Errorf("VerifySolution accepted ids %v", ids)
		}
	}
}

func TestZoomOutProducesValidSolution(t *testing.T) {
	pts := randomPoints(500, 2, 15)
	m := object.Euclidean{}
	variants := []ZoomOutVariant{ZoomOutPlain, ZoomOutGreedyA, ZoomOutGreedyB, ZoomOutGreedyC}
	for engName, e := range bothEngines(t, pts, m) {
		prev := baseSolution(t, e, 0.05)
		for _, v := range variants {
			zoomed, err := ZoomOut(e, prev, 0.1, v)
			if err != nil {
				t.Fatalf("%s %v: %v", engName, v, err)
			}
			if err := VerifySolution(e, zoomed); err != nil {
				t.Errorf("%s %v: invalid: %v", engName, v, err)
			}
			if zoomed.Size() > prev.Size() {
				t.Errorf("%s %v: zoom-out grew the solution (%d -> %d)", engName, v, prev.Size(), zoomed.Size())
			}
		}
	}
}

// TestZoomOutRedKeyPassOne pins the first pass of variations (a) and
// (b) to a brute-force reading of Algorithm 3: among the reds still
// red, select the one with the most (a) or fewest (b) red neighbours
// within rNew, ties to the smaller id; it and its red neighbours then
// leave the red set. The zoomed solution's selection order must start
// with exactly that sequence, on the scan engine, the tree engine and
// the coverage graph above its ceiling (the grid fallback). The lattice
// case gives many reds the same key at every round, so the tie rule,
// not the keys alone, decides the order.
func TestZoomOutRedKeyPassOne(t *testing.T) {
	m := object.Euclidean{}
	check := func(name string, pts []object.Point, prev *Solution, e Engine, rNew float64) {
		t.Helper()
		for _, v := range []ZoomOutVariant{ZoomOutGreedyA, ZoomOutGreedyB} {
			want := redKeyReference(pts, m, prev.IDs, rNew, v == ZoomOutGreedyA)
			zoomed, err := ZoomOut(e, prev, rNew, v)
			if err != nil {
				t.Fatal(err)
			}
			if len(zoomed.IDs) < len(want) || !equalInts(zoomed.IDs[:len(want)], want) {
				t.Errorf("%s %v rNew=%g: pass one selected %v, want %v", name, v, rNew, zoomed.IDs[:min(len(want), len(zoomed.IDs))], want)
			}
		}
	}
	engines := func(pts []object.Point, ceiling float64) map[string]Engine {
		es := bothEngines(t, pts, m)
		g, err := BuildParallelGraphEngine(pts, m, ceiling, 0)
		if err != nil {
			t.Fatal(err)
		}
		es["graph"] = g
		return es
	}

	pts := randomPoints(600, 2, 17)
	for engName, e := range engines(pts, 0.03) {
		prev := baseSolution(t, e, 0.03)
		for _, rNew := range []float64{0.05, 0.09} {
			check(engName, pts, prev, e, rNew)
		}
	}

	// Tied keys: the reds are an 8×8 lattice at spacing 0.125 (exact in
	// binary), in a scrambled id order among scattered whites. At
	// rNew = 0.13 each red's red neighbours are its lattice neighbours,
	// so the 36 interior reds share the largest key 4.
	rng := rand.New(rand.NewPCG(19, 23))
	lattice := make([]object.Point, 0, 64)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			lattice = append(lattice, object.Point{0.125 * float64(i), 0.125 * float64(j)})
		}
	}
	pts = make([]object.Point, 0, 300)
	var reds []int
	for _, li := range rng.Perm(len(lattice)) {
		for rng.IntN(3) > 0 {
			pts = append(pts, object.Point{rng.Float64(), rng.Float64()})
		}
		reds = append(reds, len(pts))
		pts = append(pts, lattice[li])
	}
	prev := &Solution{Algorithm: "lattice", Radius: 0.1, IDs: reds}
	for engName, e := range engines(pts, 0.1) {
		check(engName+"/lattice", pts, prev, e, 0.13)
	}
}

// redKeyReference is the quadratic reference for zoomOutPassOneRedKey.
func redKeyReference(pts []object.Point, m object.Metric, prev []int, rNew float64, largest bool) []int {
	red := make(map[int]bool, len(prev))
	for _, id := range prev {
		red[id] = true
	}
	reds := append([]int(nil), prev...)
	slices.Sort(reds)
	redNeighbours := func(p int) int {
		k := 0
		for _, q := range reds {
			if q != p && red[q] && m.Dist(pts[p], pts[q]) <= rNew {
				k++
			}
		}
		return k
	}
	var sel []int
	for {
		best, bestKey := -1, 0
		for _, p := range reds {
			if !red[p] {
				continue
			}
			if k := redNeighbours(p); best == -1 || (largest && k > bestKey) || (!largest && k < bestKey) {
				best, bestKey = p, k
			}
		}
		if best == -1 {
			return sel
		}
		sel = append(sel, best)
		red[best] = false
		for _, q := range reds {
			if red[q] && m.Dist(pts[best], pts[q]) <= rNew {
				red[q] = false
			}
		}
	}
}

// zoomOutUnpruned is ZoomOut with an unpruned second pass: the run
// never tracks coverage, so every pass-two query returns every
// neighbour.
func zoomOutUnpruned(e Engine, prev *Solution, rNew float64, v ZoomOutVariant) *Solution {
	s := zoomOutPassOne(e, prev, rNew, v)
	zoomOutPassTwo(e, s, rNew, v)
	return s.solution(v.String(), rNew)
}

// TestZoomOutPrunedMatchesUnpruned: Zoom-Out's second pass reads only
// white objects, so pruning its queries must leave every pick and the
// pick order unchanged and may only lower the cost. Every variant runs
// on the scan engine, the M-tree (for the metrics it indexes) and the
// coverage graph joined both above rNew (row prefixes) and at the
// previous radius (rNew above the ceiling: the grid fallback for the
// Lp metrics, the flat scan for cosine), over clustered and uniform
// points under Euclidean distance, plus a Manhattan and a cosine case.
func TestZoomOutPrunedMatchesUnpruned(t *testing.T) {
	clustered, err := dataset.Clustered(300, 2, 6, 31)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := dataset.Uniform(300, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pts  []object.Point
		m    object.Metric
		r    float64
	}{
		{"clustered/euclidean", clustered.Points, object.Euclidean{}, 0.03},
		{"uniform/euclidean", uniform.Points, object.Euclidean{}, 0.05},
		{"uniform/manhattan", uniform.Points, object.Manhattan{}, 0.07},
		{"clustered/cosine", clustered.Points, object.Cosine{}, 0.0005},
	}
	for _, tc := range cases {
		rNew := 2 * tc.r
		engines := map[string]Engine{"flat": flatEngine(t, tc.pts, tc.m)}
		if object.TriangleSafe(tc.m) {
			engines["tree"] = treeEngine(t, tc.pts, tc.m)
		}
		for name, ceiling := range map[string]float64{"graph/below-ceiling": 1.5 * rNew, "graph/above-ceiling": tc.r} {
			g, err := BuildParallelGraphEngine(tc.pts, tc.m, ceiling, 1)
			if err != nil {
				t.Fatal(err)
			}
			engines[name] = g
		}
		for name, e := range engines {
			prev := baseSolution(t, e, tc.r)
			for _, v := range []ZoomOutVariant{ZoomOutPlain, ZoomOutGreedyA, ZoomOutGreedyB, ZoomOutGreedyC} {
				got, err := ZoomOut(e, prev, rNew, v)
				if err != nil {
					t.Fatal(err)
				}
				want := zoomOutUnpruned(e, prev, rNew, v)
				if !slices.Equal(got.IDs, want.IDs) {
					t.Errorf("%s %s %v: pruned ids %v, unpruned %v", tc.name, name, v, got.IDs, want.IDs)
				}
				if got.Accesses > want.Accesses {
					t.Errorf("%s %s %v: pruned run charged %d, unpruned %d", tc.name, name, v, got.Accesses, want.Accesses)
				}
				if err := CheckDisC(tc.pts, tc.m, got.IDs, rNew); err != nil {
					t.Errorf("%s %s %v: %v", tc.name, name, v, err)
				}
			}
		}
	}
}

func TestZoomOutKeepsOverlapWithPrevious(t *testing.T) {
	// The point of incremental zoom-out is staying close to the previous
	// result: the adapted solution must share representatives with S^r,
	// and variant (b) is designed to maximise that overlap.
	pts := randomPoints(800, 2, 16)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	prev := baseSolution(t, e, 0.04)
	scratch := GreedyDisC(e, 0.08, GreedyOptions{Update: UpdateGrey})
	for _, v := range []ZoomOutVariant{ZoomOutPlain, ZoomOutGreedyA, ZoomOutGreedyB, ZoomOutGreedyC} {
		zoomed, err := ZoomOut(e, prev, 0.08, v)
		if err != nil {
			t.Fatal(err)
		}
		if Jaccard(prev, zoomed) > Jaccard(prev, scratch) {
			t.Errorf("%v: zoomed solution farther from previous than from-scratch", v)
		}
	}
}

func TestZoomOutRejectsBadArguments(t *testing.T) {
	pts := randomPoints(100, 2, 17)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	prev := baseSolution(t, e, 0.1)
	if _, err := ZoomOut(e, prev, 0.05, ZoomOutPlain); err == nil {
		t.Error("zoom-out with smaller radius accepted")
	}
	empty := &Solution{Algorithm: "empty", Radius: 0.1}
	if _, err := ZoomOut(e, empty, 0.2, ZoomOutPlain); err == nil {
		t.Error("empty previous solution accepted")
	}
}

func TestZoomRoundTripStaysValid(t *testing.T) {
	pts := randomPoints(400, 2, 18)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	s := baseSolution(t, e, 0.08)
	radii := []float64{0.05, 0.03, 0.06, 0.12, 0.04}
	for _, r := range radii {
		var err error
		var next *Solution
		if r < s.Radius {
			next, err = ZoomIn(e, s, r, true, false)
		} else {
			next, err = ZoomOut(e, s, r, ZoomOutGreedyA)
		}
		if err != nil {
			t.Fatalf("radius %g: %v", r, err)
		}
		if err := VerifySolution(e, next); err != nil {
			t.Fatalf("radius %g: %v", r, err)
		}
		s = next
	}
}

func TestLocalZoomIn(t *testing.T) {
	pts := randomPoints(500, 2, 19)
	m := object.Euclidean{}
	for engName, e := range bothEngines(t, pts, m) {
		prev := baseSolution(t, e, 0.15)
		center := prev.IDs[0]
		res, err := LocalZoomIn(e, prev, center, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", engName, err)
		}
		// The previous representatives must all survive.
		for _, id := range prev.IDs {
			if !containsInt(res.Final, id) {
				t.Errorf("%s: representative %d dropped by local zoom-in", engName, id)
			}
		}
		// Region coverage at the local radius: every region object
		// must be within rNew of some final representative.
		for _, id := range res.Region {
			covered := false
			for _, b := range res.Final {
				if m.Dist(pts[id], pts[b]) <= 0.05 {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("%s: region object %d uncovered at local radius", engName, id)
			}
		}
		// Added representatives must be inside the region and
		// mutually independent at the local radius.
		for i, a := range res.Added {
			if !containsInt(res.Region, a) {
				t.Errorf("%s: added %d outside region", engName, a)
			}
			for _, b := range res.Added[i+1:] {
				if d := m.Dist(pts[a], pts[b]); d <= 0.05 {
					t.Errorf("%s: added representatives %d,%d at distance %g", engName, a, b, d)
				}
			}
		}
	}
}

func TestLocalZoomInRejectsNonRepresentative(t *testing.T) {
	pts := randomPoints(200, 2, 20)
	e := flatEngine(t, pts, object.Euclidean{})
	prev := baseSolution(t, e, 0.1)
	nonRep := -1
	for id := range pts {
		if !prev.Contains(id) {
			nonRep = id
			break
		}
	}
	if _, err := LocalZoomIn(e, prev, nonRep, 0.05); err == nil {
		t.Error("non-representative centre accepted")
	}
}

func TestLocalZoomOut(t *testing.T) {
	pts := randomPoints(600, 2, 21)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	prev := baseSolution(t, e, 0.05)
	center := prev.IDs[0]
	res, err := LocalZoomOut(e, prev, center, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !containsInt(res.Final, center) {
		t.Fatal("centre dropped by local zoom-out")
	}
	// Removed representatives must lie within the new radius of centre.
	for _, id := range res.Removed {
		if d := m.Dist(pts[id], pts[center]); d > 0.15 {
			t.Errorf("removed %d at distance %g > rNew", id, d)
		}
	}
	// Global coverage must hold with mixed radii: each object is within
	// rNew of centre or within the original radius of a surviving
	// representative.
	for id := range pts {
		if m.Dist(pts[id], pts[center]) <= 0.15 {
			continue
		}
		covered := false
		for _, b := range res.Final {
			if m.Dist(pts[id], pts[b]) <= prev.Radius {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("object %d lost coverage after local zoom-out", id)
		}
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/object"
)

func randomPoints(n, d int, seed uint64) []object.Point {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	pts := make([]object.Point, n)
	for i := range pts {
		p := make(object.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// sortNeighbors orders a neighbour list by id in place, so reference
// answers compare against the id-ordered graph and grid rows.
func sortNeighbors(ns []object.Neighbor) []object.Neighbor {
	slices.SortFunc(ns, func(a, b object.Neighbor) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
	return ns
}

func flatEngine(t *testing.T, pts []object.Point, m object.Metric) *FlatEngine {
	t.Helper()
	e, err := NewFlatEngine(pts, m)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func treeEngine(t *testing.T, pts []object.Point, m object.Metric) *TreeEngine {
	t.Helper()
	cfg := mtree.Config{Capacity: 8, Metric: m, Policy: mtree.MinOverlap}
	e, err := BuildTreeEngine(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func bothEngines(t *testing.T, pts []object.Point, m object.Metric) map[string]Engine {
	return map[string]Engine{
		"flat": flatEngine(t, pts, m),
		"tree": treeEngine(t, pts, m),
	}
}

// discAlgorithms enumerates every heuristic that must produce a valid
// r-DisC diverse subset.
func discAlgorithms() map[string]func(e Engine, r float64) *Solution {
	return map[string]func(e Engine, r float64) *Solution{
		"basic":        func(e Engine, r float64) *Solution { return BasicDisC(e, r, false) },
		"basic-pruned": func(e Engine, r float64) *Solution { return BasicDisC(e, r, true) },
		"grey-greedy":  func(e Engine, r float64) *Solution { return GreedyDisC(e, r, GreedyOptions{Update: UpdateGrey}) },
		"grey-pruned": func(e Engine, r float64) *Solution {
			return GreedyDisC(e, r, GreedyOptions{Update: UpdateGrey, Pruned: true})
		},
		"white-greedy": func(e Engine, r float64) *Solution { return GreedyDisC(e, r, GreedyOptions{Update: UpdateWhite}) },
		"white-pruned": func(e Engine, r float64) *Solution {
			return GreedyDisC(e, r, GreedyOptions{Update: UpdateWhite, Pruned: true})
		},
		"lazy-grey":  func(e Engine, r float64) *Solution { return GreedyDisC(e, r, GreedyOptions{Update: UpdateLazyGrey}) },
		"lazy-white": func(e Engine, r float64) *Solution { return GreedyDisC(e, r, GreedyOptions{Update: UpdateLazyWhite}) },
		"lazy-white-pruned": func(e Engine, r float64) *Solution {
			return GreedyDisC(e, r, GreedyOptions{Update: UpdateLazyWhite, Pruned: true})
		},
	}
}

func TestAllDisCAlgorithmsProduceValidSubsets(t *testing.T) {
	metrics := []object.Metric{object.Euclidean{}, object.Manhattan{}}
	radii := []float64{0.02, 0.05, 0.1, 0.3}
	for mi, m := range metrics {
		pts := randomPoints(400, 2, uint64(mi)*13+1)
		for engName, e := range bothEngines(t, pts, m) {
			for algName, alg := range discAlgorithms() {
				for _, r := range radii {
					s := alg(e, r)
					if err := VerifySolution(e, s); err != nil {
						t.Errorf("%s/%s/%s r=%g: %v", m.Name(), engName, algName, r, err)
					}
					if s.Size() == 0 {
						t.Errorf("%s/%s/%s r=%g: empty solution", m.Name(), engName, algName, r)
					}
				}
			}
		}
	}
}

func TestCoverageOnlyAlgorithms(t *testing.T) {
	pts := randomPoints(400, 2, 99)
	m := object.Euclidean{}
	for engName, e := range bothEngines(t, pts, m) {
		for _, r := range []float64{0.03, 0.08, 0.2} {
			for name, alg := range map[string]func(Engine, float64) *Solution{
				"greedy-c": GreedyC,
				"fast-c":   FastC,
			} {
				s := alg(e, r)
				if err := VerifyCoverageOnly(e, s); err != nil {
					t.Errorf("%s/%s r=%g: %v", engName, name, r, err)
				}
			}
		}
	}
}

// TestGreedyIdenticalAcrossEngines: with exact count maintenance and
// deterministic tie-breaking, the greedy selection depends only on
// distances, so the flat and tree engines must produce identical
// solutions — a strong cross-validation of the index.
func TestGreedyIdenticalAcrossEngines(t *testing.T) {
	pts := randomPoints(500, 2, 5)
	m := object.Euclidean{}
	for _, r := range []float64{0.03, 0.06, 0.12} {
		for _, upd := range []UpdateStrategy{UpdateGrey, UpdateWhite, UpdateLazyGrey, UpdateLazyWhite} {
			var ref []int
			for _, engName := range []string{"flat", "tree"} {
				e := bothEngines(t, pts, m)[engName]
				s := GreedyDisC(e, r, GreedyOptions{Update: upd})
				if ref == nil {
					ref = s.SortedIDs()
					continue
				}
				got := s.SortedIDs()
				if !equalInts(ref, got) {
					t.Errorf("update=%v r=%g: engines disagree: flat %d ids, tree %d ids", upd, r, len(ref), len(got))
				}
			}
		}
	}
}

// TestGreedyPrunedMatchesUnpruned: pruning changes which nodes are
// visited, never which objects are white, so the selected subset must be
// identical.
func TestGreedyPrunedMatchesUnpruned(t *testing.T) {
	pts := randomPoints(500, 2, 6)
	m := object.Euclidean{}
	for _, r := range []float64{0.04, 0.1} {
		a := GreedyDisC(treeEngine(t, pts, m), r, GreedyOptions{Update: UpdateGrey})
		b := GreedyDisC(treeEngine(t, pts, m), r, GreedyOptions{Update: UpdateGrey, Pruned: true})
		if !equalInts(a.SortedIDs(), b.SortedIDs()) {
			t.Errorf("r=%g: pruned selection differs from unpruned", r)
		}
		if b.Accesses >= a.Accesses {
			t.Errorf("r=%g: pruned accesses %d not below unpruned %d", r, b.Accesses, a.Accesses)
		}
	}
}

// TestGreyAndWhiteUpdatesAgree: both strategies maintain exact counts, so
// they must make identical selections.
func TestGreyAndWhiteUpdatesAgree(t *testing.T) {
	pts := randomPoints(600, 2, 7)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	for _, r := range []float64{0.03, 0.08} {
		a := GreedyDisC(e, r, GreedyOptions{Update: UpdateGrey})
		b := GreedyDisC(e, r, GreedyOptions{Update: UpdateWhite})
		if !equalInts(a.SortedIDs(), b.SortedIDs()) {
			t.Errorf("r=%g: grey/white update strategies disagree", r)
		}
	}
}

func TestGreedyNoLargerThanBasicOnAverage(t *testing.T) {
	// Greedy is a heuristic, not a guarantee, but across several seeds it
	// should never be substantially worse than arbitrary selection.
	m := object.Euclidean{}
	var basicTotal, greedyTotal int
	for seed := uint64(0); seed < 5; seed++ {
		pts := randomPoints(400, 2, seed+30)
		e := flatEngine(t, pts, m)
		basicTotal += BasicDisC(e, 0.05, false).Size()
		greedyTotal += GreedyDisC(e, 0.05, GreedyOptions{Update: UpdateGrey}).Size()
	}
	if greedyTotal > basicTotal {
		t.Errorf("greedy total %d larger than basic total %d", greedyTotal, basicTotal)
	}
}

func TestBuildCountsMatchQueryCounts(t *testing.T) {
	pts := randomPoints(400, 2, 44)
	m := object.Euclidean{}
	r := 0.07
	cfg := mtree.Config{Capacity: 8, Metric: m, Policy: mtree.MinOverlap}
	withCounts, err := BuildTreeEngineWithCounts(cfg, pts, r)
	if err != nil {
		t.Fatal(err)
	}
	counts, cr, ok := withCounts.InitialCounts()
	if !ok || cr != r {
		t.Fatalf("missing build counts (ok=%v r=%g)", ok, cr)
	}
	plain := flatEngine(t, pts, m)
	for id := range pts {
		want := len(plain.NeighborsAppend(nil, id, r, new(Run)))
		if counts[id] != want {
			t.Fatalf("object %d: build count %d, want %d", id, counts[id], want)
		}
	}
	// And the greedy run must match the recomputed-counts run exactly.
	a := GreedyDisC(withCounts, r, GreedyOptions{Update: UpdateGrey})
	b := GreedyDisC(treeEngine(t, pts, m), r, GreedyOptions{Update: UpdateGrey})
	if !equalInts(a.SortedIDs(), b.SortedIDs()) {
		t.Error("solutions differ between build-time and query-time counts")
	}
}

func TestSolutionBookkeeping(t *testing.T) {
	pts := randomPoints(300, 2, 70)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	s := GreedyDisC(e, 0.06, GreedyOptions{Update: UpdateGrey})
	if cap(s.IDs) != len(s.IDs) {
		t.Errorf("ids kept at capacity %d for %d picks", cap(s.IDs), len(s.IDs))
	}
	for _, id := range s.IDs {
		if !s.Contains(id) {
			t.Fatalf("Contains(%d) false for a selected id", id)
		}
	}
	if s.Contains(-1) || s.Contains(len(pts)) {
		t.Error("Contains accepted out-of-range id")
	}
	checkCoveredWithin(t, e, s.IDs, s.Radius/2)
}

// TestCoveredWithinAfterPrunedRun: the zooming rule's pass over a
// pruned run's ids marks exactly the objects within the radius of a
// selected one, whatever the run's white-filtered queries observed.
func TestCoveredWithinAfterPrunedRun(t *testing.T) {
	pts := randomPoints(500, 2, 71)
	e := treeEngine(t, pts, object.Euclidean{})
	s := BasicDisC(e, 0.08, true)
	for _, r := range []float64{0.03, s.Radius} {
		checkCoveredWithin(t, e, s.IDs, r)
	}
}

// checkCoveredWithin compares coveredWithin with a brute-force scan.
func checkCoveredWithin(t *testing.T, e Engine, ids []int, r float64) {
	t.Helper()
	got := coveredWithin(e, ids, r)
	m := e.Metric()
	for id := range got {
		want := false
		for _, b := range ids {
			if id == b || m.Dist(e.Point(id), e.Point(b)) <= r {
				want = true
				break
			}
		}
		if got[id] != want {
			t.Fatalf("r=%g object %d: covered %v, want %v", r, id, got[id], want)
		}
	}
}

func TestFastCTradeOff(t *testing.T) {
	// Fast-C trades solution size for accesses: it must never cost more
	// node accesses than Greedy-C (its queries stop early), and its
	// solutions — though possibly larger — must stay valid r-C subsets
	// (verified in TestCoverageOnlyAlgorithms).
	pts := randomPoints(1500, 2, 90)
	m := object.Euclidean{}
	gc := GreedyC(treeEngine(t, pts, m), 0.05)
	fc := FastC(treeEngine(t, pts, m), 0.05)
	if fc.Accesses > gc.Accesses {
		t.Errorf("Fast-C accesses %d above Greedy-C %d", fc.Accesses, gc.Accesses)
	}
	if fc.Size() < gc.Size() {
		t.Errorf("Fast-C size %d below Greedy-C %d: early-stopped queries cannot shrink solutions", fc.Size(), gc.Size())
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []int
		want float64
	}{
		{nil, nil, 0},
		{[]int{1, 2}, []int{1, 2}, 0},
		{[]int{1, 2}, []int{3, 4}, 1},
		{[]int{1, 2, 3}, []int{2, 3, 4}, 0.5},
		{[]int{1}, nil, 1},
	}
	for _, c := range cases {
		if got := JaccardIDs(c.a, c.b); got != c.want {
			t.Errorf("Jaccard(%v,%v)=%g want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestCheckDisCRejectsBadSubsets(t *testing.T) {
	pts := []object.Point{{0, 0}, {0.05, 0}, {1, 1}}
	m := object.Euclidean{}
	if err := CheckDisC(pts, m, []int{0, 2}, 0.1); err != nil {
		t.Errorf("valid subset rejected: %v", err)
	}
	if err := CheckDisC(pts, m, []int{0}, 0.1); err == nil {
		t.Error("uncovering subset accepted")
	}
	if err := CheckDisC(pts, m, []int{0, 1, 2}, 0.1); err == nil {
		t.Error("dependent subset accepted")
	}
	if err := CheckDisC(pts, m, []int{0, 0, 2}, 0.1); err == nil {
		t.Error("duplicate selection accepted")
	}
	if err := CheckDisC(pts, m, []int{5}, 0.1); err == nil {
		t.Error("out-of-range id accepted")
	}
	if err := CheckDisC(pts, m, nil, 0.1); err == nil {
		t.Error("empty subset accepted")
	}
}

func equalInts(a, b []int) bool {
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

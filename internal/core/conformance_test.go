package core

import (
	"sort"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

// allEngines builds every engine implementation over the same points.
// The parallel graph engine is built for radius 0.2: conformance
// queries at or below that radius exercise the materialised graph,
// larger ones its multi-ring scan fallback — all must agree with brute
// force.
func allEngines(t *testing.T, pts []object.Point, m object.Metric) map[string]Engine {
	t.Helper()
	engines := map[string]Engine{
		"flat": flatEngine(t, pts, m),
		"tree": treeEngine(t, pts, m),
	}
	g, err := BuildParallelGraphEngine(pts, m, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	engines["graph"] = g
	return engines
}

// TestEngineConformanceNeighbors: every engine must return exactly the
// brute-force neighbour set with exact distances.
func TestEngineConformanceNeighbors(t *testing.T) {
	pts := randomPoints(350, 3, 80)
	m := object.Manhattan{}
	for name, e := range allEngines(t, pts, m) {
		for _, id := range []int{0, 17, 349} {
			for _, r := range []float64{0.05, 0.2, 0.8} {
				got := map[int]float64{}
				for _, nb := range e.NeighborsAppend(nil, id, r, new(Run)) {
					got[nb.ID] = nb.Dist
				}
				want := map[int]float64{}
				for j := range pts {
					if j != id {
						if d := m.Dist(pts[id], pts[j]); d <= r {
							want[j] = d
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s id=%d r=%g: %d neighbours, want %d", name, id, r, len(got), len(want))
				}
				for j, d := range want {
					if got[j] != d {
						t.Fatalf("%s id=%d r=%g: neighbour %d dist %g want %g", name, id, r, j, got[j], d)
					}
				}
			}
		}
	}
}

// TestEngineConformanceNeighborsAppend: for every engine, a query
// appended into a reused, non-empty buffer must return exactly what the
// same query into a nil buffer returns (same neighbours, same
// distances, same order), after the existing content, which it must
// leave untouched.
func TestEngineConformanceNeighborsAppend(t *testing.T) {
	pts := randomPoints(400, 3, 86)
	m := object.Euclidean{}
	equalNeighbors := func(a, b []object.Neighbor) bool {
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
	sentinel := object.Neighbor{ID: -7, Dist: -1}
	for name, e := range allEngines(t, pts, m) {
		buf := make([]object.Neighbor, 0, 8) // deliberately small: must grow correctly
		for _, id := range []int{0, 11, 399} {
			for _, r := range []float64{0.05, 0.2, 0.9} {
				want := e.NeighborsAppend(nil, id, r, new(Run))
				buf = append(buf[:0], sentinel)
				got := e.NeighborsAppend(buf, id, r, new(Run))
				if len(got) == 0 || got[0] != sentinel {
					t.Fatalf("%s id=%d r=%g: NeighborsAppend clobbered existing content", name, id, r)
				}
				if !equalNeighbors(want, got[1:]) {
					t.Fatalf("%s id=%d r=%g: NeighborsAppend=%v want %v", name, id, r, got[1:], want)
				}
				buf = got[:0]
			}
		}
		cov, ok := e.(CoverageEngine)
		if !ok {
			t.Fatalf("%s: expected CoverageEngine", name)
		}
		run := coveringRun(cov)
		for _, id := range []int{3, 42} {
			run.cover((id + 13) % len(pts)) // perturb the white set
			for _, r := range []float64{0.1, 0.5} {
				want := cov.NeighborsWhiteAppend(nil, id, r, run)
				got := cov.NeighborsWhiteAppend([]object.Neighbor{sentinel}, id, r, run)
				if len(got) == 0 || got[0] != sentinel || !equalNeighbors(want, got[1:]) {
					t.Fatalf("%s id=%d r=%g: NeighborsWhiteAppend=%v want %v", name, id, r, got[1:], want)
				}
			}
		}
		if bu, ok := e.(BottomUpEngine); ok {
			for _, stop := range []bool{false, true} {
				want := bu.NeighborsBottomUpAppend(nil, 9, 0.2, stop, run)
				got := bu.NeighborsBottomUpAppend([]object.Neighbor{sentinel}, 9, 0.2, stop, run)
				if len(got) == 0 || got[0] != sentinel || !equalNeighbors(want, got[1:]) {
					t.Fatalf("%s stop=%v: NeighborsBottomUpAppend drifted", name, stop)
				}
			}
		}
	}
}

// TestEngineConformanceScanOrder: the scan order must be a permutation.
func TestEngineConformanceScanOrder(t *testing.T) {
	pts := randomPoints(200, 2, 81)
	for name, e := range allEngines(t, pts, object.Euclidean{}) {
		order := e.ScanOrder(new(Run))
		if len(order) != len(pts) {
			t.Fatalf("%s: scan returned %d ids", name, len(order))
		}
		sorted := append([]int(nil), order...)
		sort.Ints(sorted)
		for i, id := range sorted {
			if id != i {
				t.Fatalf("%s: scan order is not a permutation", name)
			}
		}
	}
}

// TestEngineConformanceGreedyIdentical: exact-count greedy selection must
// be identical on every engine, pruned or not, global or
// component mode — the strongest cross-validation of the index
// implementations.
func TestEngineConformanceGreedyIdentical(t *testing.T) {
	pts := randomPoints(450, 2, 82)
	m := object.Euclidean{}
	for _, r := range []float64{0.04, 0.1} {
		var ref []int
		var refName string
		for name, e := range allEngines(t, pts, m) {
			for _, pruned := range []bool{false, true} {
				s := GreedyDisC(e, r, GreedyOptions{Update: UpdateGrey, Pruned: pruned})
				if ref == nil {
					ref = s.SortedIDs()
					refName = name
					continue
				}
				if !equalInts(ref, s.SortedIDs()) {
					t.Errorf("r=%g: %s(pruned=%v) differs from %s", r, name, pruned, refName)
				}
			}
			cs := GreedyDisCComponents(e, r, GreedyOptions{Update: UpdateGrey, Pruned: true})
			if !equalInts(ref, cs.SortedIDs()) {
				t.Errorf("r=%g: %s component mode differs from %s", r, name, refName)
			}
		}
	}
}

// TestEngineConformanceAlgorithmsValid: every algorithm on every engine
// yields a valid result.
func TestEngineConformanceAlgorithmsValid(t *testing.T) {
	pts := randomPoints(300, 2, 83)
	m := object.Euclidean{}
	r := 0.09
	for name, e := range allEngines(t, pts, m) {
		for alg, run := range discAlgorithms() {
			s := run(e, r)
			if err := VerifySolution(e, s); err != nil {
				t.Errorf("%s/%s: %v", name, alg, err)
			}
		}
		for _, cov := range []func(Engine, float64) *Solution{GreedyC, FastC} {
			s := cov(e, r)
			if err := VerifyCoverageOnly(e, s); err != nil {
				t.Errorf("%s coverage algorithm: %v", name, err)
			}
		}
	}
}

// TestEngineConformanceZoom: zooming works and stays valid on every
// engine.
func TestEngineConformanceZoom(t *testing.T) {
	pts := randomPoints(350, 2, 84)
	m := object.Euclidean{}
	for name, e := range allEngines(t, pts, m) {
		prev := GreedyDisC(e, 0.1, GreedyOptions{Update: UpdateGrey})
		in, err := ZoomIn(e, prev, 0.05, true, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifySolution(e, in); err != nil {
			t.Errorf("%s zoom-in: %v", name, err)
		}
		out, err := ZoomOut(e, prev, 0.2, ZoomOutGreedyA)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifySolution(e, out); err != nil {
			t.Errorf("%s zoom-out: %v", name, err)
		}
	}
}

// TestEngineConformanceAccessCounting: a run starts at zero accesses,
// and a query charges its own run only.
func TestEngineConformanceAccessCounting(t *testing.T) {
	pts := randomPoints(150, 2, 85)
	for name, e := range allEngines(t, pts, object.Euclidean{}) {
		var run, other Run
		if run.Accesses() != 0 {
			t.Errorf("%s: a fresh run starts at %d accesses", name, run.Accesses())
		}
		e.NeighborsAppend(nil, 0, 0.2, &run)
		if run.Accesses() == 0 {
			t.Errorf("%s: query charged nothing", name)
		}
		if other.Accesses() != 0 {
			t.Errorf("%s: query charged another run", name)
		}
	}
}

// coveringRun returns a run over e that tracks coverage, every object
// white.
func coveringRun(e Engine) *Run {
	run := new(Run)
	run.startCoverage(e, nil)
	return run
}

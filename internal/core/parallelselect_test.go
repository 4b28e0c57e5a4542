package core

import (
	"math"
	"testing"

	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

// TestEngineConformanceComponents: every engine must return the
// identical canonical decomposition — the flat engine's query-derived
// labeling is the reference — at radii below, at and above the
// graph/grid build radius.
func TestEngineConformanceComponents(t *testing.T) {
	pts := randomPoints(300, 2, 91)
	m := object.Euclidean{}
	for _, r := range []float64{0.04, 0.2, 0.35} {
		var ref *grid.Components
		for name, e := range allEngines(t, pts, m) {
			cov, ok := e.(CoverageEngine)
			if !ok {
				t.Fatalf("%s: expected CoverageEngine", name)
			}
			got := cov.Components(r)
			if ref == nil {
				ref = got
				continue
			}
			if got.Count != ref.Count {
				t.Fatalf("r=%g %s: %d components, reference has %d", r, name, got.Count, ref.Count)
			}
			for id := range ref.Label {
				if got.Label[id] != ref.Label[id] {
					t.Fatalf("r=%g %s: point %d labeled %d, reference %d", r, name, id, got.Label[id], ref.Label[id])
				}
			}
		}
	}
}

// TestGraphEngineComponentsCached: the coverage-graph engine must cache
// the decomposition at its build radius (same pointer, no extra
// accesses) and answer other radii without touching the cache.
func TestGraphEngineComponentsCached(t *testing.T) {
	pts := randomPoints(250, 2, 92)
	g, err := BuildParallelGraphEngine(pts, object.Euclidean{}, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.CachedComponents() != nil {
		t.Fatalf("decomposition cached before first use")
	}
	first := g.Components(0.1)
	if g.CachedComponents() != first {
		t.Fatalf("build-radius decomposition not cached")
	}
	g.ResetAccesses()
	if g.Components(0.1) != first {
		t.Fatalf("cache miss on second call")
	}
	if g.Accesses() != 0 {
		t.Fatalf("cached call charged %d accesses", g.Accesses())
	}
	smaller := g.Components(0.05)
	if smaller == first {
		t.Fatalf("sub-radius decomposition served from the build-radius cache")
	}
	if smaller.Count < first.Count {
		t.Fatalf("shrinking the radius merged components (%d -> %d)", first.Count, smaller.Count)
	}
}

// TestGreedyComponentsMatchesGlobal: the component-decomposed selection
// must pick exactly the global greedy's subset — per engine, per update
// strategy (including the lazy-white fallback), per radius — and every
// solution must satisfy Definition 1.
func TestGreedyComponentsMatchesGlobal(t *testing.T) {
	pts := randomPoints(400, 2, 93)
	m := object.Euclidean{}
	strategies := []UpdateStrategy{UpdateGrey, UpdateWhite, UpdateLazyGrey, UpdateLazyWhite}
	for _, r := range []float64{0.03, 0.08} {
		for name, e := range allEngines(t, pts, m) {
			for _, upd := range strategies {
				opts := GreedyOptions{Update: upd, Pruned: true}
				want := GreedyDisC(e, r, opts)
				got := GreedyDisCComponents(e, r, opts, 2)
				if !equalInts(want.SortedIDs(), got.SortedIDs()) {
					t.Errorf("%s r=%g %v: component selection differs from global", name, r, upd)
				}
				if err := VerifySolution(e, got); err != nil {
					t.Errorf("%s r=%g %v: %v", name, r, upd, err)
				}
			}
		}
	}
}

// TestGreedyComponentsDenseRunsGlobal: on an engine without a
// materialised graph, a radius whose adjacency passes AdjacencyBudget
// (every pair of 1,100 points: 1.21M entries) is not materialised; the
// component select returns the global pass's solution instead.
func TestGreedyComponentsDenseRunsGlobal(t *testing.T) {
	pts := randomPoints(1100, 2, 97)
	e := flatEngine(t, pts, object.Euclidean{})
	const r = 2
	opts := GreedyOptions{Update: UpdateGrey, Pruned: true}
	want := GreedyDisC(e, r, opts)
	got := GreedyDisCComponents(e, r, opts, 2)
	if got.Algorithm != want.Algorithm || !equalInts(got.IDs, want.IDs) {
		t.Fatalf("dense component select ran %q with %d ids, want the global %q with %d", got.Algorithm, len(got.IDs), want.Algorithm, len(want.IDs))
	}
}

// TestGreedyComponentsDeterministicAcrossWorkers: the full solution —
// selection order included — must be bit-identical for every worker
// count, on every engine. A first run warms the graph engine's
// per-radius cache, so every compared run is charged alike.
func TestGreedyComponentsDeterministicAcrossWorkers(t *testing.T) {
	pts := randomPoints(350, 3, 94)
	m := object.Manhattan{}
	const r = 0.12
	opts := GreedyOptions{Update: UpdateGrey, Pruned: true}
	for name, e := range allEngines(t, pts, m) {
		GreedyDisCComponents(e, r, opts, 1)
		ref := GreedyDisCComponents(e, r, opts, 1)
		for _, workers := range []int{2, 3, 8} {
			got := GreedyDisCComponents(e, r, opts, workers)
			if !equalInts(ref.IDs, got.IDs) {
				t.Errorf("%s workers=%d: selection order differs from workers=1", name, workers)
			}
			for id := range ref.Colors {
				if ref.Colors[id] != got.Colors[id] {
					t.Errorf("%s workers=%d: color of %d differs", name, workers, id)
					break
				}
			}
			for id := range ref.DistBlack {
				if ref.DistBlack[id] != got.DistBlack[id] {
					t.Errorf("%s workers=%d: DistBlack of %d differs", name, workers, id)
					break
				}
			}
			if ref.Accesses != got.Accesses {
				t.Errorf("%s workers=%d: accesses %d differ from workers=1's %d", name, workers, got.Accesses, ref.Accesses)
			}
		}
	}
}

// TestGreedyComponentsAccessParity: with the decomposition pre-cached,
// the component-mode selection on the coverage-graph engine must charge
// exactly what the global pruned run charges — the fast paths only
// short-circuit work, never the accounting.
func TestGreedyComponentsAccessParity(t *testing.T) {
	pts := randomPoints(500, 2, 95)
	const r = 0.05
	g, err := BuildParallelGraphEngine(pts, object.Euclidean{}, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	g.Components(r) // populate the cache outside the measured runs
	opts := GreedyOptions{Update: UpdateGrey, Pruned: true}
	g.ResetAccesses()
	global := GreedyDisC(g, r, opts)
	g.ResetAccesses()
	comp := GreedyDisCComponents(g, r, opts, 1)
	if global.Accesses != comp.Accesses {
		t.Fatalf("component run charged %d accesses, global %d", comp.Accesses, global.Accesses)
	}
}

// TestGreedyComponentsExactDistBlack: component solutions promise exact
// closest-black distances; cross-check against the post-processing
// recomputation.
func TestGreedyComponentsExactDistBlack(t *testing.T) {
	pts := randomPoints(300, 2, 96)
	e := flatEngine(t, pts, object.Euclidean{})
	const r = 0.07
	s := GreedyDisCComponents(e, r, GreedyOptions{Update: UpdateGrey, Pruned: true}, 2)
	if !s.DistBlackExact {
		t.Fatalf("component solution does not report exact DistBlack")
	}
	check := s.Clone()
	RecomputeDistBlack(e, check)
	for id := range s.DistBlack {
		if s.DistBlack[id] != check.DistBlack[id] {
			t.Fatalf("DistBlack[%d] = %g, recomputation says %g", id, s.DistBlack[id], check.DistBlack[id])
		}
	}
}

// TestGreedyComponentsFastPaths: a crafted universe of one singleton,
// one pair and one triangle-plus-leaf component exercises every
// short-circuit; the selections and colors are known in closed form.
func TestGreedyComponentsFastPaths(t *testing.T) {
	pts := []object.Point{
		{0.0, 0.0},  // 0: singleton
		{0.5, 0.5},  // 1: pair with 2
		{0.5, 0.55}, // 2
		{0.9, 0.1},  // 3: chain 3-4-5, 4 in the middle
		{0.9, 0.18}, // 4
		{0.9, 0.26}, // 5
	}
	const r = 0.1
	e := flatEngine(t, pts, object.Euclidean{})
	s := GreedyDisCComponents(e, r, GreedyOptions{Update: UpdateGrey, Pruned: true}, 3)
	// Components: {0}, {1,2}, {3,4,5}. Singleton picks 0; the pair picks
	// min id 1; the chain picks its middle 4 (covers two).
	if !equalInts(s.IDs, []int{0, 1, 4}) {
		t.Fatalf("selected %v, want [0 1 4]", s.IDs)
	}
	wantColors := []Color{Black, Black, Grey, Grey, Black, Grey}
	for id, c := range wantColors {
		if s.Colors[id] != c {
			t.Fatalf("color of %d is %v, want %v", id, s.Colors[id], c)
		}
	}
	if err := VerifySolution(e, s); err != nil {
		t.Fatal(err)
	}
	if s.DistBlack[2] != e.Metric().Dist(pts[1], pts[2]) {
		t.Fatalf("pair grey distance %g", s.DistBlack[2])
	}
	if math.IsInf(s.DistBlack[3], 1) || math.IsInf(s.DistBlack[5], 1) {
		t.Fatalf("chain greys left without closest-black distances")
	}
}

// TestInstallComponentsRejectsMergedSingletons: labels that merge two
// true singleton components pass the structural checks but must be
// rejected at install time — otherwise the two-member fast path would
// dereference an empty adjacency row at selection time.
func TestInstallComponentsRejectsMergedSingletons(t *testing.T) {
	pts := []object.Point{
		{0.0, 0.0}, // singleton
		{0.5, 0.5}, // singleton
		{0.9, 0.1}, // pair with 3
		{0.9, 0.15},
	}
	const r = 0.1
	g, err := BuildParallelGraphEngine(pts, object.Euclidean{}, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	// True decomposition: [0, 1, 2, 2]. Merge the two singletons.
	if err := g.InstallComponents([]int32{0, 0, 1, 1}, 2); err == nil {
		t.Fatal("merged singleton labels accepted by InstallComponents")
	}
	if err := g.InstallComponents([]int32{0, 1, 2, 2}, 3); err != nil {
		t.Fatalf("genuine labels rejected: %v", err)
	}
}

// TestChunkComponentsBounds: chunk bounds must partition the component
// range contiguously for any worker count, including more workers than
// components.
func TestChunkComponentsBounds(t *testing.T) {
	pts := randomPoints(220, 2, 97)
	const r = 0.06
	g, err := BuildParallelGraphEngine(pts, object.Euclidean{}, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	comp := g.Components(r)
	csr, ok := g.AdjacencyCSR(r)
	if !ok {
		t.Fatal("no adjacency at build radius")
	}
	for _, workers := range []int{1, 2, 5, comp.Count, comp.Count + 7} {
		w := workers
		if w > comp.Count {
			w = comp.Count
		}
		bounds := chunkComponents(comp, csr, w)
		if bounds[0] != 0 || bounds[len(bounds)-1] != comp.Count {
			t.Fatalf("workers=%d: bounds %v do not span [0,%d]", workers, bounds, comp.Count)
		}
		if len(bounds)-1 > w {
			t.Fatalf("workers=%d: %d chunks", workers, len(bounds)-1)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("workers=%d: empty or reversed chunk in %v", workers, bounds)
			}
		}
	}
}

// TestGreedyComponentsUnprunedNaming: the solution must carry the
// component-mode marker so experiment tables can tell the paths apart.
func TestGreedyComponentsUnprunedNaming(t *testing.T) {
	pts := randomPoints(120, 2, 98)
	e := flatEngine(t, pts, object.Euclidean{})
	s := GreedyDisCComponents(e, 0.1, GreedyOptions{Update: UpdateGrey, Pruned: true}, 1)
	if s.Algorithm != "Grey-Greedy-DisC (Pruned, Components)" {
		t.Fatalf("algorithm name %q", s.Algorithm)
	}
	s = GreedyDisCComponents(e, 0.1, GreedyOptions{Update: UpdateGrey}, 1)
	if s.Algorithm != "Grey-Greedy-DisC (Components)" {
		t.Fatalf("algorithm name %q", s.Algorithm)
	}
}

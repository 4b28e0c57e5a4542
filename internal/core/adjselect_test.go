package core

import (
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

// TestEngineConformanceComponents: every engine must return the
// identical component-mode solution — ids in pick order — at radii below, at and above the
// graph engine's build radius, under every count-update strategy.
func TestEngineConformanceComponents(t *testing.T) {
	pts := randomPoints(300, 2, 91)
	m := object.Euclidean{}
	engines := allEngines(t, pts, m)
	for _, r := range []float64{0.04, 0.2, 0.35} {
		for _, upd := range []UpdateStrategy{UpdateGrey, UpdateWhite, UpdateLazyGrey} {
			opts := GreedyOptions{Update: upd, Pruned: true}
			ref := GreedyDisCComponents(engines["flat"], r, opts)
			for name, e := range engines {
				got := GreedyDisCComponents(e, r, opts)
				if !slices.Equal(got.IDs, ref.IDs) {
					t.Fatalf("r=%g %v %s: solution differs from the flat engine's", r, upd, name)
				}
			}
		}
	}
}

// TestGraphEngineComponentsCached: the coverage-graph engine serves
// component-mode selections from its own adjacency — the graph at the
// ceiling, a cached row-prefix view below it — so a repeated select
// charges exactly what the first did, with no labeling or
// materialisation pass; radii above the ceiling have no adjacency.
func TestGraphEngineComponentsCached(t *testing.T) {
	pts := randomPoints(250, 2, 92)
	g, err := BuildParallelGraphEngine(pts, object.Euclidean{}, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if csr, ok := g.AdjacencyCSR(0.1); !ok || csr != g.CSR() {
		t.Fatal("ceiling adjacency is not the engine's graph")
	}
	view, ok := g.AdjacencyCSR(0.05)
	if again, _ := g.AdjacencyCSR(0.05); !ok || again != view {
		t.Fatal("sub-ceiling view not cached")
	}
	if _, ok := g.AdjacencyCSR(0.2); ok {
		t.Fatal("adjacency served above the ceiling")
	}
	opts := GreedyOptions{Update: UpdateGrey, Pruned: true}
	for _, r := range []float64{0.1, 0.05} {
		first := GreedyDisCComponents(g, r, opts)
		second := GreedyDisCComponents(g, r, opts)
		if first.Accesses != second.Accesses || !slices.Equal(first.IDs, second.IDs) {
			t.Fatalf("r=%g: repeated select charged %d accesses, first %d", r, second.Accesses, first.Accesses)
		}
	}
}

// TestGreedyComponentsMatchesGlobal: the component-mode selection must
// pick exactly the global greedy's ids in the global greedy's order —
// per engine, per update strategy (including
// the lazy-white fallback), per radius — and every solution must
// satisfy Definition 1.
func TestGreedyComponentsMatchesGlobal(t *testing.T) {
	pts := randomPoints(400, 2, 93)
	m := object.Euclidean{}
	strategies := []UpdateStrategy{UpdateGrey, UpdateWhite, UpdateLazyGrey, UpdateLazyWhite}
	for _, r := range []float64{0.03, 0.08} {
		for name, e := range allEngines(t, pts, m) {
			for _, upd := range strategies {
				opts := GreedyOptions{Update: upd, Pruned: true}
				want := GreedyDisC(e, r, opts)
				got := GreedyDisCComponents(e, r, opts)
				if !slices.Equal(want.IDs, got.IDs) {
					t.Errorf("%s r=%g %v: component selection differs from global", name, r, upd)
				}
				if err := VerifySolution(e, got); err != nil {
					t.Errorf("%s r=%g %v: %v", name, r, upd, err)
				}
			}
		}
	}
}

// TestGreedyWhiteNonMetricMatchesComponents: under cosine, which breaks
// the triangle inequality, a 2r candidate query around the pick misses
// white objects within r of a new grey, so White-Greedy's global run
// must take its exact counts from the grey side as the adjacency run
// does; both must then pick the same ids in the same order.
func TestGreedyWhiteNonMetricMatchesComponents(t *testing.T) {
	pts := randomPoints(300, 2, 98)
	for _, p := range pts {
		for j := range p {
			p[j] -= 0.5
		}
	}
	m := object.Cosine{}
	e := flatEngine(t, pts, m)
	opts := GreedyOptions{Update: UpdateWhite, Pruned: true}
	for _, r := range []float64{0.05, 0.2} {
		global := GreedyDisC(e, r, opts)
		comp := GreedyDisCComponents(e, r, opts)
		if !slices.Equal(global.IDs, comp.IDs) {
			t.Errorf("r=%g: global White-Greedy selects %d ids %v, the adjacency run %d ids %v", r, len(global.IDs), global.IDs, len(comp.IDs), comp.IDs)
		}
		if err := CheckDisC(pts, m, global.IDs, r); err != nil {
			t.Errorf("r=%g: %v", r, err)
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
	got := GreedyDisCComponents(e, r, opts)
	if got.Algorithm != want.Algorithm || !slices.Equal(got.IDs, want.IDs) {
		t.Fatalf("dense component select ran %q with %d ids, want the global %q with %d", got.Algorithm, len(got.IDs), want.Algorithm, len(want.IDs))
	}
}

// TestGreedyComponentsAccessParity: on the coverage-graph engine at its
// ceiling, where the global run's initial counts are free, the
// component-mode selection must charge exactly what the global pruned
// run charges: one access per adjacency entry examined, at least one
// per query. Nothing is pre-computed before the measured runs.
func TestGreedyComponentsAccessParity(t *testing.T) {
	pts := randomPoints(500, 2, 95)
	const r = 0.05
	g, err := BuildParallelGraphEngine(pts, object.Euclidean{}, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := GreedyOptions{Update: UpdateGrey, Pruned: true}
	global := GreedyDisC(g, r, opts)
	comp := GreedyDisCComponents(g, r, opts)
	if global.Accesses != comp.Accesses {
		t.Fatalf("component run charged %d accesses, global %d", comp.Accesses, global.Accesses)
	}
}

// TestGreedyComponentsFastPaths: a crafted universe of a singleton, a
// pair and a three-point chain, whose pick order is known in closed
// form.
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
	s := GreedyDisCComponents(e, r, GreedyOptions{Update: UpdateGrey, Pruned: true})
	// The chain's middle covers two and goes first; the pair picks its
	// min id; the singleton, covering only itself, comes last.
	if !slices.Equal(s.IDs, []int{4, 1, 0}) {
		t.Fatalf("selected %v, want [4 1 0]", s.IDs)
	}
	if err := VerifySolution(e, s); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyComponentsUnprunedNaming: the solution must carry the
// component-mode marker so experiment tables can tell the paths apart.
func TestGreedyComponentsUnprunedNaming(t *testing.T) {
	pts := randomPoints(120, 2, 98)
	e := flatEngine(t, pts, object.Euclidean{})
	s := GreedyDisCComponents(e, 0.1, GreedyOptions{Update: UpdateGrey, Pruned: true})
	if s.Algorithm != "Grey-Greedy-DisC (Pruned, Components)" {
		t.Fatalf("algorithm name %q", s.Algorithm)
	}
	s = GreedyDisCComponents(e, 0.1, GreedyOptions{Update: UpdateGrey})
	if s.Algorithm != "Grey-Greedy-DisC (Components)" {
		t.Fatalf("algorithm name %q", s.Algorithm)
	}
}

package disc

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/telemetry"
)

// joinEdges reads the process-wide count of edges the grid ε-join has
// emitted.
func joinEdges() uint64 {
	return telemetry.Default().Counter("disc_grid_join_edges_total", "").Value()
}

// ceilingGraph returns d's coverage graph, failing when it holds none.
func ceilingGraph(t *testing.T, d *Diversifier) *core.ParallelGraphEngine {
	t.Helper()
	g, ok := d.engine.(*core.ParallelGraphEngine)
	if !ok {
		t.Fatalf("diversifier holds %T, want the coverage graph", d.engine)
	}
	return g
}

// TestCeilingCacheBounded: after a select at the ceiling, 1,000 distinct
// smaller select radii are all served by the one ceiling graph — no
// join — while the per-radius cache never grows past its fixed slots
// and the resident adjacency stays within core.AdjacencyBudget. Every
// hundredth selection is checked against the M-tree's ids.
func TestCeilingCacheBounded(t *testing.T) {
	ds, err := ClusteredDataset(1000, 2, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(ds.Points, WithIndex(IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 0.05
	if _, err := d.Select(ceiling); err != nil {
		t.Fatal(err)
	}
	g := ceilingGraph(t, d)
	slots := -1
	edges := joinEdges()
	for i := 0; i < 1000; i++ {
		r := ceiling * float64(i+1) / 1001
		res, err := d.Select(r)
		if err != nil {
			t.Fatal(err)
		}
		if d.engine != g {
			t.Fatalf("r=%g: select below the ceiling replaced the graph", r)
		}
		n := len(g.CachedRadii())
		if slots < n {
			slots = n
		}
		if i%100 == 0 {
			want, err := ref.Select(r)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.SortedIDs(), want.SortedIDs()) {
				t.Fatalf("r=%g: ids differ from the M-tree's", r)
			}
		}
	}
	if got := joinEdges(); got != edges {
		t.Fatalf("selects below the ceiling joined %d edges", got-edges)
	}
	if slots < 1 || slots > 4 {
		t.Fatalf("per-radius cache held up to %d radii, want 1..4", slots)
	}
	if m, budget := int64(len(g.CSR().Nbrs)), core.AdjacencyBudget(d.Len()); m > budget {
		t.Fatalf("resident adjacency %d entries, budget %d", m, budget)
	}
}

// TestCeilingSurvivesDenseSelect: a select past the adjacency budget is
// served by the dense engine without replacing the ceiling graph, and a
// later select-and-zoom chain under the ceiling joins nothing and
// returns the M-tree chain's ids.
func TestCeilingSurvivesDenseSelect(t *testing.T) {
	const n = 1500 // all pairs: 2.25M entries, over the 1M-entry floor
	ds, err := UniformDataset(n, 2, 91)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(ds.Points, WithIndex(IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Select(0.06); err != nil {
		t.Fatal(err)
	}
	g := ceilingGraph(t, d)
	denseChain(t, d, 1.5)
	if d.denseFrom != 1.5 || d.engine != g {
		t.Fatalf("dense select: floor %g, engine %T; want floor 1.5 and the ceiling graph kept", d.denseFrom, d.engine)
	}
	edges := joinEdges()
	for _, r := range []float64{0.04, 0.06} {
		got := denseChain(t, d, r)
		want := denseChain(t, ref, r)
		for i, step := range []string{"select", "zoom-in", "zoom-out"} {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("r=%g: %s ids differ from the M-tree chain", r, step)
			}
		}
	}
	if got := joinEdges(); got != edges {
		t.Fatalf("selects under the ceiling after a dense select joined %d edges", got-edges)
	}
	if d.engine != g {
		t.Fatal("selects under the ceiling replaced the graph")
	}
}

// TestCeilingSnapshotByteStable: after selects at three radii the
// snapshot carries the ceiling graph; loading it and saving again must
// reproduce the same bytes — on the grid substrate and the flat join,
// at both precisions.
func TestCeilingSnapshotByteStable(t *testing.T) {
	pts := snapshotTestPoints(400, 3, 41)
	for _, tc := range []struct {
		m    Metric
		prec Precision
	}{
		{Euclidean(), PrecisionFloat64},
		{Euclidean(), PrecisionFloat32},
		{Cosine(), PrecisionFloat64},
		{Cosine(), PrecisionFloat32},
	} {
		name := fmt.Sprintf("%s/%v", tc.m.Name(), tc.prec)
		d, err := New(pts, WithMetric(tc.m), WithIndex(IndexCoverageGraph), WithPrecision(tc.prec))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []float64{0.05, 0.12, 0.08} {
			if _, err := d.Select(r); err != nil {
				t.Fatal(err)
			}
		}
		if g := ceilingGraph(t, d); g.Radius() != 0.12 {
			t.Fatalf("%s: ceiling %g, want 0.12", name, g.Radius())
		}
		var first, second bytes.Buffer
		if err := d.WriteSnapshot(&first); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadDiversifier(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := loaded.WriteSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: save → load → save changed the snapshot (%d vs %d bytes)", name, first.Len(), second.Len())
		}
	}
}

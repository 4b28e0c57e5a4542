package disc

import (
	"fmt"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/core"
)

// TestDenseRadiusChainMatchesReference: at radii whose coverage graph
// passes core.AdjacencyBudget, an IndexCoverageGraph diversifier serves
// the select and both zooms without materialising the graph (on the
// M-tree for Euclidean and Hamming, the flat scan for cosine), and the ids
// equal a reference diversifier's: the default M-tree where the metric
// allows it, the linear scan otherwise. A later sparse radius goes back
// to the graph.
func TestDenseRadiusChainMatchesReference(t *testing.T) {
	const n = 1500 // all pairs: 2.25M entries, over the 1M-entry floor
	uniform, err := UniformDataset(n, 2, 91)
	if err != nil {
		t.Fatal(err)
	}
	// Eight coordinates of four categories: rarely within 1 of each
	// other, all within 8.
	codes := make([]Point, n)
	x := uint64(93)
	for i := range codes {
		codes[i] = make(Point, 8)
		for j := range codes[i] {
			x = x*6364136223846793005 + 1442695040888963407
			codes[i][j] = float64(x >> 62)
		}
	}
	cases := []struct {
		metric Metric
		pts    []Point
		dense  float64
		sparse float64
		ref    Index
		engine string
	}{
		{Euclidean(), uniform.Points, 1.5, 0.05, IndexMTree, "*core.TreeEngine"},
		{Cosine(), uniform.Points, 2, 0.001, IndexLinearScan, "*core.FlatEngine"},
		{Hamming(), codes, 8, 1, IndexMTree, "*core.TreeEngine"},
	}
	for _, tc := range cases {
		ref, err := New(tc.pts, WithMetric(tc.metric), WithIndex(tc.ref))
		if err != nil {
			t.Fatal(err)
		}
		graph, err := New(tc.pts, WithMetric(tc.metric), WithIndex(IndexCoverageGraph))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []float64{tc.dense, tc.sparse, tc.dense} {
			name := fmt.Sprintf("%s r=%g", tc.metric.Name(), r)
			want := denseChain(t, ref, r)
			got := denseChain(t, graph, r)
			for i, step := range []string{"select", "zoom-in", "zoom-out"} {
				if !slices.Equal(got[i], want[i]) {
					t.Errorf("%s: %s ids differ from the reference (%d vs %d ids)", name, step, len(got[i]), len(want[i]))
				}
			}
			served, err := graph.engineForRadius(r, true)
			if err != nil {
				t.Fatal(err)
			}
			engine := fmt.Sprintf("%T", served)
			if r == tc.sparse {
				if _, ok := served.(*core.ParallelGraphEngine); !ok {
					t.Errorf("%s: sparse radius served by %s, want the coverage graph", name, engine)
				}
			} else if engine != tc.engine {
				t.Errorf("%s: dense radius served by %s, want %s", name, engine, tc.engine)
			}
		}
		if graph.denseFrom != tc.dense {
			t.Errorf("%s: dense floor %g, want %g", tc.metric.Name(), graph.denseFrom, tc.dense)
		}
	}
}

// denseChain runs select(r), ZoomIn(r/2) and ZoomOut(2r) on d, verifies
// each result and returns their sorted ids.
func denseChain(t *testing.T, d *Diversifier, r float64) [3][]int {
	t.Helper()
	sel, err := d.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	zin, err := d.ZoomIn(sel, r/2)
	if err != nil {
		t.Fatal(err)
	}
	zout, err := d.ZoomOut(sel, 2*r, ZoomOutGreedyLargest)
	if err != nil {
		t.Fatal(err)
	}
	var ids [3][]int
	for i, res := range []*Result{sel, zin, zout} {
		if err := d.Verify(res); err != nil {
			t.Fatalf("r=%g: %v", res.Radius(), err)
		}
		ids[i] = res.SortedIDs()
	}
	return ids
}

package disc_test

import (
	"fmt"
	"slices"
	"testing"

	disc "github.com/discdiversity/disc"
)

// TestGraphChainMatchesMTree: the served interaction — a
// greedy select on the coverage graph, then ZoomIn(r/2) and
// ZoomOut(2r, ZoomOutGreedyLargest) on that result — must return ids
// identical to the same chain on a default (M-tree) diversifier, for
// clustered and uniform points, d ∈ {2,3}, the three Lp metrics,
// several radii in mixed order and every Greedy-DisC algorithm. The
// zooms cross both sides of the graph's build radius: r/2 is answered
// from the adjacency lists, 2r by the substrate's fallback scans.
func TestGraphChainMatchesMTree(t *testing.T) {
	algorithms := []disc.Algorithm{
		disc.AlgorithmGreedy, disc.AlgorithmGreedyWhite,
		disc.AlgorithmLazyGrey, disc.AlgorithmLazyWhite,
	}
	metrics := []disc.Metric{disc.Euclidean(), disc.Manhattan(), disc.Chebyshev()}
	for _, dim := range []int{2, 3} {
		for _, layout := range []string{"clustered", "uniform"} {
			var ds *disc.Dataset
			var err error
			if layout == "clustered" {
				ds, err = disc.ClusteredDataset(500, dim, 6, uint64(70+dim))
			} else {
				ds, err = disc.UniformDataset(500, dim, uint64(80+dim))
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range metrics {
				ref := newDiversifier(t, ds.Points, disc.WithMetric(m))
				graph := newDiversifier(t, ds.Points, disc.WithMetric(m), disc.WithIndex(disc.IndexCoverageGraph))
				// Descending steps reach a select that filters the cached
				// graph; ascending ones re-join it.
				for _, r := range []float64{0.12, 0.06, 0.09, 0.03} {
					for _, alg := range algorithms {
						name := fmt.Sprintf("%s/d=%d/%s/r=%g/%v", layout, dim, m.Name(), r, alg)
						want := zoomChain(t, ref, r, disc.WithAlgorithm(alg))
						got := zoomChain(t, graph, r, disc.WithAlgorithm(alg))
						for i, step := range []string{"select", "zoom-in", "zoom-out"} {
							if !slices.Equal(got[i], want[i]) {
								t.Errorf("%s: %s ids differ from the M-tree chain (%d vs %d ids)", name, step, len(got[i]), len(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// zoomChain runs select(r) → ZoomIn(r/2) and select(r) → ZoomOut(2r)
// on d, verifies every result, and returns the three sorted id lists.
func zoomChain(t *testing.T, d *disc.Diversifier, r float64, opts ...disc.SelectOption) [3][]int {
	t.Helper()
	sel, err := d.Select(r, opts...)
	if err != nil {
		t.Fatal(err)
	}
	zin, err := d.ZoomIn(sel, r/2)
	if err != nil {
		t.Fatal(err)
	}
	zout, err := d.ZoomOut(sel, 2*r, disc.ZoomOutGreedyLargest)
	if err != nil {
		t.Fatal(err)
	}
	var ids [3][]int
	for i, res := range []*disc.Result{sel, zin, zout} {
		if err := d.Verify(res); err != nil {
			t.Fatalf("r=%g: %v", res.Radius(), err)
		}
		ids[i] = res.SortedIDs()
	}
	return ids
}

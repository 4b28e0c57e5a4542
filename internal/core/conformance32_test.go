package core

import (
	"math"
	"testing"

	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/object"
)

// conformance32_test.go enrolls the PR-7 fast paths in the cross-engine
// conformance suite: Float32 datasets (whose float32 pre-filter must
// never change a selection) and the non-metric embedding distances
// (cosine, dot product), which only the scan-based engines serve.

// allEngines32 builds every engine that can serve metric m over one
// shared Float32 dataset. The M-tree is fed the dataset's float64 view
// (the rounded coordinates), so every engine answers over identical
// values; the flat and graph engines additionally run the float32
// pre-filter. Engines whose pruning rules m violates are omitted — for
// cosine/dot that leaves exactly the scan-based pair, mirroring the
// public API's validation.
func allEngines32(t *testing.T, flat *object.FlatDataset, r float64) map[string]Engine {
	t.Helper()
	m := flat.Metric()
	engines := map[string]Engine{"flat": NewFlatEngineOn(flat)}
	g, err := BuildParallelGraphEngineOn(flat, r, 4)
	if err != nil {
		t.Fatal(err)
	}
	engines["graph"] = g
	if object.TriangleSafe(m) {
		engines["tree"] = treeEngine(t, flat.Points(), m)
	}
	return engines
}

// float32Engines builds the engine set over a Float32 flattening of pts.
func float32Engines(t *testing.T, pts []object.Point, m object.Metric, r float64) (*object.FlatDataset, map[string]Engine) {
	t.Helper()
	flat, err := object.Flatten32(pts, m)
	if err != nil {
		t.Fatal(err)
	}
	return flat, allEngines32(t, flat, r)
}

// TestEngineConformanceFloat32Identical: over a Float32 dataset, every
// engine — fast-path or not — must produce the same greedy selection,
// and that selection must equal the one a plain float64 dataset over
// the pre-rounded points produces. This is the end-to-end form of the
// exact-recheck contract: the float32 filter may only discard
// candidates the exact kernel would discard too.
func TestEngineConformanceFloat32Identical(t *testing.T) {
	cases := []struct {
		name string
		dim  int
		m    object.Metric
		r    float64
	}{
		{"euclidean-low", 3, object.Euclidean{}, 0.2},
		{"euclidean-high", 16, object.Euclidean{}, 1.1},
		{"cosine", 7, object.Cosine{}, 0.25},
		{"dot", 7, object.DotProduct{}, 0.4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := randomPoints(320, tc.dim, 90)
			flat, engines := float32Engines(t, pts, tc.m, tc.r)

			// Reference: float64 dataset over the rounded coordinates.
			ref64, err := object.Flatten(flat.Points(), tc.m)
			if err != nil {
				t.Fatal(err)
			}
			g64, err := BuildParallelGraphEngineOn(ref64, tc.r, 4)
			if err != nil {
				t.Fatal(err)
			}
			want := GreedyDisC(g64, tc.r, GreedyOptions{Update: UpdateGrey}).SortedIDs()

			for name, e := range engines {
				for _, pruned := range []bool{false, true} {
					got := GreedyDisC(e, tc.r, GreedyOptions{Update: UpdateGrey, Pruned: pruned}).SortedIDs()
					if !equalInts(want, got) {
						t.Errorf("%s(pruned=%v): selection differs from the float64 reference", name, pruned)
					}
				}
				cs := GreedyDisCComponents(e, tc.r, GreedyOptions{Update: UpdateGrey, Pruned: true})
				if !equalInts(want, cs.SortedIDs()) {
					t.Errorf("%s: component mode differs from the float64 reference", name)
				}
			}
		})
	}
}

// TestEngineConformanceFloat32Neighbors: every engine's neighbour lists
// over a Float32 dataset must match brute force over the rounded
// coordinates with bit-exact distances, at radii below, at, and above
// the graph build radius (the latter exercising each substrate's
// fallback scan, including the flat substrate's whole-dataset scan).
func TestEngineConformanceFloat32Neighbors(t *testing.T) {
	for _, m := range []object.Metric{object.Euclidean{}, object.Cosine{}} {
		pts := randomPoints(250, 13, 91) // > GraphFlatJoinDim: graph flat-joins
		const build = 0.9
		flat, engines := float32Engines(t, pts, m, build)
		rounded := flat.Points()
		for name, e := range engines {
			for _, id := range []int{0, 101, 249} {
				for _, r := range []float64{build / 3, build, 1.5 * build} {
					got := map[int]float64{}
					for _, nb := range e.NeighborsAppend(nil, id, r, new(Run)) {
						got[nb.ID] = nb.Dist
					}
					want := map[int]float64{}
					for j := range rounded {
						if j != id {
							if d := m.Dist(rounded[id], rounded[j]); d <= r {
								want[j] = d
							}
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s/%s id=%d r=%g: %d neighbours, want %d", m.Name(), name, id, r, len(got), len(want))
					}
					for j, d := range want {
						if got[j] != d {
							t.Fatalf("%s/%s id=%d r=%g: neighbour %d dist %g want %g", m.Name(), name, id, r, j, got[j], d)
						}
					}
				}
			}
		}
	}
}

// unitNormalize scales every point to unit Euclidean norm — the
// pre-normalised embedding workload the dot-product distance is meant
// for. DisC coverage semantics need d(x,x) <= r; for raw vectors
// 1 − ‖x‖² can exceed any radius, so an object might not cover itself,
// which is a property of the distance, not an engine bug.
func unitNormalize(pts []object.Point) []object.Point {
	out := make([]object.Point, len(pts))
	for i, p := range pts {
		var n float64
		for _, v := range p {
			n += v * v
		}
		n = math.Sqrt(n)
		q := make(object.Point, len(p))
		for j, v := range p {
			q[j] = v / n
		}
		out[i] = q
	}
	return out
}

// TestEngineConformanceCosineAlgorithmsValid: every DisC heuristic must
// produce a verifiable solution on the engines that serve the
// non-metric distances, at both precisions.
func TestEngineConformanceCosineAlgorithmsValid(t *testing.T) {
	pts := unitNormalize(randomPoints(200, 5, 92))
	const r = 0.3
	for _, m := range []object.Metric{object.Cosine{}, object.DotProduct{}} {
		flat64, err := object.Flatten(pts, m)
		if err != nil {
			t.Fatal(err)
		}
		flat32, err := object.Flatten32(pts, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, flat := range []*object.FlatDataset{flat64, flat32} {
			for name, e := range allEngines32(t, flat, r) {
				for alg, run := range discAlgorithms() {
					s := run(e, r)
					if err := VerifySolution(e, s); err != nil {
						t.Errorf("%s/%s/%s/%s: %v", m.Name(), flat.Precision(), name, alg, err)
					}
				}
			}
		}
	}
}

// TestTreeEnginesRejectNonMetric: the ball-pruning engine must refuse
// the triangle-violating metrics at construction — accepting them would
// silently drop true neighbours.
func TestTreeEnginesRejectNonMetric(t *testing.T) {
	pts := randomPoints(50, 3, 93)
	for _, m := range []object.Metric{object.Cosine{}, object.DotProduct{}} {
		cfg := mtree.Config{Capacity: 8, Metric: m, Policy: mtree.MinOverlap}
		if _, err := BuildTreeEngine(cfg, pts); err == nil {
			t.Errorf("mtree accepted %s", m.Name())
		}
	}
}

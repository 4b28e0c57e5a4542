package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/object"
)

// greedyOrderFixture holds the selections of every greedy run in
// greedyOrderRecords as an independent implementation of L′ (a binary
// heap pushed on every decrement) made them. Every other order test
// compares runs that share one bucketQueue, so TestGreedyOrderGolden is
// the check that the queue itself keeps the paper's (count desc, id
// asc) order: any changed pick, pick order or engine work fails it.
const greedyOrderFixture = "testdata/greedy-order.json"

// greedyOrderRecord is one run: its ordered ids, size and accesses.
type greedyOrderRecord struct {
	Name     string `json:"name"`
	IDs      []int  `json:"ids"`
	Size     int    `json:"size"`
	Accesses int64  `json:"accesses"`
}

// greedyOrderRecords runs the selection, zoom, local zoom, weighted and
// multi-radius algorithms over clustered and uniform points under Euclidean,
// Manhattan and cosine distance, on the flat engine, the M-tree (the
// metrics it can index) and the coverage graph, at two radii each.
// Every engine is built afresh per radius and the runs share it in a
// fixed order, so the access counters are deterministic.
func greedyOrderRecords(t *testing.T) []greedyOrderRecord {
	t.Helper()
	clustered, err := dataset.Clustered(240, 2, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := dataset.Uniform(240, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	type metricRadii struct {
		m     object.Metric
		radii []float64
	}
	metrics := []metricRadii{
		{object.Euclidean{}, []float64{0.03, 0.08}},
		{object.Manhattan{}, []float64{0.04, 0.11}},
		{object.Cosine{}, []float64{0.0003, 0.002}},
	}
	type algorithm struct {
		name string
		run  func(e Engine, r float64) *Solution
	}
	algorithms := []algorithm{
		{"basic", func(e Engine, r float64) *Solution { return BasicDisC(e, r, false) }},
		{"basic-pruned", func(e Engine, r float64) *Solution { return BasicDisC(e, r, true) }},
		{"greedy-c", GreedyC},
		{"fast-c", FastC},
	}
	for _, upd := range []UpdateStrategy{UpdateGrey, UpdateWhite, UpdateLazyGrey, UpdateLazyWhite} {
		for _, pruned := range []bool{false, true} {
			opts := GreedyOptions{Update: upd, Pruned: pruned}
			algorithms = append(algorithms, algorithm{greedyName(opts, false), func(e Engine, r float64) *Solution {
				return GreedyDisC(e, r, opts)
			}})
		}
	}

	var recs []greedyOrderRecord
	add := func(name string, s *Solution) {
		recs = append(recs, greedyOrderRecord{Name: name, IDs: s.IDs, Size: s.Size(), Accesses: s.Accesses})
	}
	for _, ds := range []*object.Dataset{clustered, uniform} {
		pts := ds.Points
		for _, mr := range metrics {
			for _, r := range mr.radii {
				engines := map[string]Engine{"flat": flatEngine(t, pts, mr.m)}
				names := []string{"flat"}
				if object.TriangleSafe(mr.m) {
					engines["tree"] = treeEngine(t, pts, mr.m)
					names = append(names, "tree")
				}
				g, err := BuildParallelGraphEngine(pts, mr.m, r, 1)
				if err != nil {
					t.Fatal(err)
				}
				engines["graph"] = g
				for _, name := range append(names, "graph") {
					e := engines[name]
					prefix := fmt.Sprintf("%s/%s/%s/r=%g/", ds.Name, mr.m.Name(), name, r)
					for _, alg := range algorithms {
						add(prefix+alg.name, alg.run(e, r))
					}
					base := func() *Solution {
						return GreedyDisC(e, r, GreedyOptions{Update: UpdateGrey, Pruned: true})
					}
					for _, pruned := range []bool{false, true} {
						s, err := ZoomIn(e, base(), r/2, true, pruned)
						if err != nil {
							t.Fatal(err)
						}
						add(fmt.Sprintf("%sgreedy-zoom-in/pruned=%v", prefix, pruned), s)
						s, err = ZoomIn(e, base(), r/2, false, pruned)
						if err != nil {
							t.Fatal(err)
						}
						add(fmt.Sprintf("%szoom-in/pruned=%v", prefix, pruned), s)
					}
					for _, v := range []ZoomOutVariant{ZoomOutPlain, ZoomOutGreedyA, ZoomOutGreedyB, ZoomOutGreedyC} {
						s, err := ZoomOut(e, base(), 2*r, v)
						if err != nil {
							t.Fatal(err)
						}
						add(prefix+v.String(), s)
					}
					for _, at := range []int{0, 1} {
						for _, div := range []float64{2, 4} {
							prev := base()
							center := prev.IDs[at*len(prev.IDs)/2]
							lr, err := LocalZoomIn(e, prev, center, r/div)
							if err != nil {
								t.Fatal(err)
							}
							recs = append(recs, greedyOrderRecord{
								Name: fmt.Sprintf("%sgreedy-local-zoom-in/center=%d/r/%g", prefix, center, div),
								IDs:  lr.Added, Size: len(lr.Added), Accesses: lr.Accesses,
							})
						}
						prev := base()
						center := prev.IDs[at*len(prev.IDs)/2]
						lr, err := LocalZoomOut(e, prev, center, 2*r)
						if err != nil {
							t.Fatal(err)
						}
						recs = append(recs, greedyOrderRecord{
							Name: fmt.Sprintf("%slocal-zoom-out/center=%d", prefix, center),
							IDs:  lr.Added, Size: len(lr.Added), Accesses: lr.Accesses,
						})
					}
					weights := make([]float64, len(pts))
					for id := range weights {
						weights[id] = float64(id % 7)
					}
					s, err := WeightedGreedyDisC(e, r, weights)
					if err != nil {
						t.Fatal(err)
					}
					add(prefix+"weighted-greedy", s)
					radii := make([]float64, len(pts))
					for id := range radii {
						radii[id] = r * (1 + float64(id%3)/2)
					}
					s, err = MultiRadiusDisC(e, radii)
					if err != nil {
						t.Fatal(err)
					}
					add(prefix+"greedy-multi-radius", s)
				}
			}
		}
	}
	return recs
}

// TestGreedyOrderGolden: every greedy run selects the recorded ids in
// the recorded order at the recorded access count.
func TestGreedyOrderGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(greedyOrderFixture))
	if err != nil {
		t.Fatal(err)
	}
	var want []greedyOrderRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := greedyOrderRecords(t)
	if len(got) != len(want) {
		t.Fatalf("%d runs, fixture has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name || g.Size != w.Size || g.Accesses != w.Accesses || !slices.Equal(g.IDs, w.IDs) {
			t.Errorf("run %d:\n got %s size %d accesses %d ids %v\nwant %s size %d accesses %d ids %v",
				i, g.Name, g.Size, g.Accesses, g.IDs, w.Name, w.Size, w.Accesses, w.IDs)
		}
	}
}

package core

import (
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

// selectFuzzMetrics are the distances FuzzSelectModes draws from: two
// the grid joins, and two only the flat join serves.
var selectFuzzMetrics = []object.Metric{
	object.Euclidean{}, object.Manhattan{}, object.Hamming{}, object.Cosine{},
}

// selectFuzzDenseN is the point count of a dense input: every pair of
// 1,025 points is 1,049,600 adjacency entries, just past
// AdjacencyBudget's floor of 1<<20.
const selectFuzzDenseN = 1025

// FuzzSelectModes decodes bytes into a metric, a dimensionality, a
// radius and a point set, and requires the two Greedy-DisC runs to
// agree on every engine: GreedyDisCComponents must return GreedyDisC's
// ids in GreedyDisC's order, the same on the flat engine, the M-tree
// (for metrics it can index, on sparse inputs), a graph joined at r and
// a graph serving r as a view below a larger ceiling, under the grey,
// white and lazy-grey updates; and every selection must pass CheckDisC.
//
// Layout: metric, dim (1–4), radius (fuzzRadius), mode, then one
// fuzzPoint per dim bytes (at most 256 points). A zero mode byte (rare
// on purpose: dense inputs are slow) makes the input dense: the points
// repeat cyclically up to selectFuzzDenseN and the radius covers every
// pair, so the adjacency passes AdjacencyBudget and the engines
// without a graph run the global fallback. Otherwise bit 1 of the mode
// byte stores the points as float32 (object.Flatten32): the float64
// engines then run over the rounded coordinates, and a flat engine and
// a graph over the float32 rows must select the same ids. The seed
// corpus under testdata/fuzz covers every metric below the budget, a
// grid-joined and a flat-joined metric past it, float32 storage,
// radius zero and duplicates.
func FuzzSelectModes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m := selectFuzzMetrics[int(data[0])%len(selectFuzzMetrics)]
		dim := 1 + int(data[1])%4
		r := fuzzRadius(m, data[2], dim)
		dense := data[3] == 0
		f32 := data[3]&2 != 0
		var pts []object.Point
		for rest := data[4:]; len(rest) >= dim && len(pts) < 256; rest = rest[dim:] {
			pts = append(pts, fuzzPoint(m, rest[:dim]))
		}
		if len(pts) == 0 {
			return
		}
		if dense {
			for i := 0; len(pts) < selectFuzzDenseN; i++ {
				pts = append(pts, pts[i])
			}
			r = coverAllRadius(m, dim)
		}
		var flat32 *object.FlatDataset
		if f32 {
			var err error
			if flat32, err = object.Flatten32(pts, m); err != nil {
				t.Fatal(err)
			}
			pts = flat32.Points()
		}

		// A dense input skips the M-tree: its fallback is the flat
		// engine's, at many times the cost.
		engines := []Engine{flatEngine(t, pts, m)}
		if object.TriangleSafe(m) && !dense {
			engines = append(engines, treeEngine(t, pts, m))
		}
		g, err := BuildParallelGraphEngine(pts, m, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, g)
		if !dense {
			ceil, err := BuildParallelGraphEngine(pts, m, 2*r+0.25, 1)
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, ceil)
		}
		if f32 {
			g32, err := BuildParallelGraphEngineOn(flat32, r, 1)
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, NewFlatEngineOn(flat32), g32)
		}
		for _, upd := range []UpdateStrategy{UpdateGrey, UpdateWhite, UpdateLazyGrey} {
			opts := GreedyOptions{Update: upd, Pruned: true}
			var ref []int
			for i, e := range engines {
				global := GreedyDisC(e, r, opts)
				comp := GreedyDisCComponents(e, r, opts)
				if !slices.Equal(global.IDs, comp.IDs) {
					t.Fatalf("%v engine %d (%T): components select %v, global %v", upd, i, e, comp.IDs, global.IDs)
				}
				if ref == nil {
					ref = global.IDs
				} else if !slices.Equal(global.IDs, ref) {
					t.Fatalf("%v engine %d (%T): selects %v, flat engine %v", upd, i, e, global.IDs, ref)
				}
				if err := CheckDisC(pts, m, comp.IDs, r); err != nil {
					t.Fatalf("%v engine %d (%T): %v", upd, i, e, err)
				}
			}
		}
	})
}

// coverAllRadius bounds every distance between fuzzPoint points of
// dimensionality dim under m.
func coverAllRadius(m object.Metric, dim int) float64 {
	switch m.(type) {
	case object.Hamming:
		return float64(dim)
	case object.Cosine:
		return 2.5
	default:
		return float64(2 * dim)
	}
}

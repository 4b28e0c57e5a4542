package grid

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

// applyInsert mirrors the incremental engine's insert protocol: append,
// query the neighbourhood at r, splice the vertex, bucket the row.
func applyInsert(t *testing.T, dyn *object.DynDataset, mg *MutGrid, adj *DynAdj, p object.Point, r float64, s *Scratch) int {
	t.Helper()
	id, err := dyn.Append(p)
	if err != nil {
		t.Fatal(err)
	}
	nbrs := mg.AppendRange(nil, p, r, id, nil, s)
	adj.AddVertex(id, nbrs)
	mg.Insert(id)
	return id
}

// applyDelete deliberately unbuckets before tombstoning — the order a
// shrink-triggered Rebucket inside Remove must survive (the dying id is
// still alive during the O(n) re-bucket pass and must not stay
// bucketed). LiveDisC uses the opposite, tombstone-first order; between
// the two callers both branches of Remove are exercised.
func applyDelete(t *testing.T, dyn *object.DynDataset, mg *MutGrid, adj *DynAdj, id int) {
	t.Helper()
	adj.RemoveVertex(id)
	mg.Remove(id)
	if err := dyn.Delete(id); err != nil {
		t.Fatal(err)
	}
}

func TestMutGridMatchesBuildAfterCompaction(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		r := 0.12
		rng := rand.New(rand.NewPCG(7, uint64(dim)))
		dyn, err := object.NewDynDataset(object.Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		mg, err := NewMutGrid(dyn, r)
		if err != nil {
			t.Fatal(err)
		}
		adj := NewDynAdj(nil)
		s := NewScratch(dim)
		var live []int
		for step := 0; step < 500; step++ {
			if len(live) == 0 || rng.Float64() < 0.7 {
				p := make(object.Point, dim)
				for i := range p {
					p[i] = rng.Float64()
				}
				live = append(live, applyInsert(t, dyn, mg, adj, p, r, s))
			} else {
				k := rng.IntN(len(live))
				applyDelete(t, dyn, mg, adj, live[k])
				live = append(live[:k], live[k+1:]...)
			}
			if step%97 == 0 {
				if err := checkOccupancy(mg); err != nil {
					t.Fatalf("dim %d step %d: %v", dim, step, err)
				}
			}
		}
		if err := checkOccupancy(mg); err != nil {
			t.Fatal(err)
		}

		// Delete-heavy drain: the insert-biased churn above only ever
		// grows occupancy, so the 4x shrink re-bucket trigger fires here
		// — repeatedly, as the live count quarters — with the dying id
		// still alive during each re-bucket (see applyDelete).
		for len(live) > 5 {
			k := rng.IntN(len(live))
			applyDelete(t, dyn, mg, adj, live[k])
			live = append(live[:k], live[k+1:]...)
			if len(live)%13 == 0 {
				if err := checkOccupancy(mg); err != nil {
					t.Fatalf("dim %d drain at %d live: %v", dim, len(live), err)
				}
			}
		}
		if err := checkOccupancy(mg); err != nil {
			t.Fatal(err)
		}

		flat, remap, err := dyn.CompactFlat()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Build(flat, r)
		if err != nil {
			t.Fatal(err)
		}
		refCSR, _, err := Join(ref, r, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := adj.Compact(remap, flat.Len())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, refCSR) {
			t.Fatalf("dim %d: incrementally spliced CSR differs from batch join", dim)
		}

		// A re-bucketed mutable grid must carry the exact directory of a
		// from-scratch Build over the same live points: same geometry,
		// same per-cell membership (modulo the monotone id remap).
		mg.Rebucket()
		if mg.cell != ref.cell || mg.ncells != ref.ncells ||
			!reflect.DeepEqual(mg.nd, ref.nd) || !reflect.DeepEqual(mg.stride, ref.stride) ||
			!reflect.DeepEqual(mg.min, ref.min) {
			t.Fatalf("dim %d: re-bucketed geometry differs from Build", dim)
		}
		for c := 0; c < ref.ncells; c++ {
			want := ref.ids[ref.start[c]:ref.start[c+1]]
			bucket := mg.buckets[c]
			if len(bucket) != len(want) {
				t.Fatalf("dim %d cell %d: %d bucketed, Build has %d", dim, c, len(bucket), len(want))
			}
			for i, id := range bucket {
				if remap[id] != want[i] {
					t.Fatalf("dim %d cell %d: member %d remaps to %d, Build has %d", dim, c, id, remap[id], want[i])
				}
			}
		}
	}
}

func TestMutGridEmptyAndQuery(t *testing.T) {
	dyn, _ := object.NewDynDataset(object.Chebyshev{})
	mg, err := NewMutGrid(dyn, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(2)
	if got := mg.AppendRange(nil, []float64{0, 0}, 0.5, -1, nil, s); len(got) != 0 {
		t.Fatalf("query on empty grid returned %d neighbours", len(got))
	}
	id0, _ := dyn.Append(object.Point{0, 0})
	mg.Insert(id0) // triggers the first bucket build
	id1, _ := dyn.Append(object.Point{0.3, 0.3})
	mg.Insert(id1)
	// A point far outside the bounding box clamps but stays queryable.
	id2, _ := dyn.Append(object.Point{40, 40})
	mg.Insert(id2)
	got := mg.AppendRange(nil, []float64{0.1, 0.1}, 0.5, -1, nil, NewScratch(2))
	if len(got) != 2 || got[0].ID != id0 || got[1].ID != id1 {
		t.Fatalf("neighbours %v", got)
	}
	got = mg.AppendRange(nil, []float64{39.8, 40}, 0.5, -1, nil, NewScratch(2))
	if len(got) != 1 || got[0].ID != id2 {
		t.Fatalf("out-of-bbox neighbour missed: %v", got)
	}
	if err := checkOccupancy(mg); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMutGrid(dyn, -1); err == nil {
		t.Error("negative radius accepted")
	}
	hd, _ := object.NewDynDataset(object.Hamming{})
	if _, err := NewMutGrid(hd, 1); err == nil {
		t.Error("hamming metric accepted")
	}
}

func TestDynAdjOverBase(t *testing.T) {
	// Seed a base CSR from a small batch join, then mutate on top.
	pts := []object.Point{{0}, {0.05}, {0.5}, {0.55}, {2}}
	flat, err := object.Flatten(pts, object.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(flat, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := Join(g, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	adj := NewDynAdj(base)
	for id := 0; id < 5; id++ {
		if !reflect.DeepEqual(adj.Row(id), base.Row(id)) {
			t.Fatalf("row %d differs from base before any mutation", id)
		}
	}
	// New vertex 5 near points 2 and 3.
	adj.AddVertex(5, []object.Neighbor{{ID: 2, Dist: 0.02}, {ID: 3, Dist: 0.03}})
	if adj.Degree(5) != 2 || adj.Degree(2) != 2 || adj.Degree(3) != 2 {
		t.Fatalf("degrees after add: %d %d %d", adj.Degree(5), adj.Degree(2), adj.Degree(3))
	}
	row2 := adj.Row(2)
	if row2[0].ID != 3 || row2[1].ID != 5 {
		t.Fatalf("row 2 after splice: %v", row2)
	}
	// Base must be untouched.
	if base.Degree(2) != 1 {
		t.Fatal("mutation leaked into the base CSR")
	}
	adj.RemoveVertex(1)
	if adj.Degree(1) != 0 || adj.Degree(0) != 0 {
		t.Fatalf("degrees after remove: %d %d", adj.Degree(1), adj.Degree(0))
	}
	if base.Degree(0) != 1 {
		t.Fatal("remove leaked into the base CSR")
	}
	// Compact: live = {0,2,3,4,5} → dense 0..4.
	remap := []int32{0, -1, 1, 2, 3, 4}
	csr, err := adj.Compact(remap, 5)
	if err != nil {
		t.Fatal(err)
	}
	if csr.Degree(0) != 0 || csr.Degree(1) != 2 || csr.Degree(4) != 2 {
		t.Fatalf("compacted degrees: %d %d %d", csr.Degree(0), csr.Degree(1), csr.Degree(4))
	}
	if r1 := csr.Row(1); r1[0].ID != 2 || r1[1].ID != 4 {
		t.Fatalf("compacted row 1: %v", r1)
	}
}

// TestFoldMatchesDynAdj: folding a base CSR and the edges a churn of
// inserts and deletes records gives, row for row, the adjacency the
// same churn spliced into a DynAdj — and a valid CSR with no sort,
// from a joined base and from none.
func TestFoldMatchesDynAdj(t *testing.T) {
	const r = 0.12
	for _, n := range []int{0, 150} {
		rng := rand.New(rand.NewPCG(5, uint64(n)))
		pts := make([]object.Point, n)
		for i := range pts {
			pts[i] = object.Point{rng.Float64(), rng.Float64()}
		}
		dyn, err := object.NewDynDataset(object.Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		var base *CSR
		if n > 0 {
			flat, err := object.Flatten(pts, object.Euclidean{})
			if err != nil {
				t.Fatal(err)
			}
			g, err := Build(flat, r)
			if err != nil {
				t.Fatal(err)
			}
			if base, _, err = Join(g, r, 1); err != nil {
				t.Fatal(err)
			}
			dyn = object.DynFromFlat(flat)
		}
		mg, err := NewMutGrid(dyn, r)
		if err != nil {
			t.Fatal(err)
		}
		adj := NewDynAdj(base)
		s := NewScratch(2)
		var edges []Edge
		live := make([]int, n)
		for i := range live {
			live[i] = i
		}
		for step := 0; step < 300; step++ {
			if len(live) == 0 || rng.Float64() < 0.7 {
				p := object.Point{rng.Float64(), rng.Float64()}
				id, err := dyn.Append(p)
				if err != nil {
					t.Fatal(err)
				}
				nbrs := mg.AppendRange(nil, p, r, id, nil, s)
				adj.AddVertex(id, nbrs)
				mg.Insert(id)
				for _, nb := range nbrs {
					edges = append(edges, Edge{New: int32(id), Old: int32(nb.ID), Dist: nb.Dist})
				}
				live = append(live, id)
				continue
			}
			k := rng.IntN(len(live))
			applyDelete(t, dyn, mg, adj, live[k])
			live = append(live[:k], live[k+1:]...)
		}
		folded := Fold(base, dyn.Slots(), dyn.Alive, edges)
		if err := folded.Validate(dyn.Slots(), r); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for id := range dyn.Slots() {
			if !slices.Equal(folded.Row(id), adj.Row(id)) {
				t.Fatalf("n=%d: folded row %d = %v, spliced %v", n, id, folded.Row(id), adj.Row(id))
			}
		}
	}
}

// checkOccupancy validates the grid's occupancy invariants: every live
// id bucketed in the cell its coordinates map to, buckets sorted, no
// dead ids bucketed, counts consistent.
func checkOccupancy(g *MutGrid) error {
	seen := 0
	for c, b := range g.buckets {
		for i, id := range b {
			if i > 0 && b[i-1] >= id {
				return fmt.Errorf("grid: bucket %d not ascending at %d", c, id)
			}
			if !g.dyn.Alive(int(id)) {
				return fmt.Errorf("grid: dead id %d bucketed", id)
			}
			if got := g.cellIndex(g.dyn.Row(int(id))); got != int32(c) {
				return fmt.Errorf("grid: id %d bucketed in cell %d, maps to %d", id, c, got)
			}
			if g.cellOf[id] != int32(c) {
				return fmt.Errorf("grid: cellOf[%d]=%d, bucketed in %d", id, g.cellOf[id], c)
			}
			seen++
		}
	}
	if seen != g.dyn.Live() {
		return fmt.Errorf("grid: %d ids bucketed, %d live", seen, g.dyn.Live())
	}
	return nil
}

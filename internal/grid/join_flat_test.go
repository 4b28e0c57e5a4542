package grid

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

func csrEqual(t *testing.T, label string, a, b *CSR) {
	t.Helper()
	if len(a.Offsets) != len(b.Offsets) {
		t.Fatalf("%s: offsets length %d vs %d", label, len(a.Offsets), len(b.Offsets))
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			t.Fatalf("%s: offset %d is %d vs %d", label, i, a.Offsets[i], b.Offsets[i])
		}
	}
	if len(a.Nbrs) != len(b.Nbrs) {
		t.Fatalf("%s: %d vs %d adjacency entries", label, len(a.Nbrs), len(b.Nbrs))
	}
	for i := range a.Nbrs {
		if a.Nbrs[i] != b.Nbrs[i] {
			t.Fatalf("%s: entry %d is %+v vs %+v", label, i, a.Nbrs[i], b.Nbrs[i])
		}
	}
}

// TestJoinCappedRefusesDense: with a cap at the graph's exact entry
// count both joins return the uncapped CSR; one entry less and they
// return ErrTooDense instead, for every worker count.
func TestJoinCappedRefusesDense(t *testing.T) {
	flat := randomFlat(t, 400, 2, object.Euclidean{}, 77)
	const r = 0.2
	g, err := Build(flat, r)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Join(g, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := int64(len(ref.Nbrs))
	joins := map[string]func(workers int, maxEntries int64) (*CSR, int64, error){
		"grid": func(w int, c int64) (*CSR, int64, error) { return JoinCapped(g, r, w, c) },
		"flat": func(w int, c int64) (*CSR, int64, error) { return FlatJoinCapped(flat, r, w, c) },
	}
	for name, join := range joins {
		for _, workers := range []int{1, 3} {
			got, _, err := join(workers, m)
			if err != nil {
				t.Fatalf("%s/%d workers: cap at the entry count refused: %v", name, workers, err)
			}
			csrEqual(t, name, ref, got)
			if _, _, err := join(workers, m-1); !errors.Is(err, ErrTooDense) {
				t.Fatalf("%s/%d workers: cap one below the entry count gave %v, want ErrTooDense", name, workers, err)
			}
		}
	}
}

// TestFlatJoinMatchesGridJoin: on grid-supported metrics the flat
// all-pairs join, its scalar baseline and the cell-pair join must all
// produce the identical CSR (same offsets, ids, bit-identical
// distances), for every worker count.
func TestFlatJoinMatchesGridJoin(t *testing.T) {
	metrics := []object.Metric{object.Euclidean{}, object.Manhattan{}, object.Chebyshev{}}
	for dim := 1; dim <= 4; dim++ {
		m := metrics[dim%len(metrics)]
		flat := randomFlat(t, 150+37*dim, dim, m, int64(900+dim))
		r := 0.15
		g, err := Build(flat, r)
		if err != nil {
			t.Fatal(err)
		}
		ref, refAcc, err := Join(g, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			got, acc, err := FlatJoin(flat, r, workers)
			if err != nil {
				t.Fatal(err)
			}
			csrEqual(t, "flat", ref, got)
			n := int64(flat.Len())
			if want := n * (n - 1); acc != want {
				t.Fatalf("flat examined %d, want all-pairs %d", acc, want)
			}
			sc, _, err := FlatJoinScalar(flat, r, workers)
			if err != nil {
				t.Fatal(err)
			}
			csrEqual(t, "scalar", ref, sc)
			_ = refAcc
		}
	}
}

// TestFlatJoinCosine: for a non-metric distance the grid cannot serve,
// the flat join must agree with per-row brute force over the same
// dataset, including a zero vector (cosine convention dist = 1).
func TestFlatJoinCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n, dim := 180, 7
	pts := make([]object.Point, n)
	for i := range pts {
		p := make(object.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	pts[n-1] = make(object.Point, dim) // zero vector
	for _, prec := range []object.Precision{object.Float64, object.Float32} {
		var flat *object.FlatDataset
		var err error
		if prec == object.Float32 {
			flat, err = object.Flatten32(pts, object.Cosine{})
		} else {
			flat, err = object.Flatten(pts, object.Cosine{})
		}
		if err != nil {
			t.Fatal(err)
		}
		r := 0.3
		csr, _, err := FlatJoin(flat, r, 4)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < n; id++ {
			want := flat.AppendRange(nil, flat.Row(id), r, id)
			got := csr.Row(id)
			if !equalNeighbors(want, got) {
				t.Fatalf("%v: row %d: got %v want %v", prec, id, got, want)
			}
		}
	}
}

// TestFlatJoinFloat32Euclidean: the float32-mirrored dataset's join must
// be bit-identical to the float64 join over the rounded coordinates.
func TestFlatJoinFloat32Euclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n, dim := 200, 19
	pts := make([]object.Point, n)
	for i := range pts {
		p := make(object.Point, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	f32, err := object.Flatten32(pts, object.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	rounded := make([]object.Point, n)
	for i, p := range pts {
		q := make(object.Point, dim)
		for j, v := range p {
			q[j] = float64(float32(v))
		}
		rounded[i] = q
	}
	f64, err := object.Flatten(rounded, object.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	r := 0.9
	a, _, err := FlatJoin(f32, r, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := FlatJoin(f64, r, 3)
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, "f32 vs rounded f64", a, b)
}

// TestFlatJoinTiledMatchesScalar forces the cache-blocked tiling on
// (embedding-width rows make flatTileRows smaller than n) and pins the
// tiled batched join against the per-pair scalar baseline: identical
// CSR, bit-identical distances, every worker count. Covers both the
// widened float64 pre-filters and the block partition of [u+1, n).
func TestFlatJoinTiledMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n, dim := 200, 512
	pts := make([]object.Point, n)
	for i := range pts {
		p := make(object.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	for _, m := range []object.Metric{object.Euclidean{}, object.Cosine{}} {
		flat, err := object.Flatten(pts, m)
		if err != nil {
			t.Fatal(err)
		}
		if tile := flatTileRows(flat, n); tile >= n {
			t.Fatalf("tile %d does not engage tiling at n=%d", tile, n)
		}
		// Wide enough to accept a meaningful edge set for either metric.
		r := 30.0
		if m.Name() == "cosine" {
			r = 0.9
		}
		ref, _, err := FlatJoinScalar(flat, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Nbrs) == 0 {
			t.Fatalf("%s: degenerate workload, no edges", m.Name())
		}
		for _, workers := range []int{1, 3} {
			got, _, err := FlatJoin(flat, r, workers)
			if err != nil {
				t.Fatal(err)
			}
			csrEqual(t, m.Name()+" tiled", ref, got)
		}
	}
}

// TestFlatJoinInvalidRadius: NaN/negative/Inf radii are rejected.
func TestFlatJoinInvalidRadius(t *testing.T) {
	flat := randomFlat(t, 10, 2, object.Euclidean{}, 7)
	for _, r := range []float64{-1} {
		if _, _, err := FlatJoin(flat, r, 1); err == nil {
			t.Errorf("radius %g accepted", r)
		}
	}
}

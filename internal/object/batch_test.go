package object

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"
)

func addrOfFloat32(s []float32) unsafe.Pointer { return unsafe.Pointer(&s[0]) }

// batchMetrics are the metrics with compiled batch plans; halfEuclid
// exercises the generic fallback plan.
func batchMetrics() []Metric {
	return []Metric{Euclidean{}, Manhattan{}, Chebyshev{}, Hamming{}, Cosine{}, DotProduct{}, halfEuclid{}}
}

var batchDims = []int{2, 3, 7, 64, 768}

// randomRows fills a contiguous row-major block with the same value mix
// randomPair uses (identical coords, tiny, large, moderate).
func randomRows(rng *rand.Rand, n, dim int, categorical bool) ([]float64, []float64) {
	q := make([]float64, dim)
	rows := make([]float64, n*dim)
	fill := func(dst []float64) {
		for i := range dst {
			if categorical {
				dst[i] = float64(rng.IntN(5))
				continue
			}
			switch rng.IntN(8) {
			case 0:
				dst[i] = 1.25
			case 1:
				dst[i] = rng.Float64() * 1e-300
			case 2:
				dst[i] = (rng.Float64() - 0.5) * 1e150
			default:
				dst[i] = (rng.Float64() - 0.5) * 20
			}
		}
	}
	fill(q)
	fill(rows)
	// A few adversarial rows: exact copies of q (distance zero) and
	// one-coordinate perturbations (distance decided by a single term).
	for j := 0; j < n && j < 4; j++ {
		copy(rows[j*dim:(j+1)*dim], q)
		if j%2 == 1 {
			rows[j*dim+rng.IntN(dim)] += 1e-9
		}
	}
	return q, rows
}

// TestRawBatchBitIdentical pins the float64 batch contract: every out[j]
// equals the per-pair Raw call bit for bit, for every metric (including
// the generic fallback) across the dimension spread.
func TestRawBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, m := range batchMetrics() {
		for _, dim := range batchDims {
			k := CompileKernel(m, dim)
			n := 37
			q, rows := randomRows(rng, n, dim, m.Name() == "hamming")
			out := make([]float64, n)
			k.RawBatch(q, rows, out)
			for j := 0; j < n; j++ {
				row := rows[j*dim : (j+1)*dim]
				want := k.Raw(q, row)
				if math.Float64bits(out[j]) != math.Float64bits(want) {
					t.Fatalf("%s/%d: row %d RawBatch=%v Raw=%v", m.Name(), dim, j, out[j], want)
				}
			}
		}
	}
}

// TestFilterWithinMatchesScalar pins the fused filter: the accepted id
// set of FilterWithin equals brute-force thresholding
// of per-pair Raw calls, with thresholds chosen adversarially at and
// around exact row distances.
func TestFilterWithinMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for _, m := range batchMetrics() {
		for _, dim := range batchDims {
			k := CompileKernel(m, dim)
			n := 41
			q, rows := randomRows(rng, n, dim, m.Name() == "hamming")
			// Thresholds straddling real row distances bit the early-exit
			// and widening logic hardest.
			pick := k.Raw(q, rows[(n/2)*dim:(n/2+1)*dim])
			for _, rawR := range []float64{pick, math.Nextafter(pick, math.Inf(1)), math.Nextafter(pick, math.Inf(-1)), 0, math.Inf(1)} {
				var want []int32
				for j := 0; j < n; j++ {
					if k.Raw(q, rows[j*dim:(j+1)*dim]) <= rawR {
						want = append(want, 5+int32(j))
					}
				}
				got := k.FilterWithin(q, rows, 5, rawR, nil)
				if len(got) != len(want) {
					t.Fatalf("%s/%d rawR=%v: FilterWithin %v want %v", m.Name(), dim, rawR, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%d rawR=%v: FilterWithin %v want %v", m.Name(), dim, rawR, got, want)
					}
				}
			}
		}
	}
}

// embeddingPoints generates moderate-magnitude points with adversarial
// structure for the float32 path: near-duplicates differing at float32
// resolution, a zero vector, and scaled copies (cosine-identical).
func embeddingPoints(rng *rand.Rand, n, dim int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, dim)
		for j := range p {
			p[j] = (rng.Float64() - 0.5) * 4
		}
		pts[i] = p
	}
	if n >= 4 {
		base := pts[0]
		near := base.Clone()
		near[rng.IntN(dim)] += 3e-8 // below float32 resolution of O(1) values
		pts[1] = near
		scaled := base.Clone()
		for j := range scaled {
			scaled[j] *= 2
		}
		pts[2] = scaled
		pts[3] = make(Point, dim) // zero vector: cosine convention dist = 1
	}
	return pts
}

// roundPoints returns the float64 image of rounding every coordinate to
// float32 — the exact coordinate values a Float32 dataset stores.
func roundPoints(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		q := make(Point, len(p))
		for j, v := range p {
			q[j] = float64(float32(v))
		}
		out[i] = q
	}
	return out
}

// TestFloat32PathBitIdenticalToRounded pins the float32 fast path's
// guarantee, which is stronger than a ULP tolerance: a Float32 dataset
// answers every row-query range scan bit-identically to a Float64
// dataset holding the same rounded coordinates, because the float32
// filter only ever pre-screens and every survivor is re-checked with
// the exact float64 kernel. Radii sit exactly on and around true row
// distances so the widened threshold's boundary behaviour is exercised.
func TestFloat32PathBitIdenticalToRounded(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for _, m := range []Metric{Euclidean{}, Cosine{}, DotProduct{}, Manhattan{}} {
		for _, dim := range batchDims {
			n := 48
			pts := embeddingPoints(rng, n, dim)
			f32, err := Flatten32(pts, m)
			if err != nil {
				t.Fatal(err)
			}
			f64, err := Flatten(roundPoints(pts), m)
			if err != nil {
				t.Fatal(err)
			}
			if !f32.f32OK && m.Name() != "manhattan" {
				t.Fatalf("%s/%d: float32 filter path not engaged on moderate data", m.Name(), dim)
			}
			for trial := 0; trial < 40; trial++ {
				qid := rng.IntN(n)
				other := rng.IntN(n)
				d := f64.Dist(qid, other)
				radii := []float64{d, math.Nextafter(d, math.Inf(1)), math.Nextafter(d, math.Inf(-1)), d * 1.001, 0.5}
				for _, r := range radii {
					got := f32.AppendRange(nil, f32.Row(qid), r, qid)
					want := f64.AppendRange(nil, f64.Row(qid), r, qid)
					if len(got) != len(want) {
						t.Fatalf("%s/%d qid=%d r=%v: float32 path %d hits, float64 %d", m.Name(), dim, qid, r, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
							t.Fatalf("%s/%d qid=%d r=%v: hit %d = %+v want %+v", m.Name(), dim, qid, r, i, got[i], want[i])
						}
					}
					// Sub-range and gather entries must agree with the
					// full scan restricted to their candidates.
					lo, hi := n/4, 3*n/4
					gotRows := f32.AppendRangeRows(nil, qid, lo, hi, qid, r)
					var wantRows []Neighbor
					for _, nb := range want {
						if nb.ID >= lo && nb.ID < hi {
							wantRows = append(wantRows, nb)
						}
					}
					if len(gotRows) != len(wantRows) {
						t.Fatalf("%s/%d qid=%d r=%v: AppendRangeRows %v want %v", m.Name(), dim, qid, r, gotRows, wantRows)
					}
					for i := range gotRows {
						if gotRows[i] != wantRows[i] {
							t.Fatalf("%s/%d qid=%d r=%v: AppendRangeRows %v want %v", m.Name(), dim, qid, r, gotRows, wantRows)
						}
					}
				}
			}
		}
	}
}

// TestFloat32GatherMatchesScalar covers AppendRangeIDs (the grid's cell
// scan entry) on Float32 Euclidean data against the float64 reference.
func TestFloat32GatherMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	for _, dim := range batchDims {
		n := 40
		pts := embeddingPoints(rng, n, dim)
		f32, err := Flatten32(pts, Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		f64, err := Flatten(roundPoints(pts), Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			qid := rng.IntN(n)
			ids := rng.Perm(n)[:n/2]
			ids32 := make([]int32, len(ids))
			for i, id := range ids {
				ids32[i] = int32(id)
			}
			r := f64.Dist(qid, ids[0])
			got := f32.AppendRangeIDs(nil, nil, qid, ids32, qid, r)
			want := f64.AppendRangeIDs(nil, f64.Row(qid), -1, ids32, qid, r)
			if len(got) != len(want) {
				t.Fatalf("dim=%d qid=%d: gather %v want %v", dim, qid, got, want)
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("dim=%d qid=%d: gather hit %d = %+v want %+v", dim, qid, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFloat32IngestTolerance documents the one place precision is lost:
// rounding at ingest. Distances over the rounded dataset stay within
// the documented relative tolerance of the unrounded float64 distances
// for well-scaled data.
func TestFloat32IngestTolerance(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	for _, m := range []Metric{Euclidean{}, Cosine{}} {
		for _, dim := range []int{7, 64, 768} {
			pts := embeddingPoints(rng, 32, dim)
			exact, err := Flatten(pts, m)
			if err != nil {
				t.Fatal(err)
			}
			rounded, err := Flatten32(pts, m)
			if err != nil {
				t.Fatal(err)
			}
			// Ingest rounding perturbs each coordinate by <= 2⁻²⁴
			// relative; across a dim-term accumulation the distance
			// moves by O(dim·2⁻²⁴) relative (plus the same absolute
			// scale for cosine). 2⁻¹² bounds that for dim <= 768 with
			// an order of magnitude to spare.
			const tol = 0x1p-12
			for i := 0; i < 32; i++ {
				for j := i + 1; j < 32; j++ {
					de, dr := exact.Dist(i, j), rounded.Dist(i, j)
					if math.Abs(de-dr) > tol*(1+math.Abs(de)) {
						t.Fatalf("%s/%d: Dist(%d,%d) exact %v rounded %v", m.Name(), dim, i, j, de, dr)
					}
				}
			}
		}
	}
}

// TestFlatten32Validation covers the constructors' error paths and the
// squared norms NewFlatDataset32 derives for an embedding metric.
func TestFlatten32Validation(t *testing.T) {
	if _, err := Flatten32([]Point{{1e300, 0}}, Euclidean{}); err == nil {
		t.Fatal("coordinate overflowing float32 must be rejected")
	}
	if _, err := NewFlatDataset32([]float32{1, 2, 3}, 2, 2, Euclidean{}); err == nil {
		t.Fatal("shape mismatch must be rejected")
	}
	good, err := NewFlatDataset32([]float32{3, 4, 0, 1}, 2, 2, Cosine{})
	if err != nil {
		t.Fatal(err)
	}
	if got := good.sqNorms; len(got) != 2 || got[0] != 25 || got[1] != 1 {
		t.Fatalf("sqNorms = %v", got)
	}
}

// TestFloat32Alignment pins the layout contract: the mirror's base is
// 64-byte-aligned and rows start Stride32 apart with zero padding.
func TestFloat32Alignment(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 53))
	for _, dim := range []int{1, 2, 15, 16, 17, 127, 768} {
		pts := embeddingPoints(rng, 5, dim)
		f, err := Flatten32(pts, Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		if f.Stride32() != (dim+15)&^15 {
			t.Fatalf("dim %d: stride %d", dim, f.Stride32())
		}
		c := f.Coords32()
		if addr := uintptr(addrOfFloat32(c)); addr%64 != 0 {
			t.Fatalf("dim %d: base address %#x not 64-byte aligned", dim, addr)
		}
		for i := 0; i < 5; i++ {
			row := f.row32(i)
			for j := dim; j < f.Stride32(); j++ {
				if row[j] != 0 {
					t.Fatalf("dim %d row %d: padding lane %d = %v", dim, i, j, row[j])
				}
			}
			for j := 0; j < dim; j++ {
				if float64(row[j]) != f.Row(i)[j] {
					t.Fatalf("dim %d row %d lane %d: mirror %v view %v", dim, i, j, row[j], f.Row(i)[j])
				}
			}
		}
	}
}

package object

import (
	"math"
	"math/rand/v2"
	"testing"
)

// filter64Dims straddles the filter64MinDim gate (15/16) on top of the
// float32 suite's dimension spread, so both the plain serial scans and
// the 4-accumulator pre-filter scans are pinned by the same oracle.
var filter64Dims = []int{2, 3, 7, 15, 16, 64, 128, 768}

// TestFloat64FilterBitIdentical pins the float64 pre-filter contract:
// a Float64 dataset's range scans — which above filter64MinDim route
// through the widened 4-accumulator filters of filter64.go — report
// exactly the rows the per-pair reference protocol Finish(Raw(q, row))
// <= r accepts, with bit-identical distances, for radii sitting on and
// around exact row distances (the widened threshold's boundary).
func TestFloat64FilterBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 53))
	for _, m := range []Metric{Euclidean{}, Cosine{}, DotProduct{}} {
		for _, dim := range filter64Dims {
			n := 48
			pts := embeddingPoints(rng, n, dim)
			f, err := Flatten(pts, m)
			if err != nil {
				t.Fatal(err)
			}
			k := CompileKernel(m, dim)
			for trial := 0; trial < 40; trial++ {
				qid := rng.IntN(n)
				q := f.Row(qid)
				d := f.Dist(qid, rng.IntN(n))
				radii := []float64{d, math.Nextafter(d, math.Inf(1)), math.Nextafter(d, math.Inf(-1)), d * 1.001, 0.5}
				for _, r := range radii {
					var want []Neighbor
					for id := 0; id < n; id++ {
						if id == qid {
							continue
						}
						if dd := k.Finish(k.Raw(q, f.Row(id))); dd <= r {
							want = append(want, Neighbor{ID: id, Dist: dd})
						}
					}
					// Row-query and external-query entries must both agree:
					// the float64 filters serve qid < 0 scans too.
					for pass, got := range [][]Neighbor{
						f.AppendRangeRows(nil, qid, 0, n, qid, r),
						f.AppendRange(nil, q, r, qid),
					} {
						if len(got) != len(want) {
							t.Fatalf("%s/%d qid=%d r=%v pass=%d: %d hits, want %d", m.Name(), dim, qid, r, pass, len(got), len(want))
						}
						for i := range got {
							if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
								t.Fatalf("%s/%d qid=%d r=%v pass=%d: hit %d = %+v want %+v", m.Name(), dim, qid, r, pass, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestFloat64GatherMatchesScalar covers the AppendRangeIDs float64
// Euclidean gather (the updater's high-dimensional repair probes)
// against the per-pair reference, in input candidate order.
func TestFloat64GatherMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 61))
	for _, dim := range filter64Dims {
		n := 40
		pts := embeddingPoints(rng, n, dim)
		f, err := Flatten(pts, Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		k := CompileKernel(Euclidean{}, dim)
		for trial := 0; trial < 30; trial++ {
			qid := rng.IntN(n)
			q := f.Row(qid)
			ids := rng.Perm(n)[:n/2]
			ids32 := make([]int32, len(ids))
			for i, id := range ids {
				ids32[i] = int32(id)
			}
			r := f.Dist(qid, ids[0])
			var want []Neighbor
			for _, id32 := range ids32 {
				id := int(id32)
				if id == qid {
					continue
				}
				if dd := k.Finish(k.Raw(q, f.Row(id))); dd <= r {
					want = append(want, Neighbor{ID: id, Dist: dd})
				}
			}
			got := f.AppendRangeIDs(nil, nil, qid, ids32, qid, r)
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

// TestFloat64DirectScanMatchesScalar pins the one-call candidate test
// of the low-dimensional float64 scans (the inlined 2-d
// squared-Euclidean gather and the InRange loops, with the blocked
// early-exit form past blockDim) against the per-pair reference
// Finish(Raw(q, row)) <= r: the same ids in the same order with
// bit-identical distances, for AppendRangeIDs in candidate order and
// AppendRange in id order, row and external queries alike, at radii
// equal to an exact pair distance and one ULP below it.
func TestFloat64DirectScanMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 79))
	for _, m := range []Metric{Euclidean{}, Manhattan{}, Chebyshev{}} {
		for dim := 1; dim <= blockDim+1; dim++ {
			n := 40
			f, err := Flatten(embeddingPoints(rng, n, dim), m)
			if err != nil {
				t.Fatal(err)
			}
			k := CompileKernel(m, dim)
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			for trial := 0; trial < 20; trial++ {
				qid := rng.IntN(n)
				q := f.Row(qid)
				ext := append([]float64(nil), q...)
				perm := rng.Perm(n)
				ids32 := make([]int32, n/2)
				for i := range ids32 {
					ids32[i] = int32(perm[i])
				}
				d := f.Dist(qid, int(ids32[0]))
				for _, r := range []float64{d, math.Nextafter(d, math.Inf(-1)), 2 * d} {
					ref := func(ids []int) []Neighbor {
						var want []Neighbor
						for _, id := range ids {
							if id == qid {
								continue
							}
							if dd := k.Finish(k.Raw(q, f.Row(id))); dd <= r {
								want = append(want, Neighbor{ID: id, Dist: dd})
							}
						}
						return want
					}
					gather := ref(perm[:n/2])
					rows := ref(all)
					for pass, c := range []struct {
						got, want []Neighbor
					}{
						{f.AppendRangeIDs(nil, nil, qid, ids32, qid, r), gather},
						{f.AppendRangeIDs(nil, ext, -1, ids32, qid, r), gather},
						{f.AppendRange(nil, q, r, qid), rows},
						{f.AppendRange(nil, ext, r, qid), rows},
					} {
						if len(c.got) != len(c.want) {
							t.Fatalf("%s/%d qid=%d r=%v pass=%d: %v want %v", m.Name(), dim, qid, r, pass, c.got, c.want)
						}
						for i := range c.got {
							if c.got[i].ID != c.want[i].ID || math.Float64bits(c.got[i].Dist) != math.Float64bits(c.want[i].Dist) {
								t.Fatalf("%s/%d qid=%d r=%v pass=%d: hit %d = %+v want %+v", m.Name(), dim, qid, r, pass, i, c.got[i], c.want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestWithin4SqEuclideanNeverFalselyRejects drives the raw filter
// directly with adversarial magnitude mixes: whenever the reference
// squared distance is within rawR, the widened filter must pass.
func TestWithin4SqEuclideanNeverFalselyRejects(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 71))
	for _, dim := range filter64Dims {
		k := CompileKernel(Euclidean{}, dim)
		n := 64
		q, rows := randomRows(rng, n, dim, false)
		for j := 0; j < n; j++ {
			row := rows[j*dim : (j+1)*dim]
			raw := k.Raw(q, row)
			if math.IsInf(raw, 0) || math.IsNaN(raw) {
				continue
			}
			for _, rawR := range []float64{raw, math.Nextafter(raw, math.Inf(1)), raw * 2} {
				if rawR < 0x1p-80 {
					continue // below the dispatch gate
				}
				wide := rawR * (1 + filterSlack64(dim))
				if !within4SqEuclidean(q, row, wide) {
					t.Fatalf("dim=%d row=%d: filter rejected raw=%v at rawR=%v", dim, j, raw, rawR)
				}
			}
		}
	}
}

package object

import (
	"math"
	"math/rand/v2"
	"testing"
)

// ulpDiff returns the distance in representable float64 steps between two
// finite non-negative values.
func ulpDiff(a, b float64) uint64 {
	ia, ib := math.Float64bits(a), math.Float64bits(b)
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

func randomPair(rng *rand.Rand, dim int, categorical bool) (Point, Point) {
	a := make(Point, dim)
	b := make(Point, dim)
	for i := 0; i < dim; i++ {
		if categorical {
			a[i] = float64(rng.IntN(5))
			b[i] = float64(rng.IntN(5))
			continue
		}
		switch rng.IntN(8) {
		case 0: // identical coordinate
			v := rng.Float64()
			a[i], b[i] = v, v
		case 1: // tiny magnitudes
			a[i] = rng.Float64() * 1e-300
			b[i] = rng.Float64() * 1e-300
		case 2: // large magnitudes
			a[i] = (rng.Float64() - 0.5) * 1e150
			b[i] = (rng.Float64() - 0.5) * 1e150
		default:
			a[i] = (rng.Float64() - 0.5) * 20
			b[i] = (rng.Float64() - 0.5) * 20
		}
	}
	return a, b
}

// TestKernelMatchesMetric is the property test required by the kernel
// exactness contract: for every built-in metric and a spread of
// dimensionalities (covering the 2-D/3-D specialisations and the generic
// fallback), Dist and Finish∘Raw agree with the Metric interface to
// within 1 ULP — in practice bit-for-bit — across random points.
func TestKernelMatchesMetric(t *testing.T) {
	metrics := []Metric{Euclidean{}, Manhattan{}, Chebyshev{}, Hamming{}}
	rng := rand.New(rand.NewPCG(42, 43))
	for _, m := range metrics {
		for _, dim := range []int{1, 2, 3, 4, 7, 16} {
			k := CompileKernel(m, dim)
			if !k.Compiled() {
				t.Fatalf("%s/%d: kernel not compiled", m.Name(), dim)
			}
			for trial := 0; trial < 2000; trial++ {
				a, b := randomPair(rng, dim, m.Name() == "hamming")
				want := m.Dist(a, b)
				if got := k.Dist(a, b); ulpDiff(got, want) > 1 {
					t.Fatalf("%s/%d: Dist=%v want %v (Δ %d ULP) a=%v b=%v",
						m.Name(), dim, got, want, ulpDiff(got, want), a, b)
				}
				raw := k.Raw(a, b)
				if got := k.Finish(raw); ulpDiff(got, want) > 1 {
					t.Fatalf("%s/%d: Finish(Raw)=%v want %v a=%v b=%v",
						m.Name(), dim, got, want, a, b)
				}
			}
		}
	}
}

// TestKernelRawThresholdSound verifies the squared-distance pruning rule
// never drops a true neighbour: whenever Dist(a,b) <= r, the surrogate
// must pass the widened threshold. Radii are chosen adversarially at and
// around the exact distance.
func TestKernelRawThresholdSound(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for _, m := range []Metric{Euclidean{}, Manhattan{}, Chebyshev{}} {
		for _, dim := range []int{1, 2, 3, 5} {
			k := CompileKernel(m, dim)
			for trial := 0; trial < 3000; trial++ {
				a, b := randomPair(rng, dim, false)
				d := m.Dist(a, b)
				if math.IsInf(d, 0) {
					continue
				}
				raw := k.Raw(a, b)
				for _, r := range []float64{d, math.Nextafter(d, math.Inf(1)), d * 1.0000001} {
					if d <= r && raw > k.RawThreshold(r) {
						t.Fatalf("%s/%d: missed neighbour: d=%v r=%v raw=%v thr=%v",
							m.Name(), dim, d, r, raw, k.RawThreshold(r))
					}
				}
			}
		}
	}
}

// TestKernelFallbackMetric: unknown metrics get a wrapping kernel.
type halfEuclid struct{}

func (halfEuclid) Dist(a, b Point) float64 { return Euclidean{}.Dist(a, b) / 2 }
func (halfEuclid) Name() string            { return "half-euclid" }

func TestKernelFallbackMetric(t *testing.T) {
	k := CompileKernel(halfEuclid{}, 3)
	a := Point{1, 2, 3}
	b := Point{4, 5, 6}
	want := halfEuclid{}.Dist(a, b)
	if got := k.Dist(a, b); got != want {
		t.Fatalf("fallback Dist=%v want %v", got, want)
	}
	if k.Raw(a, b) != want || k.RawThreshold(0.5) != 0.5 || k.Finish(want) != want {
		t.Fatal("fallback surrogate must be the identity")
	}
}

func TestFlatDataset(t *testing.T) {
	pts := []Point{{1, 2}, {3, 4}, {5, 6}, {1, 2}}
	f, err := Flatten(pts, Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 4 || f.Dim() != 2 {
		t.Fatalf("Len/Dim = %d/%d", f.Len(), f.Dim())
	}
	for i, p := range pts {
		if !f.Point(i).Equal(p) {
			t.Fatalf("row %d = %v want %v", i, f.Point(i), p)
		}
		for j := range pts {
			if got, want := f.Dist(i, j), (Euclidean{}).Dist(pts[i], pts[j]); got != want {
				t.Fatalf("Dist(%d,%d)=%v want %v", i, j, got, want)
			}
		}
	}
	ns := f.AppendRange(nil, []float64{1, 2}, 0.5, 3)
	if len(ns) != 1 || ns[0].ID != 0 || ns[0].Dist != 0 {
		t.Fatalf("AppendRange=%v", ns)
	}
	// Buffer reuse: results append after existing content.
	pre := []Neighbor{{ID: -1}}
	ns = f.AppendRange(pre, []float64{1, 2}, 10, -1)
	if len(ns) != 5 || ns[0].ID != -1 || ns[1].ID != 0 {
		t.Fatalf("AppendRange with prefix=%v", ns)
	}
	if _, err := Flatten(nil, Euclidean{}); err == nil {
		t.Fatal("Flatten(nil) must fail")
	}
	if _, err := Flatten(pts, nil); err == nil {
		t.Fatal("Flatten with nil metric must fail")
	}
}

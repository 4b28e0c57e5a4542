package object

import "math"

// Kernel is a distance-evaluation plan compiled once for a (metric,
// dimensionality) pair. It removes the two per-evaluation costs of the
// Metric interface from the query hot path: the dynamic dispatch, and —
// for Euclidean — the square root on every candidate that turns out to be
// a miss.
//
// A kernel exposes the true distance (Dist) plus a monotone surrogate
// (Raw) that is cheaper to evaluate: the squared distance for Euclidean,
// the distance itself for every other metric. Range predicates evaluate
// Raw against RawThreshold(r) first and only call Finish (the square
// root) on survivors.
//
// Exactness contract: Dist and Finish∘Raw are bit-for-bit identical to
// the Metric's own Dist on the same platform — the specialised kernels
// replicate the metric's accumulation order exactly — so indexes backed
// by kernels report the same distances and therefore the same neighbour
// sets as the reference implementation. RawThreshold is conservative:
// Raw(a,b) <= RawThreshold(r) whenever Dist(a,b) <= r, so filtering on
// the surrogate never drops a true neighbour; callers must re-check
// Finish(raw) <= r on survivors to discard the (at most one-ULP-wide)
// band of false positives it admits.
type Kernel struct {
	metric Metric
	dim    int
	// squared marks kernels whose Raw is the squared distance.
	squared bool
	dist    func(a, b []float64) float64
	raw     func(a, b []float64) float64
	// One-vs-many plans compiled alongside the scalar bodies (batch.go).
	// rawBatch fills out[j] with Raw(q, row j); within is the per-row
	// range check used by the fused filters, free to stop accumulating
	// as soon as the (monotone non-decreasing) partial value exceeds the
	// threshold.
	rawBatch func(q, rows []float64, dim int, out []float64)
	within   func(q, row []float64, rawR float64) bool
	// direct marks kernels whose within is exactly Raw(row, q) <= rawR
	// (a built-in body below blockDim: no early exit), so one Raw call
	// both tests and measures a candidate (InRange).
	direct bool
}

// CompileKernel selects the specialised implementation for m at the given
// dimensionality. Unknown (user-provided) metrics get a fallback kernel
// that simply wraps m.Dist, so every caller can use the kernel API
// unconditionally.
func CompileKernel(m Metric, dim int) Kernel {
	k := Kernel{metric: m, dim: dim}
	switch m.(type) {
	case Euclidean:
		k.squared = true
		switch dim {
		case 2:
			k.raw, k.dist = sqEuclidean2, euclidean2
		case 3:
			k.raw, k.dist = sqEuclidean3, euclidean3
		default:
			k.raw, k.dist = sqEuclideanN, euclideanN
		}
	case Manhattan:
		switch dim {
		case 2:
			k.dist = manhattan2
		case 3:
			k.dist = manhattan3
		default:
			k.dist = manhattanN
		}
		k.raw = k.dist
	case Chebyshev:
		switch dim {
		case 2:
			k.dist = chebyshev2
		case 3:
			k.dist = chebyshev3
		default:
			k.dist = chebyshevN
		}
		k.raw = k.dist
	case Hamming:
		k.dist = hammingN
		k.raw = k.dist
	case Cosine:
		k.dist = cosineN
		k.raw = k.dist
	case DotProduct:
		k.dist = dotN
		k.raw = k.dist
	default:
		k.dist = func(a, b []float64) float64 { return m.Dist(Point(a), Point(b)) }
		k.raw = k.dist
	}
	compileBatch(&k)
	return k
}

// Metric returns the metric the kernel was compiled for.
func (k *Kernel) Metric() Metric { return k.metric }

// Dim returns the dimensionality the kernel was compiled for (generic
// kernels accept any dimensionality; the specialised ones require it).
func (k *Kernel) Dim() int { return k.dim }

// Compiled reports whether the kernel has been initialised (CompileKernel
// was called); the zero Kernel is not usable.
func (k *Kernel) Compiled() bool { return k.dist != nil }

// Dist returns the true distance, bit-identical to Metric().Dist.
func (k *Kernel) Dist(a, b []float64) float64 { return k.dist(a, b) }

// Raw returns the monotone surrogate distance (squared distance for
// Euclidean, the distance itself otherwise).
func (k *Kernel) Raw(a, b []float64) float64 { return k.raw(a, b) }

// RawThreshold maps a query radius onto the surrogate scale such that
// Dist(a,b) <= r implies Raw(a,b) <= RawThreshold(r). For the squared
// surrogate the bound is r² widened by a few ULPs to absorb the rounding
// of both the squaring and the square root; survivors must be re-checked
// with Finish.
func (k *Kernel) RawThreshold(r float64) float64 {
	if !k.squared {
		return r
	}
	rr := r * r
	// fl(sqrt(raw)) <= r implies raw <= r²(1+5u)/(1-u) with u = 2⁻⁵³;
	// a relative widening of 2⁻⁴⁸ dominates that bound comfortably.
	return rr + rr*0x1p-48
}

// Finish converts a surrogate value back to the true distance,
// bit-identical to what Dist would have returned for the same pair.
func (k *Kernel) Finish(raw float64) float64 {
	if k.squared {
		return math.Sqrt(raw)
	}
	return raw
}

// The specialised bodies below replicate the exact accumulation order of
// the corresponding Metric.Dist loop (s starts at zero and folds terms
// left to right), which is what makes them bit-identical — including on
// architectures where the compiler fuses s += d*d into an FMA, since the
// expression shape matches the reference loop body.

func sqEuclideanN(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func euclideanN(a, b []float64) float64 { return math.Sqrt(sqEuclideanN(a, b)) }

func sqEuclidean2(a, b []float64) float64 {
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	var s float64
	s += d0 * d0
	s += d1 * d1
	return s
}

func euclidean2(a, b []float64) float64 { return math.Sqrt(sqEuclidean2(a, b)) }

func sqEuclidean3(a, b []float64) float64 {
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	var s float64
	s += d0 * d0
	s += d1 * d1
	s += d2 * d2
	return s
}

func euclidean3(a, b []float64) float64 { return math.Sqrt(sqEuclidean3(a, b)) }

func manhattanN(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func manhattan2(a, b []float64) float64 {
	var s float64
	s += math.Abs(a[0] - b[0])
	s += math.Abs(a[1] - b[1])
	return s
}

func manhattan3(a, b []float64) float64 {
	var s float64
	s += math.Abs(a[0] - b[0])
	s += math.Abs(a[1] - b[1])
	s += math.Abs(a[2] - b[2])
	return s
}

func chebyshevN(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func chebyshev2(a, b []float64) float64 {
	var m float64
	if d := math.Abs(a[0] - b[0]); d > m {
		m = d
	}
	if d := math.Abs(a[1] - b[1]); d > m {
		m = d
	}
	return m
}

func chebyshev3(a, b []float64) float64 {
	var m float64
	if d := math.Abs(a[0] - b[0]); d > m {
		m = d
	}
	if d := math.Abs(a[1] - b[1]); d > m {
		m = d
	}
	if d := math.Abs(a[2] - b[2]); d > m {
		m = d
	}
	return m
}

func hammingN(a, b []float64) float64 {
	var s float64
	for i := range a {
		if a[i] != b[i] {
			s++
		}
	}
	return s
}

func cosineN(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/math.Sqrt(na*nb)
}

func dotN(a, b []float64) float64 {
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	return 1 - dot
}

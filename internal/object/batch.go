package object

import "math"

// batch.go implements the one-vs-many kernel plans: evaluating one query
// row against many candidate rows without paying per-pair function-call
// and bounds-check overhead, and fusing the range threshold into the
// inner loop so rows that cannot qualify stop accumulating early.
//
// Exactness contract (mirrors kernel.go): the float64 batch bodies fold
// terms in exactly the scalar kernels' accumulation order, so RawBatch
// output and every surviving row of the filters are bit-identical to
// per-pair Raw calls. Early exit is sound for the monotone metrics
// because their terms are non-negative: each partial sum s satisfies
// fl(s+t) >= s for t >= 0, so once a partial value exceeds the
// threshold the completed value would too — rejected rows are true
// rejects, and accepted rows were folded to completion in the reference
// order. Cosine and dot-product terms are signed, so their bodies never
// early-exit; they instead amortise the norm work (see flat32.go for
// the norm-cached dataset-level paths).

// RawBatch evaluates Raw(q, row) for every row of the contiguous
// row-major block rows (len(rows) must be len(out)*Dim()) and stores
// the results in out. Each out[j] is bit-identical to
// Raw(q, rows[j*dim:(j+1)*dim]).
func (k *Kernel) RawBatch(q, rows []float64, out []float64) {
	k.rawBatch(q, rows, k.dim, out)
}

// InRange is the one-call range test of a single candidate: it returns
// d = Finish(Raw(row, q)) and whether Raw passed rawR and d <= r, the
// test every float64 range scan applies. Below blockDim the monotone
// bodies of within fold exactly Raw's terms and never exit early, so
// one Raw call decides; at or above it, and for custom metrics, the
// early-exit within test runs first and Raw is recomputed only for its
// survivors. For a custom metric the test reads Raw(q, row) and the
// distance Raw(row, q), which agree by the Metric contract's symmetry.
// d is meaningful only when ok is true.
func (k *Kernel) InRange(q, row []float64, rawR, r float64) (d float64, ok bool) {
	if k.direct {
		raw := k.raw(row, q)
		if !(raw <= rawR) {
			return 0, false
		}
		d = k.Finish(raw)
		return d, d <= r
	}
	if !k.within(q, row, rawR) {
		return 0, false
	}
	d = k.Finish(k.raw(row, q))
	return d, d <= r
}

// FilterWithin appends base+j to dst for every row j of the contiguous
// row-major block rows whose surrogate distance to q is <= rawR, in
// ascending row order, and returns the extended slice. The accepted set
// is bit-identical to filtering per-pair Raw calls against the same
// threshold; callers following the RawThreshold protocol must still
// re-check survivors with Finish.
func (k *Kernel) FilterWithin(q, rows []float64, base int32, rawR float64, dst []int32) []int32 {
	dim := k.dim
	within := k.within
	n := len(rows) / dim
	for j, off := 0, 0; j < n; j, off = j+1, off+dim {
		if within(q, rows[off:off+dim:off+dim], rawR) {
			dst = append(dst, base+int32(j))
		}
	}
	return dst
}

// compileBatch installs the one-vs-many plans matching the scalar
// bodies CompileKernel selected. Custom metrics get generic loops over
// the already-installed raw so the batch API works unconditionally.
func compileBatch(k *Kernel) {
	k.direct = k.dim < blockDim
	switch k.metric.(type) {
	case Euclidean:
		k.rawBatch = rawBatchSqEuclidean
		k.within = withinSqEuclidean
	case Manhattan:
		k.rawBatch = rawBatchManhattan
		k.within = withinManhattan
	case Chebyshev:
		k.rawBatch = rawBatchChebyshev
		k.within = withinChebyshev
	case Hamming:
		k.rawBatch = rawBatchHamming
		k.within = withinHamming
	case Cosine:
		k.rawBatch = rawBatchCosine
		k.within = withinCosine
	case DotProduct:
		k.rawBatch = rawBatchDot
		k.within = withinDot
	default:
		// within tests raw(q, row) and survivors recompute raw(row, q):
		// nothing makes a user body bitwise symmetric, so InRange keeps
		// both calls.
		k.direct = false
		raw := k.raw
		k.rawBatch = func(q, rows []float64, dim int, out []float64) {
			for j := range out {
				off := j * dim
				out[j] = raw(q, rows[off:off+dim:off+dim])
			}
		}
		k.within = func(q, row []float64, rawR float64) bool {
			return raw(q, row) <= rawR
		}
	}
}

// blockDim is the early-exit granularity of the monotone within bodies:
// the partial value is tested against the threshold once per blockDim
// folded terms, balancing wasted work past the decision point against
// branch overhead on rows that need the full fold.
const blockDim = 16

func rawBatchSqEuclidean(q, rows []float64, dim int, out []float64) {
	for j, off := 0, 0; j < len(out); j, off = j+1, off+dim {
		row := rows[off : off+dim : off+dim]
		var s float64
		for i, qi := range q {
			d := qi - row[i]
			s += d * d
		}
		out[j] = s
	}
}

func withinSqEuclidean(q, row []float64, rawR float64) bool {
	var s float64
	dim := len(q)
	i := 0
	for i+blockDim <= dim {
		for e := i + blockDim; i < e; i++ {
			d := q[i] - row[i]
			s += d * d
		}
		if s > rawR {
			return false
		}
	}
	for ; i < dim; i++ {
		d := q[i] - row[i]
		s += d * d
	}
	return s <= rawR
}

func rawBatchManhattan(q, rows []float64, dim int, out []float64) {
	for j, off := 0, 0; j < len(out); j, off = j+1, off+dim {
		row := rows[off : off+dim : off+dim]
		var s float64
		for i, qi := range q {
			s += math.Abs(qi - row[i])
		}
		out[j] = s
	}
}

func withinManhattan(q, row []float64, rawR float64) bool {
	var s float64
	dim := len(q)
	i := 0
	for i+blockDim <= dim {
		for e := i + blockDim; i < e; i++ {
			s += math.Abs(q[i] - row[i])
		}
		if s > rawR {
			return false
		}
	}
	for ; i < dim; i++ {
		s += math.Abs(q[i] - row[i])
	}
	return s <= rawR
}

func rawBatchChebyshev(q, rows []float64, dim int, out []float64) {
	for j, off := 0, 0; j < len(out); j, off = j+1, off+dim {
		row := rows[off : off+dim : off+dim]
		var m float64
		for i, qi := range q {
			if d := math.Abs(qi - row[i]); d > m {
				m = d
			}
		}
		out[j] = m
	}
}

func withinChebyshev(q, row []float64, rawR float64) bool {
	var m float64
	dim := len(q)
	i := 0
	for i+blockDim <= dim {
		for e := i + blockDim; i < e; i++ {
			if d := math.Abs(q[i] - row[i]); d > m {
				m = d
			}
		}
		if m > rawR {
			return false
		}
	}
	for ; i < dim; i++ {
		if d := math.Abs(q[i] - row[i]); d > m {
			m = d
		}
	}
	return m <= rawR
}

func rawBatchHamming(q, rows []float64, dim int, out []float64) {
	for j, off := 0, 0; j < len(out); j, off = j+1, off+dim {
		row := rows[off : off+dim : off+dim]
		var s float64
		for i, qi := range q {
			if qi != row[i] {
				s++
			}
		}
		out[j] = s
	}
}

func withinHamming(q, row []float64, rawR float64) bool {
	var s float64
	dim := len(q)
	i := 0
	for i+blockDim <= dim {
		for e := i + blockDim; i < e; i++ {
			if q[i] != row[i] {
				s++
			}
		}
		if s > rawR {
			return false
		}
	}
	for ; i < dim; i++ {
		if q[i] != row[i] {
			s++
		}
	}
	return s <= rawR
}

// The cosine/dot batch bodies match the scalar reference accumulator by
// accumulator: cosineN folds dot, ‖a‖² and ‖b‖² in one interleaved
// loop, but each accumulator only ever sees its own terms in index
// order, so computing them in separate loops produces bit-identical
// values. That is what lets the batch path hoist the query norm out of
// the row loop (and flat32.go additionally cache the per-row norms)
// without breaking the exactness contract.

func rawBatchCosine(q, rows []float64, dim int, out []float64) {
	var na float64
	for _, qi := range q {
		na += qi * qi
	}
	for j, off := 0, 0; j < len(out); j, off = j+1, off+dim {
		row := rows[off : off+dim : off+dim]
		var dot, nb float64
		for i, qi := range q {
			dot += qi * row[i]
			nb += row[i] * row[i]
		}
		if na == 0 || nb == 0 {
			out[j] = 1
			continue
		}
		out[j] = 1 - dot/math.Sqrt(na*nb)
	}
}

func withinCosine(q, row []float64, rawR float64) bool {
	var dot, na, nb float64
	for i, qi := range q {
		dot += qi * row[i]
		na += qi * qi
		nb += row[i] * row[i]
	}
	if na == 0 || nb == 0 {
		return 1 <= rawR
	}
	return 1-dot/math.Sqrt(na*nb) <= rawR
}

func rawBatchDot(q, rows []float64, dim int, out []float64) {
	for j, off := 0, 0; j < len(out); j, off = j+1, off+dim {
		row := rows[off : off+dim : off+dim]
		var dot float64
		for i, qi := range q {
			dot += qi * row[i]
		}
		out[j] = 1 - dot
	}
}

func withinDot(q, row []float64, rawR float64) bool {
	var dot float64
	for i, qi := range q {
		dot += qi * row[i]
	}
	return 1-dot <= rawR
}

package object

import (
	"fmt"
	"math"
	"unsafe"
)

// flat32.go implements the float32 fast path: padded, 64-byte-aligned
// float32 coordinate storage plus pre-filters that reject most
// candidates at half the memory traffic of the float64 scan, with
// multi-accumulator inner loops the hardware can overlap.
//
// Correctness model: for a Float32 dataset the float32 coordinates are
// authoritative — the float64 view stores float64(float32(v)) exactly —
// so the float32 filter approximates the float64 computation over
// *identical* input values. The filter compares against a threshold
// widened by a bound on the float32 accumulation error, so it never
// rejects a true neighbour; every survivor is re-checked with the exact
// float64 kernel. Selections over a Float32 dataset are therefore
// bit-identical whether or not the fast path ran, and across every
// engine — the precision trade-off happens once, at ingest, when
// coordinates are rounded.
//
// The fast path only serves queries that are dataset rows (IsRow):
// rounding an external query point to float32 would introduce an input
// perturbation the widening does not model. External queries simply
// take the float64 path.

// Precision selects the coordinate storage width of a FlatDataset.
type Precision uint8

const (
	// Float64 stores coordinates at full double precision (the default).
	Float64 Precision = iota
	// Float32 rounds coordinates to float32 at ingest and keeps an
	// aligned float32 mirror for batched pre-filtering. Exact float64
	// arithmetic over the rounded values remains the source of truth.
	Float32
)

// String returns "float64" or "float32".
func (p Precision) String() string {
	if p == Float32 {
		return "float32"
	}
	return "float64"
}

// stride32 pads a row to a multiple of 16 float32 lanes (one 64-byte
// cache line), so every row starts cache-line-aligned and the unrolled
// loops need no scalar tail; the padding is zero-filled, which
// contributes nothing to any supported metric's accumulation.
func padStride32(dim int) int { return (dim + 15) &^ 15 }

// maxAbs32 bounds coordinate magnitudes admitted to the float32 filter
// path: |v| <= 2^45 keeps every intermediate (differences, squares,
// length-dim sums) comfortably inside float32 range, so the relative
// error analysis is not polluted by overflow.
const maxAbs32 = float32(0x1p45)

// alignedFloat32 allocates a 64-byte-aligned []float32 of length n.
func alignedFloat32(n int) []float32 {
	buf := make([]float32, n+15)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % 64; rem != 0 {
		off = int(64-rem) / 4
	}
	return buf[off : off+n : off+n]
}

// Flatten32 copies pts into float32 flat storage (rounding each
// coordinate once) and compiles the distance kernel for m. Coordinates
// whose magnitude overflows float32 are rejected.
func Flatten32(pts []Point, m Metric) (*FlatDataset, error) {
	dim, err := ValidatePoints(pts)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("object: flatten32: nil metric")
	}
	f := &FlatDataset{
		n: len(pts), dim: dim, prec: Float32,
		stride32: padStride32(dim),
		kern:     CompileKernel(m, dim),
	}
	f.coords32 = alignedFloat32(f.n * f.stride32)
	f.coords = make([]float64, f.n*dim)
	for i, p := range pts {
		r32 := f.coords32[i*f.stride32 : i*f.stride32+dim]
		r64 := f.coords[i*dim : i*dim+dim]
		for j, v := range p {
			c := float32(v)
			if math.IsInf(float64(c), 0) && !math.IsInf(v, 0) {
				return nil, fmt.Errorf("object: flatten32: coordinate %g of point %d overflows float32", v, i)
			}
			r32[j] = c
			r64[j] = float64(c)
		}
	}
	f.initDerived()
	return f, nil
}

// NewFlatDataset32 builds a Float32 dataset from unpadded row-major
// float32 storage (len(coords32) must equal n*dim), copying it into the
// padded aligned layout and deriving the float64 view and, for the
// embedding metrics, the per-row squared norms.
func NewFlatDataset32(coords32 []float32, n, dim int, m Metric) (*FlatDataset, error) {
	if n <= 0 || dim <= 0 {
		return nil, fmt.Errorf("object: flat dataset32: invalid shape %d x %d", n, dim)
	}
	if len(coords32) != n*dim {
		return nil, fmt.Errorf("object: flat dataset32: %d coordinates for shape %d x %d", len(coords32), n, dim)
	}
	if m == nil {
		return nil, fmt.Errorf("object: flat dataset32: nil metric")
	}
	f := &FlatDataset{
		n: n, dim: dim, prec: Float32,
		stride32: padStride32(dim),
		kern:     CompileKernel(m, dim),
	}
	f.coords32 = alignedFloat32(n * f.stride32)
	f.coords = make([]float64, n*dim)
	for i := 0; i < n; i++ {
		src := coords32[i*dim : (i+1)*dim]
		copy(f.coords32[i*f.stride32:], src)
		r64 := f.coords[i*dim : (i+1)*dim]
		for j, c := range src {
			r64[j] = float64(c)
		}
	}
	f.initDerived()
	return f, nil
}

// Precision returns the coordinate storage precision.
func (f *FlatDataset) Precision() Precision { return f.prec }

// Stride32 returns the padded float32 row stride (0 for Float64
// datasets).
func (f *FlatDataset) Stride32() int { return f.stride32 }

// Coords32 exposes the padded float32 mirror (read-only by convention;
// nil for Float64 datasets). Rows are Stride32 apart with zero-filled
// tails; the snapshot writer de-pads via Stride32.
func (f *FlatDataset) Coords32() []float32 { return f.coords32 }

// row32 returns the padded float32 row of id.
func (f *FlatDataset) row32(id int) []float32 {
	off := id * f.stride32
	return f.coords32[off : off+f.stride32 : off+f.stride32]
}

// initDerived computes the per-row caches: squared norms for the
// embedding metrics, and the float32 threshold-widening inputs plus the
// magnitude gate for Float32 datasets.
func (f *FlatDataset) initDerived() {
	switch f.kern.metric.(type) {
	case Cosine, DotProduct:
		f.sqNorms = make([]float64, f.n)
		for i := 0; i < f.n; i++ {
			var s float64
			for _, v := range f.Row(i) {
				s += v * v
			}
			f.sqNorms[i] = s
		}
	}
	if f.prec != Float32 {
		return
	}
	var maxAbs float32
	for _, v := range f.coords32 {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	// A NaN coordinate fails the <= and disables the fast path too.
	f.f32OK = maxAbs <= maxAbs32
	switch f.kern.metric.(type) {
	case Cosine:
		f.invN32 = make([]float32, f.n)
		for i, s := range f.sqNorms {
			if s == 0 {
				continue // invN32 stays 0: the filter then yields the exact convention dist = 1
			}
			if s < 0x1p-80 || s > 0x1p80 {
				f.f32OK = false
			}
			f.invN32[i] = float32(1 / math.Sqrt(s))
		}
	case DotProduct:
		f.norms32 = make([]float32, f.n)
		for i, s := range f.sqNorms {
			if s > 0x1p80 {
				f.f32OK = false
			}
			f.norms32[i] = float32(math.Sqrt(s))
		}
	}
}

// filterSlack32 is the relative threshold widening of the float32
// filters: a bound on the float32 accumulation error of a dim-term sum
// (4 accumulators, two roundings per term, checkpoint sums) with margin
// for the float64→float32 threshold conversion. False positives cost a
// re-check; false negatives are impossible while the gates hold.
func filterSlack32(dim int) float64 { return float64(dim+64) * 0x1p-24 }

// appendRows is the shared scan body behind AppendRange and
// AppendRangeRows: every id in [lo, hi) except exclude whose distance
// to the query is <= r is appended in ascending id order. qid >= 0
// marks the query as row qid (q may then be nil) and unlocks the
// float32 pre-filters; qid < 0 scans an external point q with the
// float64 kernels, which above filter64MinDim still route through the
// widened float64 pre-filters (filter64.go). The plain scan tests each
// candidate with one kernel call (InRange).
func (f *FlatDataset) appendRows(dst []Neighbor, q []float64, qid, lo, hi, exclude int, r float64) []Neighbor {
	rawR := f.kern.RawThreshold(r)
	if qid >= 0 && f.f32OK {
		switch f.kern.metric.(type) {
		case Euclidean:
			// The relative widening needs a threshold clear of the
			// subnormal range; any practical radius is.
			if rawR >= 0x1p-80 {
				return f.appendRows32Euclidean(dst, qid, lo, hi, exclude, r, rawR)
			}
		case Cosine:
			return f.appendRows32Cosine(dst, qid, lo, hi, exclude, r)
		case DotProduct:
			return f.appendRows32Dot(dst, qid, lo, hi, exclude, r)
		}
	}
	if q == nil {
		q = f.Row(qid)
	}
	if f.dim >= filter64MinDim {
		switch f.kern.metric.(type) {
		case Euclidean:
			if rawR >= 0x1p-80 {
				return f.appendRows64Euclidean(dst, q, lo, hi, exclude, r, rawR)
			}
		case Cosine:
			return f.appendRows64Cosine(dst, q, qid, lo, hi, exclude, r)
		case DotProduct:
			return f.appendRows64Dot(dst, q, qid, lo, hi, exclude, r)
		}
	}
	switch f.kern.metric.(type) {
	case Cosine:
		return f.appendRowsCosine(dst, q, qid, lo, hi, exclude, r)
	case DotProduct:
		return f.appendRowsDot(dst, q, lo, hi, exclude, r)
	}
	k := &f.kern
	dim := f.dim
	for id, off := lo, lo*dim; id < hi; id, off = id+1, off+dim {
		if id == exclude {
			continue
		}
		if d, ok := k.InRange(q, f.coords[off:off+dim:off+dim], rawR, r); ok {
			dst = append(dst, Neighbor{ID: id, Dist: d})
		}
	}
	return dst
}

// AppendRangeIDs appends to dst every candidate in ids (in input order)
// except exclude whose distance to the query is <= r. qid >= 0 marks
// the query as row qid and unlocks the float32 pre-filter (Euclidean);
// the grid's cell scans are its caller, and the grid only serves the Lp
// metrics, so no cosine/dot gather variant exists. The float64 scan
// below the pre-filters tests each candidate with one kernel call,
// made directly for the 2-d Euclidean body so it inlines.
func (f *FlatDataset) AppendRangeIDs(dst []Neighbor, q []float64, qid int, ids []int32, exclude int, r float64) []Neighbor {
	rawR := f.kern.RawThreshold(r)
	if qid >= 0 && f.f32OK && rawR >= 0x1p-80 {
		if _, ok := f.kern.metric.(Euclidean); ok {
			return f.appendIDs32Euclidean(dst, qid, ids, exclude, r, rawR)
		}
	}
	if q == nil {
		q = f.Row(qid)
	}
	if f.dim >= filter64MinDim && rawR >= 0x1p-80 {
		if _, ok := f.kern.metric.(Euclidean); ok {
			return f.appendIDs64Euclidean(dst, q, ids, exclude, r, rawR)
		}
	}
	k := &f.kern
	dim := f.dim
	if k.squared && dim == 2 {
		q := q[:2:2]
		for _, id32 := range ids {
			id := int(id32)
			if id == exclude {
				continue
			}
			off := id * 2
			if raw := sqEuclidean2(f.coords[off:off+2:off+2], q); raw <= rawR {
				if d := math.Sqrt(raw); d <= r {
					dst = append(dst, Neighbor{ID: id, Dist: d})
				}
			}
		}
		return dst
	}
	for _, id32 := range ids {
		id := int(id32)
		if id == exclude {
			continue
		}
		off := id * dim
		if d, ok := k.InRange(q, f.coords[off:off+dim:off+dim], rawR, r); ok {
			dst = append(dst, Neighbor{ID: id, Dist: d})
		}
	}
	return dst
}

func (f *FlatDataset) appendRows32Euclidean(dst []Neighbor, qid, lo, hi, exclude int, r, rawR float64) []Neighbor {
	q32 := f.row32(qid)
	q64 := f.Row(qid)
	wide := float32(rawR * (1 + filterSlack32(f.dim)))
	dim, s32 := f.dim, f.stride32
	for id, off := lo, lo*s32; id < hi; id, off = id+1, off+s32 {
		if id == exclude {
			continue
		}
		if !within32SqEuclidean(q32, f.coords32[off:off+s32:off+s32], wide) {
			continue
		}
		o64 := id * dim
		if raw := f.kern.raw(f.coords[o64:o64+dim:o64+dim], q64); raw <= rawR {
			if d := f.kern.Finish(raw); d <= r {
				dst = append(dst, Neighbor{ID: id, Dist: d})
			}
		}
	}
	return dst
}

func (f *FlatDataset) appendIDs32Euclidean(dst []Neighbor, qid int, ids []int32, exclude int, r, rawR float64) []Neighbor {
	q32 := f.row32(qid)
	q64 := f.Row(qid)
	wide := float32(rawR * (1 + filterSlack32(f.dim)))
	dim, s32 := f.dim, f.stride32
	for _, id32 := range ids {
		id := int(id32)
		if id == exclude {
			continue
		}
		off := id * s32
		if !within32SqEuclidean(q32, f.coords32[off:off+s32:off+s32], wide) {
			continue
		}
		o64 := id * dim
		if raw := f.kern.raw(f.coords[o64:o64+dim:o64+dim], q64); raw <= rawR {
			if d := f.kern.Finish(raw); d <= r {
				dst = append(dst, Neighbor{ID: id, Dist: d})
			}
		}
	}
	return dst
}

func (f *FlatDataset) appendRows32Cosine(dst []Neighbor, qid, lo, hi, exclude int, r float64) []Neighbor {
	q32 := f.row32(qid)
	invQ := f.invN32[qid]
	// Cosine values live in [0, 2], so an absolute widening suffices;
	// it also absorbs the float32 rounding of r itself.
	wide := float32(r) + float32(filterSlack32(f.dim))
	naQ := f.sqNorms[qid]
	s32 := f.stride32
	for id, off := lo, lo*s32; id < hi; id, off = id+1, off+s32 {
		if id == exclude {
			continue
		}
		if 1-dot32(q32, f.coords32[off:off+s32:off+s32])*invQ*f.invN32[id] > wide {
			continue
		}
		if d := f.cosineDistRow(naQ, qid, id); d <= r {
			dst = append(dst, Neighbor{ID: id, Dist: d})
		}
	}
	return dst
}

func (f *FlatDataset) appendRows32Dot(dst []Neighbor, qid, lo, hi, exclude int, r float64) []Neighbor {
	q32 := f.row32(qid)
	q64 := f.Row(qid)
	// 1 − ⟨a,b⟩ is unbounded, so the widening scales with ‖a‖‖b‖ (which
	// bounds the term-magnitude sum by Cauchy–Schwarz), plus a small
	// absolute term for the final subtraction from 1.
	slack := filterSlack32(f.dim) * float64(f.norms32[qid])
	dim, s32 := f.dim, f.stride32
	for id, off := lo, lo*s32; id < hi; id, off = id+1, off+s32 {
		if id == exclude {
			continue
		}
		raw32 := 1 - dot32(q32, f.coords32[off:off+s32:off+s32])
		if float64(raw32) > r+slack*float64(f.norms32[id])+0x1p-20 {
			continue
		}
		o64 := id * dim
		row := f.coords[o64 : o64+dim : o64+dim]
		var dot float64
		for i, qi := range q64 {
			dot += qi * row[i]
		}
		if d := 1 - dot; d <= r {
			dst = append(dst, Neighbor{ID: id, Dist: d})
		}
	}
	return dst
}

// cosineDistRow computes the exact cosine distance between rows qid and
// id, bit-identical to the scalar kernel: the cached sqNorms are folded
// in the reference order, and float multiplication commutes bitwise, so
// sqrt(naQ*sqNorms[id]) equals the interleaved loop's sqrt(na*nb).
func (f *FlatDataset) cosineDistRow(naQ float64, qid, id int) float64 {
	nb := f.sqNorms[id]
	if naQ == 0 || nb == 0 {
		return 1
	}
	q := f.Row(qid)
	row := f.Row(id)
	var dot float64
	for i, qi := range q {
		dot += qi * row[i]
	}
	return 1 - dot/math.Sqrt(naQ*nb)
}

func (f *FlatDataset) appendRowsCosine(dst []Neighbor, q []float64, qid, lo, hi, exclude int, r float64) []Neighbor {
	var naQ float64
	if qid >= 0 {
		naQ = f.sqNorms[qid]
	} else {
		for _, v := range q {
			naQ += v * v
		}
	}
	dim := f.dim
	for id, off := lo, lo*dim; id < hi; id, off = id+1, off+dim {
		if id == exclude {
			continue
		}
		row := f.coords[off : off+dim : off+dim]
		var dot float64
		for i, qi := range q {
			dot += qi * row[i]
		}
		d := 1.0
		if naQ != 0 && f.sqNorms[id] != 0 {
			d = 1 - dot/math.Sqrt(naQ*f.sqNorms[id])
		}
		if d <= r {
			dst = append(dst, Neighbor{ID: id, Dist: d})
		}
	}
	return dst
}

func (f *FlatDataset) appendRowsDot(dst []Neighbor, q []float64, lo, hi, exclude int, r float64) []Neighbor {
	dim := f.dim
	for id, off := lo, lo*dim; id < hi; id, off = id+1, off+dim {
		if id == exclude {
			continue
		}
		row := f.coords[off : off+dim : off+dim]
		var dot float64
		for i, qi := range q {
			dot += qi * row[i]
		}
		if d := 1 - dot; d <= r {
			dst = append(dst, Neighbor{ID: id, Dist: d})
		}
	}
	return dst
}

// within32SqEuclidean is the float32 squared-Euclidean pre-filter over
// padded rows: 4 independent accumulators over 4-lane groups, partial
// total tested against the widened threshold every 32 lanes. A false
// return is definitive (the widened threshold plus the monotonicity of
// non-negative partial sums guarantee the exact value exceeds rawR);
// true only means "re-check in float64".
func within32SqEuclidean(q, row []float32, wide float32) bool {
	var s0, s1, s2, s3 float32
	n := len(q)
	for i := 0; i < n; i += 32 {
		e := i + 32
		if e > n {
			e = n
		}
		for j := i; j < e; j += 4 {
			a := q[j : j+4 : j+4]
			b := row[j : j+4 : j+4]
			d0 := a[0] - b[0]
			d1 := a[1] - b[1]
			d2 := a[2] - b[2]
			d3 := a[3] - b[3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if (s0+s1)+(s2+s3) > wide {
			return false
		}
	}
	return true
}

// dot32 is the 4-accumulator float32 dot product over padded rows. No
// early exit: dot terms are signed, so partial sums are not monotone.
func dot32(q, row []float32) float32 {
	var s0, s1, s2, s3 float32
	for j := 0; j < len(q); j += 4 {
		a := q[j : j+4 : j+4]
		b := row[j : j+4 : j+4]
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
	}
	return (s0 + s1) + (s2 + s3)
}

package object

import (
	"fmt"

	"github.com/discdiversity/disc/internal/bitset"
)

// FlatDataset stores the coordinates of n points in a single contiguous
// row-major []float64 (stride = Dim) together with a Kernel compiled for
// the metric. Compared with a []Point — a slice of independently
// heap-allocated vectors — the flat layout keeps sequential scans inside
// one cache-friendly allocation and makes every row access a bounds-check
// rather than a pointer chase. It is the storage the zero-allocation
// query path is built on.
//
// A dataset built with Flatten32/NewFlatDataset32 additionally keeps the
// authoritative coordinates as a 64-byte-aligned, padded float32 mirror
// (see flat32.go); the []float64 view then holds float64(float32(v)) and
// remains what every exact kernel evaluates, so all distance results are
// bit-identical whether or not the float32 fast path pre-filtered them.
type FlatDataset struct {
	coords []float64
	n, dim int
	kern   Kernel

	prec Precision
	// coords32 is the padded (stride32 per row, zero-filled tail),
	// 64-byte-aligned float32 mirror; non-nil only for Float32 datasets.
	coords32 []float32
	stride32 int
	// sqNorms[i] = Σ coords[i][j]², folded left to right exactly as the
	// cosine kernel folds its ‖b‖² accumulator; non-nil for cosine and
	// dot-product datasets of either precision.
	sqNorms []float64
	// invN32[i] = float32(1/√sqNorms[i]) (0 for zero rows; cosine) and
	// norms32[i] = float32(√sqNorms[i]) (dot product) back the float32
	// filter's threshold widening.
	invN32  []float32
	norms32 []float32
	// f32OK gates the float32 filter path: coordinate and norm
	// magnitudes must sit where its error analysis holds (flat32.go).
	f32OK bool
}

// Flatten copies pts into flat storage and compiles the distance kernel
// for m. The original points are not retained.
func Flatten(pts []Point, m Metric) (*FlatDataset, error) {
	dim, err := ValidatePoints(pts)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("object: flatten: nil metric")
	}
	coords := make([]float64, len(pts)*dim)
	for i, p := range pts {
		copy(coords[i*dim:(i+1)*dim], p)
	}
	f := &FlatDataset{coords: coords, n: len(pts), dim: dim, kern: CompileKernel(m, dim)}
	f.initDerived()
	return f, nil
}

// NewFlatDataset wraps existing row-major storage — n points of dim
// coordinates each, so len(coords) must equal n*dim — without copying,
// and compiles the distance kernel for m. The snapshot loader uses it to
// alias a dataset straight out of a decoded file buffer; the storage
// must not be modified afterwards.
func NewFlatDataset(coords []float64, n, dim int, m Metric) (*FlatDataset, error) {
	if n <= 0 || dim <= 0 {
		return nil, fmt.Errorf("object: flat dataset: invalid shape %d x %d", n, dim)
	}
	if len(coords) != n*dim {
		return nil, fmt.Errorf("object: flat dataset: %d coordinates for shape %d x %d", len(coords), n, dim)
	}
	if m == nil {
		return nil, fmt.Errorf("object: flat dataset: nil metric")
	}
	f := &FlatDataset{coords: coords, n: n, dim: dim, kern: CompileKernel(m, dim)}
	f.initDerived()
	return f, nil
}

// Len returns the number of points.
func (f *FlatDataset) Len() int { return f.n }

// Dim returns the dimensionality.
func (f *FlatDataset) Dim() int { return f.dim }

// Kernel returns the compiled distance kernel.
func (f *FlatDataset) Kernel() *Kernel { return &f.kern }

// Metric returns the metric the kernel was compiled for.
func (f *FlatDataset) Metric() Metric { return f.kern.metric }

// Row returns the coordinates of point id as a subslice of the flat
// storage. The caller must not modify or grow it.
func (f *FlatDataset) Row(id int) []float64 {
	off := id * f.dim
	return f.coords[off : off+f.dim : off+f.dim]
}

// IsRow reports whether q is exactly the storage of Row(id) (not merely
// equal coordinates). Engines use it to recognise queries that are
// dataset rows, which is what unlocks the float32 fast path: a row's
// float32 image is stored, whereas an external query point would first
// have to be rounded, invalidating the filter's error analysis.
func (f *FlatDataset) IsRow(q []float64, id int) bool {
	if id < 0 || id >= f.n || len(q) != f.dim {
		return false
	}
	return &q[0] == &f.coords[id*f.dim]
}

// Point is Row typed as a Point, for Engine interoperability. Zero-copy.
func (f *FlatDataset) Point(id int) Point { return Point(f.Row(id)) }

// Points materialises one Point header per row, all aliasing the flat
// storage (no coordinate copies). The result is what APIs built around
// []Point need when the authoritative storage is already flat.
func (f *FlatDataset) Points() []Point {
	pts := make([]Point, f.n)
	for i := range pts {
		pts[i] = f.Point(i)
	}
	return pts
}

// Coords exposes the backing storage (read-only by convention) for
// callers that iterate rows by offset without per-row slicing. For
// Float32 datasets this is the derived float64 view.
func (f *FlatDataset) Coords() []float64 { return f.coords }

// Dist returns the true distance between points i and j.
func (f *FlatDataset) Dist(i, j int) float64 { return f.kern.dist(f.Row(i), f.Row(j)) }

// AppendRange appends to dst every point within r of q, excluding the
// point with id exclude (-1 for none), in ascending id order, and returns
// the extended slice. When q is itself the storage of row exclude the
// scan routes through the batched row filters (including the float32
// pre-filter when available); results are bit-identical either way.
func (f *FlatDataset) AppendRange(dst []Neighbor, q []float64, r float64, exclude int) []Neighbor {
	qid := -1
	if f.IsRow(q, exclude) {
		qid = exclude
	}
	return f.appendRows(dst, q, qid, 0, f.n, exclude, r)
}

// AppendRangeWhite appends to dst every point within r of q that white
// holds, excluding the point with id exclude, in ascending id order, and
// adds the number of candidates examined to *examined. Points outside
// white are neither examined nor charged: this is the pruning rule's
// scan over the whole dataset (grid.AppendRangeWhite is the cell-ring
// form). Each candidate takes the kernel's range test (InRange), so
// distances are bit-identical to AppendRange's.
func (f *FlatDataset) AppendRangeWhite(dst []Neighbor, q []float64, r float64, exclude int, white *bitset.Set, examined *int64) []Neighbor {
	k := f.kern
	rawR := k.RawThreshold(r)
	dim := f.dim
	var acc int64
	for j, off := 0, 0; j < f.n; j, off = j+1, off+dim {
		if j == exclude || !white.Test(j) {
			continue
		}
		acc++
		if d, ok := k.InRange(q, f.coords[off:off+dim:off+dim], rawR, r); ok {
			dst = append(dst, Neighbor{ID: j, Dist: d})
		}
	}
	*examined += acc
	return dst
}

// AppendRangeRows appends to dst every point with id in [lo, hi) within
// r of row qid (excluding exclude), in ascending id order. This is the
// contiguous-block entry the flat ε-join is built on.
func (f *FlatDataset) AppendRangeRows(dst []Neighbor, qid, lo, hi, exclude int, r float64) []Neighbor {
	return f.appendRows(dst, nil, qid, lo, hi, exclude, r)
}

package grid

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/discdiversity/disc/internal/object"
)

// FlatJoin materialises the exact r-coverage graph with an all-pairs
// batched scan over the flat dataset: row u is ranged against the
// contiguous block [u+1, n) through the dataset's fused batch filters
// (widened multi-accumulator pre-filters with exact re-check, float32
// mirror when the dataset carries one), so every unordered pair is
// evaluated exactly once with no per-pair call overhead. At embedding
// widths the candidate scan is memory-bound, so the batched path tiles
// it: each worker ranges its whole claimed query chunk over one
// cache-sized candidate block before advancing, reusing the block from
// cache instead of re-streaming the dataset per query row.
//
// This is the coverage-graph substrate for workloads the grid cannot
// serve: non-Lp metrics (cosine, dot product) and high dimensionality,
// where bucketing degenerates to a handful of cells and the ±1-ring
// enumeration costs more than the scan it prunes. The returned examined
// count charges one access per candidate per direction (two per pair),
// matching Join.
//
// Workers claim fixed-size row chunks from an atomic cursor — the work
// of row u shrinks with u, so static sharding would skew. The CSR is
// bit-identical for every worker count: edge ownership is determined
// by u alone and each adjacency row is canonically re-sorted by id.
func FlatJoin(f *object.FlatDataset, r float64, workers int) (*CSR, int64, error) {
	return flatJoin(f, r, workers, false, 0, false)
}

// FlatJoinCapped is FlatJoin refusing graphs of more than maxEntries
// adjacency entries (<= 0: no cap) with ErrTooDense, like JoinCapped.
func FlatJoinCapped(f *object.FlatDataset, r float64, workers int, maxEntries int64) (*CSR, int64, error) {
	return flatJoin(f, r, workers, false, maxEntries, false)
}

// FlatJoinByDist is FlatJoinCapped with every adjacency row sorted by
// ascending (distance, id), like JoinByDist.
func FlatJoinByDist(f *object.FlatDataset, r float64, workers int, maxEntries int64) (*CSR, int64, error) {
	return flatJoin(f, r, workers, false, maxEntries, true)
}

// FlatJoinScalar is FlatJoin with the batch filters replaced by the
// per-pair scalar kernel protocol (one Raw call and threshold test per
// candidate, as the cell joins used before the batch API existed). It
// exists as the measured baseline for the batched path — same sharding,
// same merge, same output — so benchmark deltas isolate the kernel.
func FlatJoinScalar(f *object.FlatDataset, r float64, workers int) (*CSR, int64, error) {
	return flatJoin(f, r, workers, true, 0, false)
}

// flatChunk is the row-claim granularity: large enough that the atomic
// cursor is cold, small enough that the triangular tail stays balanced.
const flatChunk = 64

// flatTileBytes sizes the candidate block of the batched join's tiling:
// half a typical L2, so the block survives in cache across the
// flatChunk query rows that scan it. Low-dimensional datasets fit the
// budget whole (tile >= n) and degenerate to the untiled scan.
const flatTileBytes = 1 << 18

// flatTileRows returns the per-block candidate row count for f, or n
// when tiling is moot.
func flatTileRows(f *object.FlatDataset, n int) int {
	rowBytes := 8 * f.Dim()
	if f.Precision() == object.Float32 {
		rowBytes = 4 * f.Stride32()
	}
	tile := flatTileBytes / rowBytes
	if tile < flatChunk {
		tile = flatChunk
	}
	if tile > n {
		tile = n
	}
	return tile
}

func flatJoin(f *object.FlatDataset, r float64, workers int, scalar bool, maxEntries int64, byDist bool) (*CSR, int64, error) {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, 0, fmt.Errorf("grid: flat join: invalid radius %g", r)
	}
	n := f.Len()
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	tile := flatTileRows(f, n)
	degs := make([][]int32, workers)
	edgeLists := make([][]edge, workers)
	examined := make([]int64, workers)
	b := &entryBudget{max: maxEntries}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			deg := make([]int32, n)
			var edges []edge
			var acc int64
			buf := make([]object.Neighbor, 0, 128)
		claim:
			for {
				lo := int(cursor.Add(1)-1) * flatChunk
				if lo >= n-1 {
					break
				}
				hi := lo + flatChunk
				if hi > n {
					hi = n
				}
				if scalar {
					for u := lo; u < hi; u++ {
						acc += int64(2 * (n - u - 1))
						buf = scalarRangeRows(f, buf[:0], u, u+1, n, r)
						if !b.spend(len(buf)) {
							break claim
						}
						for _, nb := range buf {
							edges = append(edges, edge{int32(u), int32(nb.ID), nb.Dist})
							deg[u]++
							deg[nb.ID]++
						}
					}
					continue
				}
				for u := lo; u < hi; u++ {
					acc += int64(2 * (n - u - 1))
				}
				// Tiled scan: every query row of the chunk ranges one
				// candidate block while it is cache-hot. Blocks partition
				// [lo+1, n), so each unordered pair is still evaluated
				// exactly once; mergeEdges re-sorts adjacency rows, so the
				// interleaved emission order is immaterial.
				for b0 := lo + 1; b0 < n; b0 += tile {
					b1 := b0 + tile
					if b1 > n {
						b1 = n
					}
					for u := lo; u < hi; u++ {
						ulo := u + 1
						if ulo < b0 {
							ulo = b0
						}
						if ulo >= b1 {
							continue
						}
						buf = f.AppendRangeRows(buf[:0], u, ulo, b1, -1, r)
						if !b.spend(len(buf)) {
							break claim
						}
						for _, nb := range buf {
							edges = append(edges, edge{int32(u), int32(nb.ID), nb.Dist})
							deg[u]++
							deg[nb.ID]++
						}
					}
				}
			}
			degs[w], edgeLists[w], examined[w] = deg, edges, acc
		}(w)
	}
	wg.Wait()
	if err := b.err(r); err != nil {
		return nil, 0, err
	}
	csr, err := mergeEdges(n, workers, degs, edgeLists, byDist)
	if err != nil {
		return nil, 0, err
	}
	var acc int64
	for _, a := range examined {
		acc += a
	}
	return csr, acc, nil
}

// scalarRangeRows is the pre-batch per-pair protocol: one Raw call and
// one threshold comparison per candidate row of [lo, hi).
func scalarRangeRows(f *object.FlatDataset, dst []object.Neighbor, u, lo, hi int, r float64) []object.Neighbor {
	k := f.Kernel()
	rawR := k.RawThreshold(r)
	q := f.Row(u)
	coords := f.Coords()
	dim := f.Dim()
	for v, off := lo, lo*dim; v < hi; v, off = v+1, off+dim {
		if raw := k.Raw(coords[off:off+dim:off+dim], q); raw <= rawR {
			if d := k.Finish(raw); d <= r {
				dst = append(dst, object.Neighbor{ID: v, Dist: d})
			}
		}
	}
	return dst
}

// mergeEdges turns per-worker degree counts and undirected edge lists
// into the canonical CSR: per-point degrees become offsets, each
// (point, worker) pair gets a reserved sub-range so the scatter needs
// no locks, and every adjacency row is sorted by id, or by (distance,
// id) when byDist is set.
func mergeEdges(n, workers int, degs [][]int32, edgeLists [][]edge, byDist bool) (*CSR, error) {
	offsets := make([]int32, n+1)
	var total int64
	for p := 0; p < n; p++ {
		for w := 0; w < workers; w++ {
			d := int64(degs[w][p])
			degs[w][p] = int32(total)
			total += d
		}
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("grid: coverage graph exceeds %d adjacency entries", math.MaxInt32)
		}
		offsets[p+1] = int32(total)
	}
	nbrs := make([]object.Neighbor, total)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := degs[w]
			for _, e := range edgeLists[w] {
				nbrs[cur[e.u]] = object.Neighbor{ID: int(e.v), Dist: e.d}
				cur[e.u]++
				nbrs[cur[e.v]] = object.Neighbor{ID: int(e.u), Dist: e.d}
				cur[e.v]++
			}
		}(w)
	}
	wg.Wait()
	csr := &CSR{Offsets: offsets, Nbrs: nbrs}
	csr.sortRows(byDist, workers)
	return csr, nil
}

// sortRows sorts every row of c in place — by id, or by (distance, id)
// when byDist is set — sharding the rows over workers (<= 0 selects 1).
func (c *CSR) sortRows(byDist bool, workers int) {
	n := len(c.Offsets) - 1
	workers = max(1, min(workers, n))
	shard := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += shard {
		hi := min(lo+shard, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for p := lo; p < hi; p++ {
				sortRow(c.Row(p), byDist)
			}
		}(lo, hi)
	}
	wg.Wait()
}

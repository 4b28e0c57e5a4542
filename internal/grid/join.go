package grid

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/telemetry"
)

// CSR is a compressed-sparse-row adjacency: point id's neighbours are
// Nbrs[Offsets[id]:Offsets[id+1]]. One offsets array plus one packed
// neighbour array replaces per-point slices, so walking many adjacency
// lists in sequence stays inside two contiguous allocations and the
// steady-state memory is exactly the edge count.
//
// Rows are sorted by id (the live adjacency's order, which Validate
// checks) or, from the ByDist joins, by ascending (distance, id): then
// the neighbourhood at any radius up to the join radius is a row
// prefix, and Prefix derives a view at that radius. Snapshots store a
// static graph's rows in that order, as the engine holds them, and
// ValidateByDist checks them on load. A view carries
// Ends, one row end per point, and shares Offsets and Nbrs with the CSR
// it was derived from; Ends is nil on every other CSR.
type CSR struct {
	Offsets []int32
	Nbrs    []object.Neighbor
	Ends    []int32
}

// Row returns the adjacency list of id. The slice aliases the packed
// array and must not be modified.
func (c *CSR) Row(id int) []object.Neighbor {
	if c.Ends != nil {
		return c.Nbrs[c.Offsets[id]:c.Ends[id]]
	}
	return c.Nbrs[c.Offsets[id]:c.Offsets[id+1]]
}

// Degree returns len(Row(id)) without slicing.
func (c *CSR) Degree(id int) int {
	if c.Ends != nil {
		return int(c.Ends[id] - c.Offsets[id])
	}
	return int(c.Offsets[id+1] - c.Offsets[id])
}

// Entries returns the number of adjacency entries in c's rows.
func (c *CSR) Entries() int {
	if c.Ends == nil {
		return len(c.Nbrs)
	}
	m := 0
	for id, end := range c.Ends {
		m += int(end - c.Offsets[id])
	}
	return m
}

// PrefixLen returns how many leading entries of a (distance, id)-sorted
// row lie within r: a binary search, so the row's r-neighbourhood is
// row[:PrefixLen(row, r)].
func PrefixLen(row []object.Neighbor, r float64) int {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].Dist <= r {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Prefix returns the view of a (distance, id)-sorted c at radius r:
// every row cut to its entries within r, found by one binary search
// per row. The view shares Offsets and Nbrs with c and owns only its
// Ends, so it costs one int32 per point however many edges it holds.
// Its rows keep the (distance, id) order.
func (c *CSR) Prefix(r float64) *CSR {
	n := len(c.Offsets) - 1
	ends := make([]int32, n)
	for id := 0; id < n; id++ {
		ends[id] = c.Offsets[id] + int32(PrefixLen(c.Row(id), r))
	}
	return &CSR{Offsets: c.Offsets, Nbrs: c.Nbrs, Ends: ends}
}

// Validate checks the structural invariants of a deserialised CSR
// adjacency for an n-point coverage graph built at radius r, in the
// live adjacency's order: the offsets must be a nondecreasing span of
// the packed array, and every row must hold strictly ascending
// neighbour ids in [0, n) excluding the row's own id, with distances at
// most r. A negative distance is accepted: cosine and dot-product
// distances between parallel vectors may round a few ulps below zero.
// NaN is rejected by the comparison. O(edges).
func (c *CSR) Validate(n int, r float64) error { return c.validate(n, r, false) }

// ValidateByDist is Validate for an adjacency Prefix will read, and
// leaves every row ascending by (distance, id). A row already in that
// order is kept as is, a row ascending by id is sorted into it in
// place, and a row in neither order is refused. A (distance,
// id)-ascending row can repeat an id at two distances, so repeated
// neighbours are found with a mark array, not by order.
// O(n + edges), plus one sort per id-ordered row.
func (c *CSR) ValidateByDist(n int, r float64) error { return c.validate(n, r, true) }

func (c *CSR) validate(n int, r float64, byDist bool) error {
	if len(c.Offsets) != n+1 {
		return fmt.Errorf("grid: csr: %d offsets for %d points", len(c.Offsets), n)
	}
	if c.Offsets[0] != 0 || int(c.Offsets[n]) != len(c.Nbrs) {
		return fmt.Errorf("grid: csr: offsets do not span the %d packed neighbours", len(c.Nbrs))
	}
	// seen[v] is one more than the last row that listed v.
	var seen []int32
	if byDist {
		seen = make([]int32, n)
	}
	for id := 0; id < n; id++ {
		lo, hi := c.Offsets[id], c.Offsets[id+1]
		if lo > hi {
			return fmt.Errorf("grid: csr: point %d has negative degree", id)
		}
		row := c.Nbrs[lo:hi]
		for k := range row {
			nb := &row[k]
			if nb.ID < 0 || nb.ID >= n || nb.ID == id {
				return fmt.Errorf("grid: csr: point %d has an invalid neighbour list", id)
			}
			if !(nb.Dist <= r) {
				return fmt.Errorf("grid: csr: point %d records neighbour %d at distance %g above %g", id, nb.ID, nb.Dist, r)
			}
			if byDist {
				if seen[nb.ID] == int32(id+1) {
					return fmt.Errorf("grid: csr: point %d lists neighbour %d twice", id, nb.ID)
				}
				seen[nb.ID] = int32(id + 1)
			}
		}
		switch {
		case byDist && ascending(row, true):
		case !ascending(row, false):
			return fmt.Errorf("grid: csr: point %d has an invalid neighbour list", id)
		case byDist:
			sortRow(row, true)
		}
	}
	return nil
}

// ascending reports whether row is strictly ascending by id, or by
// (distance, id) when byDist is set.
func ascending(row []object.Neighbor, byDist bool) bool {
	for k := 1; k < len(row); k++ {
		if !before(&row[k-1], &row[k], byDist) {
			return false
		}
	}
	return true
}

// edge is one undirected hit of the ε-join; it is scattered into the CSR
// in both directions.
type edge struct {
	u, v int32
	d    float64
}

// ErrTooDense is returned by the capped joins when the r-coverage graph
// holds more adjacency entries than the caller's budget.
var ErrTooDense = errors.New("grid: coverage graph exceeds the adjacency budget")

// entryBudget counts the adjacency entries all join workers have
// emitted so far; max <= 0 means unlimited. Workers stop at their next
// hit once the total passes max, so a refused join holds at most about
// max entries plus one row per worker.
type entryBudget struct {
	max   int64
	total atomic.Int64
}

// spend charges k undirected hits (2k entries) and reports whether the
// join may go on.
func (b *entryBudget) spend(k int) bool {
	if b.max <= 0 || k == 0 {
		return true
	}
	return b.total.Add(int64(2*k)) <= b.max
}

// err reports ErrTooDense, with the radius, once the budget has tripped.
func (b *entryBudget) err(r float64) error {
	if b.max > 0 && b.total.Load() > b.max {
		return fmt.Errorf("%w of %d entries at radius %g", ErrTooDense, b.max, r)
	}
	return nil
}

// Covers reports whether the grid's bucketing can serve an ε-join (or a
// single-ring neighbourhood scan) at radius r: the cell side must exceed
// r by the same relative margin Build applies, so boundary rounding
// cannot spread a true pair more than one cell apart.
func (g *Grid) Covers(r float64) bool {
	return r >= 0 && r+r*0x1p-20 <= g.cell
}

// Suits reports whether reusing this grid at radius r beats re-bucketing:
// Covers(r) must hold and the cell side must stay within 2× of r.
// Candidate-pair work in the ±1 ring grows like (cell/r)^d, so a cell
// side far above r degenerates a re-join (or a per-query ring scan)
// toward the all-pairs scan an O(n) re-bucket would avoid; the 2× bound
// keeps the canonical halve-the-radius zoom-in inside the reuse path
// (a freshly bucketed grid has cell ≈ r, so r' = r/2 sits exactly on
// the bound) while capping the overhead at a small constant factor.
func (g *Grid) Suits(r float64) bool {
	return g.Covers(r) && g.cell <= 2*(r+r*0x1p-20)
}

// Join materialises the exact r-coverage graph of the grid's dataset as
// a CSR adjacency using a cell-pair ε-join: every nonempty cell is
// paired with itself and with its forward (higher-index) neighbours in
// the ≤3^d ring, each candidate pair is evaluated once with the compiled
// kernel, and each hit is recorded in both directions. Compared with one
// range query per point this halves distance evaluations and does no
// tree traversal — the build is O(n + candidate pairs).
//
// Cell ranges are sharded over workers (<= 0 selects 1); each worker
// owns the pairs whose lower cell falls in its range and accumulates
// private edge and degree buffers, so the only synchronisation is the
// final merge. The returned examined count charges one access per
// candidate considered per direction (two per pair), mirroring the
// objects-examined measure of the scan engines. Every adjacency row is
// sorted by id. Join requires Covers(r); callers holding a
// finer-bucketed grid must re-bucket first.
func Join(g *Grid, r float64, workers int) (*CSR, int64, error) {
	return join(g, r, workers, 0, false)
}

// JoinCapped is Join refusing graphs of more than maxEntries adjacency
// entries (<= 0: no cap): it stops as soon as the workers' running
// total passes the cap and returns ErrTooDense, before the merge
// allocates the CSR.
func JoinCapped(g *Grid, r float64, workers int, maxEntries int64) (*CSR, int64, error) {
	return join(g, r, workers, maxEntries, false)
}

// JoinByDist is JoinCapped with every adjacency row sorted by
// ascending (distance, id) instead of id, in the same merge pass, so
// CSR.Prefix can serve any radius up to r from the one graph.
func JoinByDist(g *Grid, r float64, workers int, maxEntries int64) (*CSR, int64, error) {
	return join(g, r, workers, maxEntries, true)
}

func join(g *Grid, r float64, workers int, maxEntries int64, byDist bool) (*CSR, int64, error) {
	defer telemetry.Since(metJoin, time.Now())
	if !g.Covers(r) {
		return nil, 0, fmt.Errorf("grid: join radius %g exceeds cell side %g; rebucket first", r, g.cell)
	}
	n := g.flat.Len()
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	// Shard cell ranges so each worker owns roughly n/workers points
	// (cells are skewed; points are the work).
	bounds := g.shardCells(workers)
	workers = len(bounds) - 1

	degs := make([][]int32, workers)
	edgeLists := make([][]edge, workers)
	examined := make([]int64, workers)
	b := &entryBudget{max: maxEntries}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			degs[w], edgeLists[w], examined[w] = g.joinRange(r, bounds[w], bounds[w+1], b)
		}(w)
	}
	wg.Wait()
	if err := b.err(r); err != nil {
		return nil, 0, err
	}

	// Merge: per-point degrees become CSR offsets, each (worker, point)
	// pair gets a reserved sub-range for a lock-free scatter, and every
	// adjacency row is re-sorted (hits arrive in cell-pair order).
	csr, err := mergeEdges(n, workers, degs, edgeLists, byDist)
	if err != nil {
		return nil, 0, err
	}
	var acc int64
	for _, a := range examined {
		acc += a
	}
	metJoinEdges.Add(uint64(len(csr.Nbrs)))
	return csr, acc, nil
}

// shardCells splits [0, ncells] into ≤ workers contiguous ranges of
// roughly equal point counts, always ending cell-aligned.
func (g *Grid) shardCells(workers int) []int32 {
	n := len(g.ids)
	bounds := make([]int32, 1, workers+1)
	target := (n + workers - 1) / workers
	next := target
	for c := 0; c < g.ncells && len(bounds) < workers; c++ {
		if int(g.start[c+1]) >= next {
			bounds = append(bounds, int32(c+1))
			next = int(g.start[c+1]) + target
		}
	}
	if bounds[len(bounds)-1] != int32(g.ncells) {
		bounds = append(bounds, int32(g.ncells))
	}
	return bounds
}

// joinRange runs the ε-join for the cells in [cLo, cHi), returning the
// worker's degree counts, undirected edge list and examined count; it
// returns early, with partial results, once b trips. Each
// cell's candidate id list goes through the dataset's gather
// (AppendRangeIDs): the float32 pre-filter when the dataset carries the
// mirror, otherwise one kernel call per candidate, inlined for the 2-d
// Euclidean body.
func (g *Grid) joinRange(r float64, cLo, cHi int32, b *entryBudget) ([]int32, []edge, int64) {
	n, dim := g.flat.Len(), g.flat.Dim()
	deg := make([]int32, n)
	var edges []edge
	var acc int64
	buf := make([]object.Neighbor, 0, 64)

	// Outer odometer: the coordinates of the current cell c.
	cc := make([]int32, dim)
	decompose(cc, cLo, g.stride)
	// Inner odometer state for the forward-neighbour ring.
	lo := make([]int32, dim)
	hi := make([]int32, dim)
	cur := make([]int32, dim)

	for c := cLo; c < cHi; c, _ = c+1, advance(cc, g.nd) {
		aStart, aEnd := g.start[c], g.start[c+1]
		if aStart == aEnd {
			continue
		}
		a := g.ids[aStart:aEnd]
		// Same-cell pairs, each once (i < j; ids ascend within a cell).
		for i := 0; i+1 < len(a); i++ {
			u := a[i]
			cands := a[i+1:]
			acc += int64(2 * len(cands))
			buf = g.flat.AppendRangeIDs(buf[:0], nil, int(u), cands, -1, r)
			if !b.spend(len(buf)) {
				return deg, edges, acc
			}
			for _, nb := range buf {
				edges = append(edges, edge{u, int32(nb.ID), nb.Dist})
				deg[u]++
				deg[nb.ID]++
			}
		}
		// Forward neighbour cells: the ±1 ring around c, keeping only
		// cells with a higher flattened index so every unordered cell
		// pair is joined exactly once (by the worker owning the lower
		// cell).
		var nb int32
		for i := 0; i < dim; i++ {
			l, h := cc[i]-1, cc[i]+1
			if l < 0 {
				l = 0
			}
			if h >= g.nd[i] {
				h = g.nd[i] - 1
			}
			lo[i], hi[i], cur[i] = l, h, l
			nb += l * g.stride[i]
		}
		for ; nb >= 0; nb = ringNext(cur, lo, hi, g.stride, nb) {
			if nb <= c {
				continue
			}
			bStart, bEnd := g.start[nb], g.start[nb+1]
			if bStart == bEnd {
				continue
			}
			cb := g.ids[bStart:bEnd]
			for _, u := range a {
				acc += int64(2 * len(cb))
				buf = g.flat.AppendRangeIDs(buf[:0], nil, int(u), cb, -1, r)
				if !b.spend(len(buf)) {
					return deg, edges, acc
				}
				for _, nb := range buf {
					edges = append(edges, edge{u, int32(nb.ID), nb.Dist})
					deg[u]++
					deg[nb.ID]++
				}
			}
		}
	}
	return deg, edges, acc
}

// decompose writes the cell coordinates of flattened index c into cc.
func decompose(cc []int32, c int32, stride []int32) {
	for i := range cc {
		cc[i] = c / stride[i]
		c -= cc[i] * stride[i]
	}
}

// advance increments cell coordinates cc by one in flattened order.
func advance(cc []int32, nd []int32) bool {
	for i := len(cc) - 1; i >= 0; i-- {
		cc[i]++
		if cc[i] < nd[i] {
			return true
		}
		cc[i] = 0
	}
	return false
}

// ringNext advances the ring odometer and returns the next flattened
// index, or -1 when exhausted.
func ringNext(cur, lo, hi, stride []int32, idx int32) int32 {
	for i := len(cur) - 1; i >= 0; i-- {
		if cur[i] < hi[i] {
			cur[i]++
			return idx + stride[i]
		}
		idx -= (cur[i] - lo[i]) * stride[i]
		cur[i] = lo[i]
	}
	return -1
}

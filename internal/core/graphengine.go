package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

// ParallelGraphEngine materialises the full r-coverage graph (the
// r-neighbourhood graph the paper reduces DisC diversity to) once, using
// every core, and then answers Neighbors in O(degree): the repeated range
// queries that dominate Basic-DisC and the Greedy-DisC family become
// array lookups.
//
// Construction picks one of two join substrates. A uniform-grid
// cell-pair ε-join (internal/grid) serves the metrics the grid supports
// (the Lp family — see grid.Supports) at moderate dimensionality:
// points are counting-sorted into cells of side r, each cell is joined
// with its forward neighbour cells only, and every candidate pair is
// evaluated once with both edge directions emitted — roughly half the
// distance evaluations of a per-point range query, with no tree at all,
// for an O(n + candidate pairs) build. Queries at radii beyond the
// build radius are answered exactly by multi-ring grid scans.
// Everything else — Hamming, the non-metric distances (cosine, dot
// product) and dimensionality above GraphFlatJoinDim, where bucketing
// degenerates to a handful of cells — uses the batched flat all-pairs
// join (grid.FlatJoin), whose fused early-exit kernels and optional
// float32 pre-filter keep the dense scan's per-candidate cost low; its
// fallback queries are flat scans. Both substrates land the adjacency
// in a CSR layout (one offsets array plus one packed, exactly sized
// neighbour array), so the steady-state memory is precisely the edge
// count and walking many adjacency lists scans two contiguous
// allocations.
//
// Every row is sorted by ascending (distance, id), so the graph built at
// the ceiling radius C serves every r ≤ C: the r-neighbourhood of a
// point is a prefix of its row, found by binary search. NeighborsAppend
// and NeighborsWhiteAppend cut the row per call; AdjacencyCSR serves a view
// (grid.CSR.Prefix: one row end per point, sharing the ceiling's
// arrays), cached for the last few radii in a fixed-size cache. Radii above C fall back to the substrate (grid scan or flat
// scan), so every Engine call stays correct at any radius — only the
// cost differs.
// Because |N_C(p)| is known for every p after the build, the engine
// also implements CountingEngine and makes Greedy-DisC's initialisation
// pass free at C.
//
// A query charges its run one unit per adjacency entry examined within
// the query radius (the row prefix; minimum one per lookup), mirroring
// the flat engine's objects-examined measure; the binary search that
// finds a prefix, like deriving a view's row ends, is not charged. Grid
// fallback scans charge one unit per candidate examined, and flat
// fallback scans one unit per object examined; BuildCost counts the
// build's candidates the same way.
type ParallelGraphEngine struct {
	flat      *object.FlatDataset
	hash      *grid.Grid // substrate of the grid path; nil on the flat-join path
	radius    float64    // the ceiling: the join radius
	workers   int
	csr       *grid.CSR // rows sorted by (distance, id); exclude self
	counts    []int     // csr.Degree(i), for CountingEngine
	scan      []int
	buildCost int64
	// mu guards the view cache, the engine's only mutable state: views
	// holds the row-prefix views below the ceiling, and next is the
	// slot the next new radius overwrites.
	mu    sync.Mutex
	views [viewSlots]radiusView
	next  int
}

// viewSlots bounds the per-radius cache: a view costs one int32 per
// point, so the cache stays a small multiple of n however many radii
// are asked for. Four slots hold the interactive pattern of a few
// alternating radii below one ceiling.
const viewSlots = 4

// radiusView is one cached radius below the ceiling.
type radiusView struct {
	csr *grid.CSR // nil: slot unused
	r   float64
}

var (
	_ Engine         = (*ParallelGraphEngine)(nil)
	_ CoverageEngine = (*ParallelGraphEngine)(nil)
	_ CountingEngine = (*ParallelGraphEngine)(nil)
)

// GraphFlatJoinDim is the dimensionality above which the coverage-graph
// build abandons spatial bucketing for the batched flat all-pairs join:
// cells-per-axis collapses toward 1 and the ±1-ring enumeration
// approaches the full cell count squared, while the flat join's tiled
// pre-filtered scan keeps its per-candidate cost flat. Measured by the highdim experiment's crossover sweep (uniform
// cube, Euclidean, r=0.15, n=5000 — see BENCH_PR7.json): the grid join
// wins clearly through d=6, loses to the flat join from d=8 on, and is
// over 2x slower by d=12.
const GraphFlatJoinDim = 7

// BuildParallelGraphEngine builds the r-coverage graph of pts under m
// with the given worker count (<= 0 selects GOMAXPROCS).
func BuildParallelGraphEngine(pts []object.Point, m object.Metric, r float64, workers int) (*ParallelGraphEngine, error) {
	flat, err := object.Flatten(pts, m)
	if err != nil {
		return nil, fmt.Errorf("core: graph engine: %w", err)
	}
	return BuildParallelGraphEngineOn(flat, r, workers)
}

// BuildParallelGraphEngineOn builds the r-coverage graph over an
// existing flat dataset (of either precision), choosing the join
// substrate from the metric and dimensionality: the grid ε-join for
// grid-supported metrics up to GraphFlatJoinDim, and the batched flat
// all-pairs join otherwise. A Float32 dataset accelerates both
// substrates through its float32 pre-filter; selections stay
// bit-identical to the float64 scan over the same (rounded) coordinates
// either way.
func BuildParallelGraphEngineOn(flat *object.FlatDataset, r float64, workers int) (*ParallelGraphEngine, error) {
	return BuildParallelGraphEngineCapped(flat, r, workers, 0)
}

// BuildParallelGraphEngineCapped is BuildParallelGraphEngineOn refusing
// graphs of more than maxEntries adjacency entries (<= 0: no cap): the
// join stops once it passes the cap and the error wraps
// grid.ErrTooDense, so the refusal costs about maxEntries entries of
// memory, not the graph's.
func BuildParallelGraphEngineCapped(flat *object.FlatDataset, r float64, workers int, maxEntries int64) (*ParallelGraphEngine, error) {
	gridsub := grid.Supports(flat.Metric()) && flat.Dim() <= GraphFlatJoinDim
	return buildGraph(flat, nil, nil, r, workers, !gridsub, maxEntries)
}

// AdjacencyBudget is the most adjacency entries the library
// materialises for a dataset of n objects: an average degree of 128
// (2 KiB of entries per object), and never less than 1<<20 entries
// (16 MiB), so small datasets keep their graph at any radius. Above it
// the coverage graph and GreedyDisCComponents' materialisation give way
// to paths whose memory does not grow with the edge count.
func AdjacencyBudget(n int) int64 {
	return max(int64(n)*128, 1<<20)
}

// Rebuild returns an engine over the same points joined at a new
// ceiling r, reusing the grid occupancy whenever r still fits its cell
// side, so a larger ceiling pays at most an O(n) re-bucket besides the
// join. Radii at or below the current ceiling need no rebuild: the
// receiver serves them as row prefixes. A join that would pass
// maxEntries adjacency entries (<= 0: no cap) is refused as in
// BuildParallelGraphEngineCapped. The substrate is shared read-only,
// so the receiver stays valid either way.
func (g *ParallelGraphEngine) Rebuild(r float64, maxEntries int64) (*ParallelGraphEngine, error) {
	return buildGraph(g.flat, g.hash, g.scan, r, g.workers, g.hash == nil, maxEntries)
}

// buildGraph materialises the coverage graph at radius r: via the
// batched flat all-pairs join when flatsub is set, and via the grid
// ε-join otherwise (hash, when non-nil, is reused as long as its cell
// side suits r), refusing more than maxEntries adjacency entries. Rows
// come out of the join's merge sorted by (distance, id).
func buildGraph(flat *object.FlatDataset, hash *grid.Grid, scan []int, r float64, workers int, flatsub bool, maxEntries int64) (*ParallelGraphEngine, error) {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("core: graph engine: invalid radius %g", r)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := flat.Len(); workers > n {
		workers = n
	}
	if flatsub {
		csr, examined, err := grid.FlatJoinByDist(flat, r, workers, maxEntries)
		if err != nil {
			return nil, fmt.Errorf("core: graph engine: %w", err)
		}
		// scan stays nil: the flat substrate has no locality structure,
		// so ScanOrder reports plain id order.
		return newGraph(flat, nil, nil, r, workers, csr, examined), nil
	}
	if !keepsGrid(hash, r) {
		var err error
		hash, err = grid.Build(flat, r)
		if err != nil {
			return nil, fmt.Errorf("core: graph engine: %w", err)
		}
		scan = nil // cell order changed with the bucketing
	}
	csr, examined, err := grid.JoinByDist(hash, r, workers, maxEntries)
	if err != nil {
		return nil, fmt.Errorf("core: graph engine: %w", err)
	}
	if scan == nil {
		scan = hash.ScanOrder()
	}
	return newGraph(flat, hash, scan, r, workers, csr, examined), nil
}

// keepsGrid reports whether a graph at radius r reuses the occupancy
// hash. Reuse holds only while the cell side suits r: a much finer
// radius would turn the ±1-ring join into a near-all-pairs scan, far
// costlier than the O(n) re-bucket it saves (see grid.Suits). The
// bucketing radius itself is always reused — on sparse data the
// cell-count cap coarsens cells beyond Suits' bound and a re-bucket
// would reproduce the same grid.
func keepsGrid(hash *grid.Grid, r float64) bool {
	return hash != nil && (hash.Radius() == r || hash.Suits(r))
}

// newGraph assembles an engine around an exact r-adjacency csr, rows
// sorted by (distance, id), whose construction examined the given
// number of candidates; hash is the grid substrate (nil on the flat
// join) and scan its cell order.
func newGraph(flat *object.FlatDataset, hash *grid.Grid, scan []int, r float64, workers int, csr *grid.CSR, examined int64) *ParallelGraphEngine {
	g := &ParallelGraphEngine{
		flat:      flat,
		hash:      hash,
		radius:    r,
		workers:   workers,
		csr:       csr,
		scan:      scan,
		buildCost: examined,
		counts:    make([]int, flat.Len()),
	}
	for i := range g.counts {
		g.counts[i] = csr.Degree(i)
	}
	return g
}

// Radius returns the ceiling: the radius the coverage graph was joined
// at, and the largest one it serves from its rows.
func (g *ParallelGraphEngine) Radius() float64 { return g.radius }

// Degree returns |N_C(id)| at the ceiling C.
func (g *ParallelGraphEngine) Degree(id int) int { return g.csr.Degree(id) }

// BuildCost returns the candidates the join examined (0 for a
// rehydrated graph).
func (g *ParallelGraphEngine) BuildCost() int64 { return g.buildCost }

// GridJoined reports whether the adjacency was built by the grid ε-join
// (as opposed to the batched flat all-pairs join).
func (g *ParallelGraphEngine) GridJoined() bool { return g.hash != nil }

// Size implements Engine.
func (g *ParallelGraphEngine) Size() int { return g.flat.Len() }

// Metric implements Engine.
func (g *ParallelGraphEngine) Metric() object.Metric { return g.flat.Metric() }

// Point implements Engine.
func (g *ParallelGraphEngine) Point(id int) object.Point { return g.flat.Point(id) }

// charge records on run an adjacency lookup that examined n entries.
func charge(run *Run, n int) { run.accesses += int64(max(n, 1)) }

// prefix returns id's r-neighbourhood for r ≤ the ceiling: its whole
// row at the ceiling, a binary-searched prefix below it.
func (g *ParallelGraphEngine) prefix(id int, r float64) []object.Neighbor {
	row := g.csr.Row(id)
	if r < g.radius {
		row = row[:grid.PrefixLen(row, r)]
	}
	return row
}

// scratch returns the run's grid ring-scan scratch, made on first use.
func (g *ParallelGraphEngine) scratch(run *Run) *grid.Scratch {
	if run.scratch == nil {
		run.scratch = grid.NewScratch(g.flat.Dim())
	}
	return run.scratch
}

// NeighborsAppend implements Engine. Radii up to the ceiling are
// answered from the materialised rows, in (distance, id) order; larger
// radii fall back to the substrate, in its order (cell order on the
// grid, id order on the flat scan).
func (g *ParallelGraphEngine) NeighborsAppend(dst []object.Neighbor, id int, r float64, run *Run) []object.Neighbor {
	switch {
	case r <= g.radius:
		row := g.prefix(id, r)
		charge(run, len(row))
		return append(dst, row...)
	case g.hash != nil:
		return g.hash.AppendRange(dst, g.flat.Row(id), r, id, &run.accesses, g.scratch(run))
	default:
		// Whole-dataset batched scan, charged like the flat engine.
		run.accesses += int64(g.flat.Len())
		return g.flat.AppendRange(dst, g.flat.Row(id), r, id)
	}
}

// ScanOrder implements Engine: cell order on the grid path — captured
// at build time, locality-preserving — and plain id order on the
// flat-join substrate, which has no locality structure.
func (g *ParallelGraphEngine) ScanOrder(*Run) []int {
	if g.scan == nil {
		return idOrder(g.flat.Len())
	}
	return append([]int(nil), g.scan...)
}

// InitialCounts implements CountingEngine: the build already knows every
// neighbourhood size at the ceiling, so Greedy-DisC initialisation
// there costs nothing.
func (g *ParallelGraphEngine) InitialCounts() ([]int, float64, bool) {
	return g.counts, g.radius, true
}

// NeighborsWhiteAppend implements CoverageEngine: an adjacency scan
// that keeps only still-white neighbours. Above the ceiling both
// substrates scan white-filtered: covered objects are neither examined
// nor charged, matching the flat engine's accounting.
func (g *ParallelGraphEngine) NeighborsWhiteAppend(dst []object.Neighbor, id int, r float64, run *Run) []object.Neighbor {
	if r > g.radius {
		if g.hash != nil {
			return g.hash.AppendRangeWhite(dst, g.flat.Row(id), r, id, &run.white, &run.accesses, g.scratch(run))
		}
		return g.flat.AppendRangeWhite(dst, g.flat.Row(id), r, id, &run.white, &run.accesses)
	}
	row := g.prefix(id, r)
	charge(run, len(row))
	for _, nb := range row {
		if run.white.Test(nb.ID) {
			dst = append(dst, nb)
		}
	}
	return dst
}

// view returns the view at r < the ceiling from the cache, deriving it
// (one binary search per row, uncharged) into the oldest slot on a
// miss. A view is immutable, so it stays valid for its holder after
// its slot is reused.
func (g *ParallelGraphEngine) view(r float64) *grid.CSR {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, v := range g.views {
		if v.csr != nil && v.r == r {
			return v.csr
		}
	}
	v := radiusView{csr: g.csr.Prefix(r), r: r}
	g.views[g.next] = v
	g.next = (g.next + 1) % viewSlots
	return v.csr
}

// CachedRadii returns the radii below the ceiling whose views are
// cached, at most the cache's fixed slot count.
func (g *ParallelGraphEngine) CachedRadii() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var rs []float64
	for _, v := range g.views {
		if v.csr != nil {
			rs = append(rs, v.r)
		}
	}
	return rs
}

// AdjacencyCSR returns the exact r-adjacency when the materialised
// graph holds it — the graph itself at the ceiling, its cached
// row-prefix view below it — so GreedyDisCComponents runs over it with
// no materialisation pass; ok is false above the ceiling.
func (g *ParallelGraphEngine) AdjacencyCSR(r float64) (*grid.CSR, bool) {
	switch {
	case r == g.radius:
		return g.csr, true
	case r < g.radius:
		return g.view(r), true
	default:
		return nil, false
	}
}

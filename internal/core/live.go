package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/discdiversity/disc/internal/bitset"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/telemetry"
)

// LiveDisC maintains an r-DisC diverse selection under inserts and
// deletes by replaying only the part of the greedy run a mutation
// changes. It is the incremental counterpart of GreedyDisCComponents on
// the same substrate — copy-on-write CSR adjacency (grid.DynAdj) — and
// reproduces the batch algorithm exactly: after Flush, the selection,
// in pick order, is what GreedyDisCComponents would compute over the
// live points from scratch (through the monotone id remap of a
// compaction). Works under every metric.
//
// An insert finds its in-range neighbours through one of two sources.
// Lp metrics (grid.Supports) keep a mutable grid occupancy
// (grid.MutGrid) and scan the ±1 cell ring, as grid.Join does; every
// other metric scans the live rows, as grid.FlatJoin does, so a
// non-Lp insert costs O(n) distance tests. Both test candidates with the
// compiled kernel, so the adjacency is bit-identical to the batch join's.
//
// Each object keeps its leave time in the converged greedy run: the
// priority of the pick that stopped it being white (see liverepair.go).
// A mutation only queues the objects whose neighbourhood it changed —
// an insert's new id and its neighbours, a delete's severed neighbours
// — and Flush replays the greedy from them outwards, pulling in an
// object only once a neighbour leaves at another time than recorded.
// So a write into a giant component costs the part of the run it
// changes, not the component. The seed and LiveReplay.Finish run the
// pruned greedy over every live object once, recording every leave
// time. No component decomposition is kept: picks in one component
// never change white counts in another, so the run needs none.
//
// Reads are bounded-stale: the last converged selection is published as
// an immutable snapshot behind an atomic pointer, so Selection,
// IsRepresentative and Size are safe for any number of concurrent
// readers while mutations and repairs run — they simply keep answering
// from the pre-mutation state until the next Flush publishes. Mutations
// themselves (Insert, Delete, Flush) are not concurrency-safe; the
// public disc.Updater adds that lock.
type LiveDisC struct {
	r   float64
	dyn *object.DynDataset
	mg  *grid.MutGrid // nil: the metric is not grid-servable, inserts scan
	adj *grid.DynAdj

	// trace[id] is the leave time of id in the converged greedy run:
	// the priority (leaveTime) of the pick that stopped it being white,
	// its own pick's when it was selected; 0 for dead slots and for
	// inserts not yet flushed.
	trace []uint64

	sel      bitset.Set // converging selection
	selCount int
	pending  int // writes since the last Flush

	published atomic.Pointer[liveSnap]
	accesses  int64

	// Repair scratch, grown lazily to the slot domain.
	rs   liveRepair
	nw   []int32 // white-neighbour counts of the run in progress
	qbuf []object.Neighbor
	gs   *grid.Scratch
}

// liveSnap is one immutable published selection: the bitset answers
// membership, the id list is materialised at most once on demand.
type liveSnap struct {
	bits  *bitset.Set
	count int
	once  sync.Once
	ids   []int
}

// NewLiveDisC returns an empty maintainer for radius r under m; the
// dimensionality is fixed by the first insert.
func NewLiveDisC(m object.Metric, r float64) (*LiveDisC, error) {
	return finished(NewLiveReplay(m, r))
}

// SeedLiveDisC builds a maintainer over an existing dataset by running
// the batch pipeline once — grid build, ε-join, one full greedy run —
// and adopting its artifacts as the live state, so the first published
// selection is the batch selection and every later Flush stays
// equivalent to it. workers shards the ε-join (<= 0 selects one).
func SeedLiveDisC(flat *object.FlatDataset, r float64, workers int) (*LiveDisC, error) {
	return finished(SeedLiveReplay(flat, r, workers))
}

// finished runs Finish on a replay with nothing to apply.
func finished(rp *LiveReplay, err error) (*LiveDisC, error) {
	if err != nil {
		return nil, err
	}
	return rp.Finish(), nil
}

// LiveReplay is a maintainer under reconstruction: a base state (empty,
// seeded or restored from a persisted coverage graph) plus a stream of
// logged inserts and deletes. A replayed record only records its edges:
// an insert appends the point, finds its in-range neighbours and
// buckets it, a delete tombstones and unbuckets, and neither touches
// the adjacency. Finish then builds the adjacency once — the base rows
// and the recorded edges folded into one CSR — and runs the greedy once
// over the live ids. The result is the state the same mutations applied
// through LiveDisC.Insert/Delete and a Flush reach, at a fraction of
// the cost: recovery never needs the per-mutation adjacency splices the
// live path keeps.
type LiveReplay struct {
	l        *LiveDisC
	base     *grid.CSR   // nil: no checkpoint adjacency
	edges    []grid.Edge // one per in-range pair a replayed insert found
	replayed bool        // a record was applied; Finish must fold
}

// NewLiveReplay starts a replay from the empty state (see NewLiveDisC).
func NewLiveReplay(m object.Metric, r float64) (*LiveReplay, error) {
	dyn, err := object.NewDynDataset(m)
	if err != nil {
		return nil, err
	}
	return newLiveReplay(dyn, nil, r, 0)
}

// SeedLiveReplay starts a replay from flat, running the ε-join (see
// SeedLiveDisC): the grid build and cell join for Lp metrics, the flat
// join for every other metric.
func SeedLiveReplay(flat *object.FlatDataset, r float64, workers int) (*LiveReplay, error) {
	var csr *grid.CSR
	var joinAcc int64
	var err error
	if grid.Supports(flat.Metric()) {
		var g *grid.Grid
		if g, err = grid.Build(flat, r); err != nil {
			return nil, err
		}
		csr, joinAcc, err = grid.Join(g, r, workers)
	} else {
		csr, joinAcc, err = grid.FlatJoin(flat, r, workers)
	}
	if err != nil {
		return nil, err
	}
	return newLiveReplay(object.DynFromFlat(flat), csr, r, joinAcc)
}

// RestoreLiveReplay starts a replay from a dataset plus an
// already-joined coverage-graph CSR — the warm-start path snapshot
// recovery uses, skipping the grid build and ε-join entirely. The CSR
// must pass CSR.Validate (ascending rows with no self-loop or repeated
// neighbour, ids in range, distances at most r; NaN is refused, while
// a distance a few ulps below zero passes, as cosine and dot-product
// distances between parallel vectors may round there), so a tampered
// or stale adjacency fails here rather than corrupting repairs later.
func RestoreLiveReplay(flat *object.FlatDataset, csr *grid.CSR, r float64) (*LiveReplay, error) {
	if err := csr.Validate(flat.Len(), r); err != nil {
		return nil, fmt.Errorf("core: live: checkpoint adjacency: %w", err)
	}
	return newLiveReplay(object.DynFromFlat(flat), csr, r, 0)
}

// newLiveReplay picks the neighbour source: the mutable grid for Lp
// metrics, the row scan (mg == nil) for every other metric.
func newLiveReplay(dyn *object.DynDataset, csr *grid.CSR, r float64, accesses int64) (*LiveReplay, error) {
	var mg *grid.MutGrid
	if grid.Supports(dyn.Metric()) {
		var err error
		if mg, err = grid.NewMutGrid(dyn, r); err != nil {
			return nil, err
		}
	} else if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("core: live: invalid radius %g", r)
	}
	return &LiveReplay{base: csr, l: &LiveDisC{
		r:        r,
		dyn:      dyn,
		mg:       mg,
		accesses: accesses,
	}}, nil
}

// Insert applies a logged insert: it appends p, buckets it and records
// one edge per in-range neighbour for Finish to fold. It returns the id
// p was assigned.
func (rp *LiveReplay) Insert(p object.Point) (int, error) {
	defer telemetry.Since(metLiveInsert, time.Now())
	l := rp.l
	id, err := l.place(p)
	if err != nil {
		return 0, err
	}
	entries := 2 * int64(len(rp.edges)+len(l.qbuf))
	if rp.base != nil {
		entries += int64(len(rp.base.Nbrs))
	}
	if entries > math.MaxInt32 {
		return 0, fmt.Errorf("core: live: coverage graph exceeds %d adjacency entries", math.MaxInt32)
	}
	for _, nb := range l.qbuf {
		rp.edges = append(rp.edges, grid.Edge{New: int32(id), Old: int32(nb.ID), Dist: nb.Dist})
	}
	rp.replayed = true
	return id, nil
}

// Delete applies a logged delete: id must be live; it is tombstoned and
// unbucketed, and Finish drops its edges.
func (rp *LiveReplay) Delete(id int) error {
	defer telemetry.Since(metLiveDelete, time.Now())
	if err := rp.l.retire(id); err != nil {
		return err
	}
	rp.replayed = true
	return nil
}

// Finish folds the base adjacency and the recorded edges into one CSR
// (grid.Fold; with no record applied the base is kept as is), runs the
// greedy over every live object (run), recording every object's leave
// time, and returns the maintainer with that selection published. The
// replay must not be used afterwards.
func (rp *LiveReplay) Finish() *LiveDisC {
	l := rp.l
	slots := l.dyn.Slots()
	adj := rp.base
	if rp.replayed {
		adj = grid.Fold(rp.base, slots, l.dyn.Alive, rp.edges)
	}
	*rp = LiveReplay{}
	l.adj = grid.NewDynAdj(adj)
	l.sel.Grow(slots)
	l.rs.grow(slots)
	l.trace = make([]uint64, slots)
	if live := l.dyn.Live(); live > 0 {
		start := time.Now()
		metLiveResimulated.Add(uint64(live))
		l.run()
		telemetry.Since(metLiveRepair, start)
	}
	l.publish()
	return l
}

// Radius returns the maintained diversification radius.
func (l *LiveDisC) Radius() float64 { return l.r }

// Len returns the number of live objects.
func (l *LiveDisC) Len() int { return l.dyn.Live() }

// Dim returns the dimensionality (0 before the first insert).
func (l *LiveDisC) Dim() int { return l.dyn.Dim() }

// Slots returns the id domain bound (dead ids included).
func (l *LiveDisC) Slots() int { return l.dyn.Slots() }

// Alive reports whether id names a live object.
func (l *LiveDisC) Alive(id int) bool { return l.dyn.Alive(id) }

// Point returns the coordinates of object id (tombstones included).
func (l *LiveDisC) Point(id int) object.Point { return l.dyn.Point(id).Clone() }

// Gridded reports whether inserts find their neighbours through the
// grid occupancy (Lp metrics) rather than the row scan.
func (l *LiveDisC) Gridded() bool { return l.mg != nil }

// Pending returns the number of writes (inserts and deletes) since the
// last Flush: nonzero exactly when the published selection may be
// stale.
func (l *LiveDisC) Pending() int { return l.pending }

// Accesses returns the cumulative objects-examined count: candidates
// evaluated by neighbourhood queries plus adjacency entries walked by
// repairs, mirroring the batch accounting.
func (l *LiveDisC) Accesses() int64 { return l.accesses }

// Insert adds p, splices it into the grid and the adjacency and queues
// p and its neighbours for repair. The published selection is unchanged
// until the next Flush.
func (l *LiveDisC) Insert(p object.Point) (int, error) {
	defer telemetry.Since(metLiveInsert, time.Now())
	id, err := l.place(p)
	if err != nil {
		return 0, err
	}
	l.adj.AddVertex(id, l.qbuf)
	l.pending++
	l.sel.Grow(l.dyn.Slots())
	l.trace = append(l.trace, 0)
	l.rs.grow(l.dyn.Slots())
	l.queue(int32(id))
	for _, nb := range l.qbuf {
		l.queue(int32(nb.ID))
	}
	return id, nil
}

// place is the dataset and grid step of an insert, shared by the live
// path and replay: append p, find its in-range neighbours and bucket it
// in the grid (when there is one). It leaves the neighbours in l.qbuf,
// ascending by id.
func (l *LiveDisC) place(p object.Point) (int, error) {
	id, err := l.dyn.Append(p)
	if err != nil {
		return 0, err
	}
	if l.mg == nil {
		l.qbuf = l.scanRange(l.qbuf[:0], p, id)
		return id, nil
	}
	if l.gs == nil {
		l.gs = grid.NewScratch(l.dyn.Dim())
	}
	l.qbuf = l.mg.AppendRange(l.qbuf[:0], p, l.r, id, &l.accesses, l.gs)
	l.mg.Insert(id)
	return id, nil
}

// scanRange is the neighbour source for metrics the grid cannot serve:
// it appends every live row within r of q, excluding id exclude, in
// ascending id order. Candidates pass the test MutGrid.AppendRange
// applies (the kernel's one-call InRange), so the distances are
// bit-identical to grid.FlatJoin's.
func (l *LiveDisC) scanRange(dst []object.Neighbor, q []float64, exclude int) []object.Neighbor {
	k := l.dyn.Kernel()
	rawR := k.RawThreshold(l.r)
	for id := range l.dyn.Slots() {
		if id == exclude || !l.dyn.Alive(id) {
			continue
		}
		l.accesses++
		if d, ok := k.InRange(q, l.dyn.Row(id), rawR, l.r); ok {
			dst = append(dst, object.Neighbor{ID: id, Dist: d})
		}
	}
	return dst
}

// Delete retracts a live object, unsplices it everywhere and queues the
// severed neighbours for repair. The published selection is unchanged
// until the next Flush.
func (l *LiveDisC) Delete(id int) error {
	defer telemetry.Since(metLiveDelete, time.Now())
	if err := l.retire(id); err != nil {
		return err
	}
	l.pending++
	for _, nb := range l.adj.Row(id) {
		l.queue(int32(nb.ID))
	}
	l.adj.RemoveVertex(id)
	l.rs.st[id] &^= stWhite // a queued seed that is gone
	if picked(l.trace[id], id) {
		l.sel.Clear(id)
		l.selCount--
	}
	l.trace[id] = 0
	return nil
}

// retire is the dataset and grid step of a delete, shared by the live
// path and replay: check id is live, then tombstone it and unbucket it
// from the grid (when there is one).
func (l *LiveDisC) retire(id int) error {
	if !l.dyn.Alive(id) {
		return fmt.Errorf("core: live: id %d is not a live object", id)
	}
	// Tombstone before unbucketing: a shrink-triggered re-bucket inside
	// mg.Remove walks live ids, and the dying id must not be among them
	// (it would be re-admitted and stay bucketed forever, feeding dead
	// neighbours to later inserts).
	if err := l.dyn.Delete(id); err != nil {
		return err
	}
	if l.mg != nil {
		l.mg.Remove(id)
	}
	return nil
}

// Flush replays the greedy from every object a write queued since the
// last Flush (see repair) and publishes the converged selection. It
// returns the number of writes it converged (Pending before the call).
func (l *LiveDisC) Flush() int {
	writes := l.pending
	if writes == 0 {
		return 0
	}
	defer telemetry.Since(metLiveRepair, time.Now())
	l.repair()
	l.pending = 0
	l.publish()
	return writes
}

// run is the pruned greedy over every live object in full, mirroring
// adjGreedy.run from the batch path: the same (count desc, id asc) pop
// order from a bucketQueue, the same grey-update decrements. It selects
// what GreedyDisCComponents selects over the live points, in the same
// order, and records every object's leave time.
func (l *LiveDisC) run() {
	slots := l.dyn.Slots()
	white := bitset.New(slots)
	var grey []int32
	for len(l.nw) < slots {
		l.nw = append(l.nw, 0)
	}
	for id := range slots {
		if l.dyn.Alive(id) {
			white.Set(id)
			l.nw[id] = int32(l.adj.Degree(id))
		}
	}
	var q bucketQueue
	fill(&q, l.nw[:slots], white.Test)
	for {
		pi, ok := popLive(&q, l.nw, white.Test)
		if !ok {
			break
		}
		white.Clear(pi)
		t := leaveTime(l.nw[pi], pi)
		l.trace[pi] = t
		l.sel.Set(pi)
		l.selCount++
		row := l.adj.Row(pi)
		l.accesses += int64(len(row))
		grey = grey[:0]
		for _, nb := range row {
			if white.Test(nb.ID) {
				white.Clear(nb.ID)
				l.trace[nb.ID] = t
				grey = append(grey, int32(nb.ID))
			}
		}
		for _, gj := range grey {
			grow := l.adj.Row(int(gj))
			l.accesses += int64(len(grow))
			for _, nb := range grow {
				if white.Test(nb.ID) {
					l.nw[nb.ID]--
				}
			}
		}
	}
}

// publish freezes the current selection into an immutable snapshot for
// lock-free readers.
func (l *LiveDisC) publish() {
	l.published.Store(&liveSnap{bits: l.sel.Clone(), count: l.selCount})
}

// Selection returns the ids of the last published (converged) selection
// in ascending order. The slice is shared between callers and must not
// be modified. Safe for concurrent use.
func (l *LiveDisC) Selection() []int {
	s := l.published.Load()
	s.once.Do(func() {
		s.ids = s.bits.AppendSet(make([]int, 0, s.count))
	})
	return s.ids
}

// Size returns the size of the last published selection. Safe for
// concurrent use.
func (l *LiveDisC) Size() int { return l.published.Load().count }

// IsRepresentative reports whether id is selected in the last published
// selection. Safe for concurrent use.
func (l *LiveDisC) IsRepresentative(id int) bool {
	s := l.published.Load()
	return id >= 0 && id < s.bits.Len() && s.bits.Test(id)
}

// OrderedSelection returns the converged selection in the global
// greedy's pick order: leave time descending. Callers must Flush first;
// with writes pending the result would mix selection generations, so
// pending state returns nil.
func (l *LiveDisC) OrderedSelection() []int {
	if l.pending > 0 {
		return nil
	}
	out := l.sel.AppendSet(make([]int, 0, l.selCount))
	slices.SortFunc(out, func(a, b int) int { return cmp.Compare(l.trace[b], l.trace[a]) })
	return out
}

// Compact squeezes the tombstones out of every maintained structure:
// the live rows become a dense FlatDataset and the adjacency a
// canonical CSR, both in the new id space of the returned remap
// (monotone over live ids). A from-scratch join (grid.Join, or
// grid.FlatJoin for metrics the grid cannot serve) over the returned
// dataset yields a bit-identical CSR whenever the incremental
// maintenance is correct; the conformance tests assert exactly that.
func (l *LiveDisC) Compact() (*object.FlatDataset, []int32, *grid.CSR, error) {
	flat, remap, err := l.dyn.CompactFlat()
	if err != nil {
		return nil, nil, nil, err
	}
	csr, err := l.adj.Compact(remap, flat.Len())
	if err != nil {
		return nil, nil, nil, err
	}
	return flat, remap, csr, nil
}

// Verify checks the DisC invariants of the converged selection over the
// live objects by direct distance computation (O(n·|S|); tests and
// debugging). Pending writes must be flushed first.
func (l *LiveDisC) Verify() error {
	if l.pending > 0 {
		return fmt.Errorf("core: live: %d writes pending repair; Flush first", l.pending)
	}
	if l.dyn.Live() == 0 {
		return nil
	}
	pts := l.dyn.LivePoints()
	dense := make([]int32, l.dyn.Slots())
	next := int32(0)
	for id := range dense {
		if l.dyn.Alive(id) {
			dense[id] = next
			next++
		} else {
			dense[id] = -1
		}
	}
	sel := l.sel.AppendSet(nil)
	ids := make([]int, len(sel))
	for i, id := range sel {
		if dense[id] < 0 {
			return fmt.Errorf("core: live: dead id %d selected", id)
		}
		ids[i] = int(dense[id])
	}
	return CheckDisC(pts, l.dyn.Metric(), ids, l.r)
}

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
// changes. It is the incremental counterpart of GreedyDisCComponents on the same
// substrate — copy-on-write CSR adjacency (grid.DynAdj), component
// labels — and reproduces the batch algorithm exactly: after Flush, the
// selection is what GreedyDisCComponents would compute over the live
// points from scratch (sequence-equal through the monotone id remap of
// a compaction). Works under every metric.
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
// pruned component greedy in full once, recording every leave time.
//
// Components are still maintained, for the batch output order and for
// Compact: an insert joins (or merges) the components of its in-range
// neighbours; a delete can split its component, which a bounded BFS
// over the remaining members re-partitions. Touched components are
// marked dirty until the next Flush.
//
// Reads are bounded-stale: the last converged selection is published as
// an immutable snapshot behind an atomic pointer, so Selection,
// IsRepresentative and Size are safe for any number of concurrent
// readers while mutations and repairs run — they simply keep answering
// from the pre-mutation state until the next Flush publishes. Mutations
// themselves (Insert, Delete, Flush) are not concurrency-safe; the
// public disc.Updater adds that lock.
//
// Component labels are the component's minimum live member id (-1 for
// dead slots) — the id-stable form of the canonical
// ascending-minimum-member numbering, which is what keeps the ordered
// selection's component order identical to the batch run's.
type LiveDisC struct {
	r   float64
	dyn *object.DynDataset
	mg  *grid.MutGrid // nil: the metric is not grid-servable, inserts scan
	adj *grid.DynAdj

	label []int32
	comps map[int32][]int32 // label -> live members, ascending
	dirty map[int32]struct{}

	// trace[id] is the leave time of id in the converged greedy run:
	// the priority (leaveTime) of the pick that stopped it being white,
	// its own pick's when it was selected; 0 for dead slots and for
	// inserts not yet flushed.
	trace []uint64

	sel      bitset.Set // converging selection
	selCount int

	published atomic.Pointer[liveSnap]
	accesses  int64

	// Repair and traversal scratch, grown lazily to the slot domain.
	rs    liveRepair
	bq    bucketQueue
	white bitset.Set
	pend  bitset.Set
	nw    []int32
	grey  []int32
	stack []int32
	qbuf  []object.Neighbor
	gs    *grid.Scratch
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
// the batch pipeline once — grid build, ε-join, component labeling,
// component-decomposed greedy — and adopting its artifacts as the live
// state, so the first published selection is the batch selection and
// every later Flush stays equivalent to it. workers shards the ε-join
// (<= 0 selects one).
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
// the adjacency or keeps component state. Finish then builds the
// adjacency once — the base rows and the recorded edges folded into one
// CSR — and runs the batch tail once over it: component labeling over
// the live ids and the component greedy. The result is the state the
// same mutations applied through LiveDisC.Insert/Delete and a Flush
// reach, at a fraction of the cost: recovery never needs the
// per-mutation adjacency splices and component state the live path
// keeps.
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
// distances between parallel vectors may round there), and the
// component decomposition is recomputed from it by Finish (never
// trusted from the caller), so a tampered or stale adjacency fails here
// rather than corrupting repairs later.
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
		comps:    make(map[int32][]int32),
		dirty:    make(map[int32]struct{}),
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
// (grid.Fold; with no record applied the base is kept as is), labels
// the components of the replayed state (label = minimum live member,
// dead slots -1), runs the component greedy over every component,
// recording every object's leave time, and returns the maintainer with
// that selection published. The replay must not be used afterwards.
func (rp *LiveReplay) Finish() *LiveDisC {
	l := rp.l
	slots := l.dyn.Slots()
	adj := rp.base
	if rp.replayed {
		adj = grid.Fold(rp.base, slots, l.dyn.Alive, rp.edges)
	}
	*rp = LiveReplay{}
	l.adj = grid.NewDynAdj(adj)
	l.label = grid.MinMemberLabels(slots, l.r, l.adj.Row, l.dyn.Alive)
	for id, lab := range l.label {
		if lab >= 0 {
			l.comps[lab] = append(l.comps[lab], int32(id))
		}
	}
	l.sel.Grow(slots)
	l.rs.grow(slots)
	l.trace = make([]uint64, slots)
	if len(l.comps) > 0 {
		start := time.Now()
		metLiveRepaired.Add(uint64(len(l.comps)))
		l.white.Grow(slots)
		for len(l.nw) < slots {
			l.nw = append(l.nw, 0)
		}
		for _, members := range l.comps {
			l.runComponent(members)
		}
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

// Pending returns the number of components awaiting repair.
func (l *LiveDisC) Pending() int { return len(l.dirty) }

// Accesses returns the cumulative objects-examined count: candidates
// evaluated by neighbourhood queries plus adjacency entries walked by
// repairs, mirroring the batch accounting.
func (l *LiveDisC) Accesses() int64 { return l.accesses }

// Insert adds p, splices it into the grid and the adjacency, merges the
// components of its in-range neighbours, marks the merged component
// dirty and queues p and its neighbours for repair. The published
// selection is unchanged until the next Flush.
func (l *LiveDisC) Insert(p object.Point) (int, error) {
	defer telemetry.Since(metLiveInsert, time.Now())
	id, err := l.place(p)
	if err != nil {
		return 0, err
	}
	l.adj.AddVertex(id, l.qbuf)
	l.join(id)
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
// applies (kernel Within, then Finish(Raw) against r), so the
// distances are bit-identical to grid.FlatJoin's.
func (l *LiveDisC) scanRange(dst []object.Neighbor, q []float64, exclude int) []object.Neighbor {
	k := l.dyn.Kernel()
	rawR := k.RawThreshold(l.r)
	for id := range l.dyn.Slots() {
		if id == exclude || !l.dyn.Alive(id) {
			continue
		}
		l.accesses++
		row := l.dyn.Row(id)
		if k.Within(q, row, rawR) {
			if d := k.Finish(k.Raw(row, q)); d <= l.r {
				dst = append(dst, object.Neighbor{ID: id, Dist: d})
			}
		}
	}
	return dst
}

// join is the component step of an insert: union the components of the
// new id's neighbours (l.qbuf; usually one) with it under the minimum
// label and mark the union dirty.
func (l *LiveDisC) join(id int) {
	for len(l.label) < l.dyn.Slots() {
		l.label = append(l.label, -1)
	}
	l.sel.Grow(l.dyn.Slots())

	merged := l.stack[:0] // distinct labels, reused as scratch
	for _, nb := range l.qbuf {
		if lab := l.label[nb.ID]; !slices.Contains(merged, lab) {
			merged = append(merged, lab)
		}
	}
	l.stack = merged[:0]
	var members []int32
	newLab := int32(id)
	if len(merged) <= 1 {
		// At most one component joins. The new id is the largest slot,
		// so appending keeps the member list ascending and leaves the
		// label (its minimum) unchanged.
		if len(merged) == 1 {
			newLab = merged[0]
			members = l.comps[newLab]
		}
		members = append(members, int32(id))
		l.label[id] = newLab
	} else {
		members = []int32{int32(id)}
		for _, lab := range merged {
			newLab = min(newLab, lab)
			members = append(members, l.comps[lab]...)
			delete(l.comps, lab)
			delete(l.dirty, lab)
		}
		slices.Sort(members)
		for _, m := range members {
			l.label[m] = newLab
		}
	}
	l.comps[newLab] = members
	l.dirty[newLab] = struct{}{}
}

// Delete retracts a live object, unsplices it everywhere, re-partitions
// its component (a bounded BFS over the remaining members decides
// whether the removal split it), marks every resulting part dirty and
// queues the severed neighbours for repair. The published selection is
// unchanged until the next Flush.
func (l *LiveDisC) Delete(id int) error {
	defer telemetry.Since(metLiveDelete, time.Now())
	if err := l.retire(id); err != nil {
		return err
	}
	l.grey = l.grey[:0]
	for _, nb := range l.adj.Row(id) {
		l.grey = append(l.grey, int32(nb.ID))
	}
	l.adj.RemoveVertex(id)
	l.split(id)
	for _, nb := range l.grey {
		l.queue(nb)
	}
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

// split is the component step of a delete: drop id from its component,
// re-partition the remaining members and mark every part dirty. The
// severed neighbours in l.grey bound the search (every part a split
// leaves contains one of them).
func (l *LiveDisC) split(id int) {
	lab := l.label[id]
	l.label[id] = -1
	members := l.comps[lab]
	delete(l.comps, lab)
	delete(l.dirty, lab)
	i, _ := slices.BinarySearch(members, int32(id))
	members = slices.Delete(members, i, i+1)
	if len(members) == 0 {
		return
	}
	// Removing a vertex of degree ≤ 1 cannot disconnect the remainder
	// (any path through a vertex needs two incident edges), so the
	// component survives as-is — possibly under a new minimum label.
	if len(l.grey) <= 1 {
		l.adopt(members)
		return
	}
	// General case: re-partition the remaining members by BFS. Seeding
	// from members in ascending order makes each part's first-discovered
	// vertex its minimum, and every member is visited exactly once, so
	// the pend bitset ends cleared for reuse.
	//
	// The walk is bounded by the removed vertex's neighbourhood: every
	// severed part contains one of its surviving neighbours (a path cut
	// by the removal entered the vertex through one), and any earlier
	// part ran its walk to completion — so the moment the current tree
	// has discovered the last undiscovered neighbour, every member still
	// pending is provably connected to this tree and can be absorbed
	// without walking its edges. Dense components (where deletes are
	// most frequent and walks most expensive) find their handful of
	// neighbours within a few hops.
	l.pend.Grow(l.dyn.Slots())
	l.white.Grow(l.dyn.Slots())
	for _, m := range members {
		l.pend.Set(int(m))
	}
	remaining := 0
	for _, nb := range l.grey {
		l.white.Set(int(nb))
		remaining++
	}
	for _, m := range members {
		if !l.pend.Test(int(m)) {
			continue
		}
		first := m == members[0]
		l.pend.Clear(int(m))
		part := []int32{m}
		if l.white.Test(int(m)) {
			l.white.Clear(int(m))
			remaining--
		}
		l.stack = append(l.stack[:0], m)
		for remaining > 0 && len(l.stack) > 0 {
			u := l.stack[len(l.stack)-1]
			l.stack = l.stack[:len(l.stack)-1]
			for _, nb := range l.adj.Row(int(u)) {
				if l.pend.Test(nb.ID) {
					l.pend.Clear(nb.ID)
					part = append(part, int32(nb.ID))
					l.stack = append(l.stack, int32(nb.ID))
					if l.white.Test(nb.ID) {
						l.white.Clear(nb.ID)
						remaining--
					}
				}
			}
		}
		if remaining == 0 && first {
			// The walk from the minimum reached every severed neighbour:
			// nothing split, and the member list is already the part.
			for _, m2 := range members {
				l.pend.Clear(int(m2))
			}
			l.adopt(members)
			return
		}
		if remaining == 0 {
			for _, m2 := range members {
				if l.pend.Test(int(m2)) {
					l.pend.Clear(int(m2))
					part = append(part, m2)
				}
			}
		}
		slices.Sort(part)
		l.adopt(part)
	}
}

// adopt installs an ascending member list as a (dirty) component
// labeled by its minimum member. The members all carry one old label,
// so when the minimum already carries its own id nothing is relabeled.
func (l *LiveDisC) adopt(members []int32) {
	lab := members[0]
	if l.label[lab] != lab {
		for _, m := range members {
			l.label[m] = lab
		}
	}
	l.comps[lab] = members
	l.dirty[lab] = struct{}{}
}

// Flush replays the greedy from every object a mutation queued since
// the last Flush (see repair) and publishes the converged selection. It
// returns the number of dirty components it converged.
func (l *LiveDisC) Flush() int {
	repaired := len(l.dirty)
	if repaired > 0 || len(l.rs.members) > 0 {
		defer telemetry.Since(metLiveRepair, time.Now())
		metLiveRepaired.Add(uint64(repaired))
		l.repair()
		clear(l.dirty)
	}
	l.publish()
	return repaired
}

// runComponent runs the component-confined pruned greedy over one
// member list in full, mirroring runComponentRange/greedyComponent from
// the batch path: the same singleton and pair fast paths, the same
// (count desc, id asc) pop order with deferred invalidation (served by
// a bucketQueue, order-equivalent to the batch lazyHeap), the same
// grey-update decrements. It selects what the batch run selects for
// this component and records every member's leave time.
func (l *LiveDisC) runComponent(members []int32) {
	switch len(members) {
	case 1:
		l.accesses++
		l.pick(int(members[0]), 0)
		return
	case 2:
		l.accesses += 2
		l.trace[members[1]] = l.pick(int(members[0]), 1)
		return
	}
	q := &l.bq
	for _, id32 := range members {
		id := int(id32)
		l.white.Set(id)
		deg := l.adj.Degree(id)
		l.nw[id] = int32(deg)
		q.push(id32, deg)
	}
	q.start()
	for {
		id32, key, ok := q.pop()
		if !ok {
			break
		}
		pi := int(id32)
		if !l.white.Test(pi) {
			continue
		}
		if int(l.nw[pi]) != key {
			q.push(id32, int(l.nw[pi]))
			continue
		}
		l.white.Clear(pi)
		t := l.pick(pi, int32(key))
		row := l.adj.Row(pi)
		l.accesses += int64(len(row))
		l.grey = l.grey[:0]
		for _, nb := range row {
			if l.white.Test(nb.ID) {
				l.white.Clear(nb.ID)
				l.trace[nb.ID] = t
				l.grey = append(l.grey, int32(nb.ID))
			}
		}
		for _, gj := range l.grey {
			grow := l.adj.Row(int(gj))
			l.accesses += int64(len(grow))
			for _, nb := range grow {
				if l.white.Test(nb.ID) {
					l.nw[nb.ID]--
				}
			}
		}
	}
}

// pick selects id at count key and returns the leave time it records.
func (l *LiveDisC) pick(id int, key int32) uint64 {
	t := leaveTime(key, id)
	l.trace[id] = t
	l.sel.Set(id)
	l.selCount++
	return t
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

// OrderedSelection returns the converged selection in the batch output
// order — components ascending by label, greedy order (leave time
// descending) within each. Callers must Flush first; with repairs
// pending the result would mix selection generations, so pending state
// returns nil.
func (l *LiveDisC) OrderedSelection() []int {
	if len(l.dirty) > 0 || len(l.rs.members) > 0 {
		return nil
	}
	out := l.sel.AppendSet(make([]int, 0, l.selCount))
	slices.SortFunc(out, func(a, b int) int {
		if c := cmp.Compare(l.label[a], l.label[b]); c != 0 {
			return c
		}
		return cmp.Compare(l.trace[b], l.trace[a])
	})
	return out
}

// Compact squeezes the tombstones out of every maintained structure:
// the live rows become a dense FlatDataset, the adjacency a canonical
// CSR, the labels a canonical grid.Components — all in the new id space
// of the returned remap (monotone over live ids). A from-scratch join
// (grid.Join, or grid.FlatJoin for metrics the grid cannot serve) and
// ComponentsOfCSR over the returned dataset yield bit-identical
// structures whenever the incremental maintenance is correct; the
// conformance tests assert exactly that.
func (l *LiveDisC) Compact() (*object.FlatDataset, []int32, *grid.CSR, *grid.Components, error) {
	flat, remap, err := l.dyn.CompactFlat()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	csr, err := l.adj.Compact(remap, flat.Len())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Labels are minimum member ids; scanning old ids ascending meets
	// each component first at its minimum member, which is exactly the
	// canonical ascending-minimum-member numbering.
	labels := make([]int32, flat.Len())
	next := int32(0)
	rank := make(map[int32]int32, len(l.comps))
	for old, nw := range remap {
		if nw < 0 {
			continue
		}
		lab := l.label[old]
		rk, ok := rank[lab]
		if !ok {
			rk = next
			rank[lab] = rk
			next++
		}
		labels[nw] = rk
	}
	comp := &grid.Components{Count: int(next), Label: labels}
	comp.BuildIndex()
	return flat, remap, csr, comp, nil
}

// Verify checks the DisC invariants of the converged selection over the
// live objects by direct distance computation (O(n·|S|); tests and
// debugging). Pending repairs must be flushed first.
func (l *LiveDisC) Verify() error {
	if len(l.dirty) > 0 {
		return fmt.Errorf("core: live: %d components pending repair; Flush first", len(l.dirty))
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

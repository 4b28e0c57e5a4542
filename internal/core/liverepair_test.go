package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

// assertTraceMatchesRerun requires l's leave times to be those a full
// greedy run records over the compacted state (flat, csr), through the
// monotone remap: the trace of a flushed maintainer must not drift from
// the run it stands for, or later repairs would start from a wrong one.
func assertTraceMatchesRerun(t *testing.T, l *LiveDisC, flat *object.FlatDataset, remap []int32, csr *grid.CSR, r float64) {
	t.Helper()
	rp, err := RestoreLiveReplay(flat, csr, r)
	if err != nil {
		t.Fatal(err)
	}
	fresh := rp.Finish()
	for old, nw := range remap {
		if nw < 0 {
			continue
		}
		got := l.trace[old]
		by := remap[int(^uint32(got))]
		if by < 0 {
			t.Fatalf("id %d left at the pick of dead id %d", old, int(^uint32(got)))
		}
		if got = got&^(1<<32-1) | uint64(^uint32(by)); got != fresh.trace[nw] {
			t.Fatalf("id %d (remapped %d) leaves at %#x, a full run records %#x", old, nw, got, fresh.trace[nw])
		}
	}
}

// liveChurn drives the shape of the repository benchmark's live
// workload: 20,000 clustered points (d=2, 10 clusters, euclidean,
// layout seed 1) seeded at r = 0.01, then a seeded insert:delete = 3:1
// stream, inserts drawn from the same clusters, deletes from the ids
// the stream inserted.
type liveChurn struct {
	l    *LiveDisC
	pool []object.Point
	rng  *rand.Rand
	mine []int
}

const (
	churnSeedN = 20000
	churnR     = 0.01
)

func newLiveChurn(tb testing.TB, inserts int) *liveChurn {
	tb.Helper()
	ds, err := dataset.Clustered(churnSeedN+inserts, 2, 10, 1)
	if err != nil {
		tb.Fatal(err)
	}
	flat, err := object.Flatten(ds.Points[:churnSeedN], object.Euclidean{})
	if err != nil {
		tb.Fatal(err)
	}
	l, err := SeedLiveDisC(flat, churnR, 2)
	if err != nil {
		tb.Fatal(err)
	}
	pool := ds.Points[churnSeedN:]
	rng := rand.New(rand.NewPCG(1, 2))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return &liveChurn{l: l, pool: pool, rng: rng}
}

// next draws the next op: a delete of an id the stream inserted
// (del >= 0) or an insert of p.
func (c *liveChurn) next() (del int, p object.Point) {
	if len(c.mine) > 0 && c.rng.IntN(4) == 0 {
		k := c.rng.IntN(len(c.mine))
		del = c.mine[k]
		c.mine[k] = c.mine[len(c.mine)-1]
		c.mine = c.mine[:len(c.mine)-1]
		return del, nil
	}
	p, c.pool = c.pool[0], c.pool[1:]
	return -1, p
}

// apply runs an op drawn by next and returns the id it touched.
func (c *liveChurn) apply(tb testing.TB, del int, p object.Point) int {
	if p == nil {
		if err := c.l.Delete(del); err != nil {
			tb.Fatal(err)
		}
		return del
	}
	id, err := c.l.Insert(p)
	if err != nil {
		tb.Fatal(err)
	}
	c.mine = append(c.mine, id)
	return id
}

// componentEntries is the adjacency entry count of the component of
// live object id, found by a breadth-first walk.
func componentEntries(l *LiveDisC, id int) int64 {
	seen := map[int]bool{id: true}
	var n int64
	for queue := []int{id}; len(queue) > 0; queue = queue[1:] {
		row := l.adj.Row(queue[0])
		n += int64(len(row))
		for _, nb := range row {
			if !seen[nb.ID] {
				seen[nb.ID] = true
				queue = append(queue, nb.ID)
			}
		}
	}
	return n
}

// TestLiveRepairBounded pins the point of the trace-bounded repair on
// the live workload's data, where nearly every write lands in one
// component of ~11k members: the median flushed write examines under a
// quarter of the touched component's adjacency entries (a whole-
// component re-run walks every one of them), and the selection stays
// the from-scratch component select.
func TestLiveRepairBounded(t *testing.T) {
	const ops = 200
	c := newLiveChurn(t, ops)
	l := c.l
	var ratios []float64
	for i := 1; i <= ops; i++ {
		acc := l.Accesses()
		del, p := c.next()
		var entries int64
		if p == nil {
			// A delete's component is measured before it can split.
			entries = componentEntries(l, del)
		}
		if id := c.apply(t, del, p); p != nil {
			entries = componentEntries(l, id)
		}
		l.Flush()
		ratios = append(ratios, float64(l.Accesses()-acc)/float64(max(entries, 1)))
		if i%25 == 0 {
			assertMatchesComponentGreedy(t, l, churnR)
			flat, remap, csr, err := l.Compact()
			if err != nil {
				t.Fatal(err)
			}
			assertTraceMatchesRerun(t, l, flat, remap, csr, churnR)
		}
	}
	slices.Sort(ratios)
	med := ratios[len(ratios)/2]
	t.Logf("median flush examined %.4f of the touched component's adjacency entries", med)
	if med >= 0.25 {
		t.Fatalf("median flush examined %.2f of the touched component's adjacency entries, want < 0.25", med)
	}
}

// BenchmarkLiveRepair is one flushed write of the live workload's
// shape (see liveChurn): an insert or delete, then Flush.
func BenchmarkLiveRepair(b *testing.B) {
	c := newLiveChurn(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		del, p := c.next()
		c.apply(b, del, p)
		c.l.Flush()
	}
}

// BenchmarkLiveFlushStream replays the repository benchmark's live
// write stream exactly (perfbench live): 20,000 clustered points (d=2,
// 10 clusters, euclidean, layout seed 1) seeded at r = 0.01, the
// stream points past them shuffled by PCG(seed, 4), ops drawn by
// PCG(seed, 2) (a delete of a stream-inserted id with probability 1/4
// once there is one), 48 untimed warm-up writes, then 3,200 writes,
// each flushed. One op is the whole stream. It reports the Flush
// percentiles in µs and the repair accesses per flush; liveChurn draws
// other sequences, so only this stream predicts the benchmark's live
// CPU percentiles.
func BenchmarkLiveFlushStream(b *testing.B) {
	for _, seed := range []uint64{1, 7919} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			benchFlushStream(b, seed)
		})
	}
}

func benchFlushStream(b *testing.B, seed uint64) {
	const (
		warm   = 48
		writes = 3200
	)
	ds, err := dataset.Clustered(churnSeedN+warm+2*writes, 2, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	pool := ds.Points[churnSeedN:]
	shuffler := rand.New(rand.NewPCG(seed, 4))
	shuffler.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	flat, err := object.Flatten(ds.Points[:churnSeedN], object.Euclidean{})
	if err != nil {
		b.Fatal(err)
	}
	var flushes []time.Duration
	var accesses int64
	for range b.N {
		b.StopTimer()
		l, err := SeedLiveDisC(flat, churnR, 1)
		if err != nil {
			b.Fatal(err)
		}
		c := &liveChurn{l: l, pool: pool, rng: rand.New(rand.NewPCG(seed, 2))}
		for i := 0; i < warm+writes; i++ {
			if i == warm {
				b.StartTimer()
			}
			del, p := c.next()
			c.apply(b, del, p)
			acc, start := l.Accesses(), time.Now()
			l.Flush()
			if i >= warm {
				flushes = append(flushes, time.Since(start))
				accesses += l.Accesses() - acc
			}
		}
	}
	slices.Sort(flushes)
	at := func(q float64) float64 {
		return float64(flushes[int(q*float64(len(flushes)-1))].Nanoseconds()) / 1e3
	}
	b.ReportMetric(at(0.5), "flush-p50-µs")
	b.ReportMetric(at(0.9), "flush-p90-µs")
	b.ReportMetric(at(0.99), "flush-p99-µs")
	b.ReportMetric(float64(accesses)/float64(len(flushes)), "accesses/flush")
}

// repairOn builds a flushed maintainer over the 1-d points xs (ids in
// order, euclidean, r = 1), applies write and flushes it. It returns
// the maintainer, the seeds the write queued (ascending) and the number
// of objects the flush activated: the seeds plus every object joined.
func repairOn(t *testing.T, xs []float64, write func(l *LiveDisC) error) (*LiveDisC, []int32, uint64) {
	t.Helper()
	l, err := NewLiveDisC(object.Euclidean{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if _, err := l.Insert(object.Point{x}); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	if err := write(l); err != nil {
		t.Fatal(err)
	}
	seeds := slices.Clone(l.rs.members)
	slices.Sort(seeds)
	before := metLiveResimulated.Value()
	l.Flush()
	active := metLiveResimulated.Value() - before
	assertConverged(t, l, 1)
	return l, seeds, active
}

// assertPickers requires l's leave times to name the given pickers: want[id]
// is the id whose pick stopped id being white, -1 for a dead id.
func assertPickers(t *testing.T, l *LiveDisC, want []int) {
	t.Helper()
	for id, p := range want {
		if p < 0 {
			continue
		}
		if got := int(^uint32(l.trace[id])); got != p {
			t.Errorf("id %d left at the pick of %d, want %d", id, got, p)
		}
	}
}

// TestLiveDeleteGreySeedsItsPicker: deleting a grey seeds only its
// picker. d (id 4) is a grey of p (id 0) beside g, another grey of p,
// and e, a later pick; only p's count fell in a way that can move its
// leave time.
func TestLiveDeleteGreySeedsItsPicker(t *testing.T) {
	//                   p    a     b     g    d    e    f
	xs := []float64{0, -0.5, -0.8, 0.4, 0.9, 1.8, 2.6}
	l, seeds, active := repairOn(t, xs, func(l *LiveDisC) error { return l.Delete(4) })
	if !slices.Equal(seeds, []int32{0}) {
		t.Fatalf("delete of a grey seeded %v, want its picker [0]", seeds)
	}
	// p fails its recorded pick (its count fell from 4 to 3) and its
	// recorded greys a, b, g join: four objects, not e or f.
	if active != 4 {
		t.Fatalf("flush activated %d objects, want 4 (p and its greys)", active)
	}
	assertPickers(t, l, []int{0, 0, 0, 0, -1, 5, 5})
}

// TestLiveDeletePickSeedsItsGreys: deleting a pick seeds only its
// greys. p (id 5) greyed a and b; its other neighbour n left earlier,
// as a grey of q, and keeps that leave.
func TestLiveDeletePickSeedsItsGreys(t *testing.T) {
	//                   q    l1    l2    l3   n    p    a    b
	xs := []float64{0, -0.5, -0.7, -0.9, 0.6, 1.5, 2.0, 2.4}
	l, seeds, active := repairOn(t, xs, func(l *LiveDisC) error { return l.Delete(5) })
	if !slices.Equal(seeds, []int32{6, 7}) {
		t.Fatalf("delete of a pick seeded %v, want its greys [6 7]", seeds)
	}
	if active != 2 {
		t.Fatalf("flush activated %d objects, want 2 (the seeds)", active)
	}
	assertPickers(t, l, []int{0, 0, 0, 0, 0, -1, 6, 6})
}

// TestLiveSoonerLeaveKeepsOtherGreys: an object that leaves sooner than
// recorded joins only the outside neighbours whose leave that can move.
// The insert z (id 9) picks first and greys x and v (ids 3 and 4)
// sooner; their neighbour y (id 5) is a grey of p (id 6), whose pick
// does not change, so y greys at its recorded time without joining.
func TestLiveSoonerLeaveKeepsOtherGreys(t *testing.T) {
	//                   c1    c2    c3    x    v    y    p    r1   r2
	xs := []float64{-0.3, -0.6, -0.9, 0.5, 1.0, 1.4, 2.2, 2.7, 3.0}
	l, seeds, active := repairOn(t, xs, func(l *LiveDisC) error {
		_, err := l.Insert(object.Point{0.05})
		return err
	})
	// c2 and c3 are bound by their degree (see the degree test).
	if !slices.Equal(seeds, []int32{0, 3, 4, 9}) {
		t.Fatalf("insert seeded %v, want [0 3 4 9]", seeds)
	}
	// z, its four seeded neighbours and c2, c3 greyed by its pick: six.
	// y would make seven.
	if active != 6 {
		t.Fatalf("flush activated %d objects, want 6 (y stays outside)", active)
	}
	if lo := l.trace[5]; !slices.Equal(l.Selection(), []int{6, 9}) || lo != leaveTime(3, 6) {
		t.Fatalf("selection %v, y leaves at %#x; want [6 9] and p's pick %#x", l.Selection(), lo, leaveTime(3, 6))
	}
}

// TestLiveDegreeBoundGreyStaysOutside: a recorded grey whose degree
// keeps its priority below its recorded leave is neither seeded by an
// insert beside it nor joined by a neighbour that diverges later.
func TestLiveDegreeBoundGreyStaysOutside(t *testing.T) {
	t.Run("insert", func(t *testing.T) {
		// y (id 3) is a grey of p (id 0), picked at count 3; the insert
		// z at 1.8 raises y's degree to 2, still below p's count.
		//                   p    a     b     y
		xs := []float64{0, -0.5, -0.8, 0.9}
		l, seeds, active := repairOn(t, xs, func(l *LiveDisC) error {
			_, err := l.Insert(object.Point{1.8})
			return err
		})
		if !l.greyBound(3) {
			t.Fatal("y is not bound by its degree")
		}
		if !slices.Equal(seeds, []int32{4}) || active != 1 {
			t.Fatalf("insert seeded %v and activated %d objects, want [4] and 1", seeds, active)
		}
		assertPickers(t, l, []int{0, 0, 0, 0, 4})
	})
	t.Run("divergence", func(t *testing.T) {
		// Deleting d (id 1), a grey of A (id 0), makes A fail its
		// recorded pick; its recorded greys x and g (ids 2, 3) join as
		// greys of a failed pick. x's neighbour y (id 4) is a grey of
		// p (id 5) at count 3 with degree 2, so it stays outside.
		//                   A    d     x    g     y    p    r1   r2
		xs := []float64{0, -0.5, 0.6, -0.9, 1.5, 2.3, 2.8, 3.1}
		l, seeds, active := repairOn(t, xs, func(l *LiveDisC) error { return l.Delete(1) })
		if !l.greyBound(4) {
			t.Fatal("y is not bound by its degree")
		}
		if !slices.Equal(seeds, []int32{0}) || active != 3 {
			t.Fatalf("delete seeded %v and activated %d objects, want [0] and 3", seeds, active)
		}
		assertPickers(t, l, []int{0, -1, 0, 0, 5, 5, 5, 5})
	})
}

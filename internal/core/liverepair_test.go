package core

import (
	"math/rand/v2"
	"slices"
	"testing"

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

package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

// replayOp is one logged mutation: an insert of p, or (p == nil) a
// delete of id.
type replayOp struct {
	p  object.Point
	id int
}

// replayScenario is a checkpoint state plus an op tail over it. The
// base points occupy ids 0..len(base)-1 and tail inserts continue from
// there, exactly as a snapshot plus its WAL.
type replayScenario struct {
	base []object.Point
	tail []replayOp
	// Indices into tail of the scripted ops whose effect on the
	// component count is asserted against the incremental path: merge
	// names an insert that bridges two components, splits name deletes
	// (of a checkpointed id and of a tail id) that each cut one in two.
	merge  int
	splits []int
}

// scriptedPoint places a point at position x, in units of r, on a line
// along which m's distance grows with the position gap and which no
// point of randomPointFor comes within r of, so the scripted components
// stay apart from the random ones:
//   - Lp: axis 0 at x·r, axis 1 at 2.5, the rest at 0.5 (random points
//     lie in [0,1]^d). Points differing only on axis 0 are |Δx|·r apart.
//   - Hamming: a thermometer code over {5, 6} (random points are
//     binary) with round(x·r) leading sixes. Two codes differ in the
//     gap of their counts.
//   - cosine: the angle x·θr in the plane of axes 0 and 1, every other
//     axis at -1 (random points lie in the positive orthant, so their
//     cosine similarity to it is at most 1/√(dim-1)). Two such points
//     are (1-cos Δθ)/(dim-1) apart, which is r at Δθ = θr.
func scriptedPoint(m object.Metric, dim int, r, x float64) object.Point {
	p := make(object.Point, dim)
	switch m.(type) {
	case object.Hamming:
		k := int(math.Round(x * r))
		for i := range p {
			p[i] = 5
			if i < k {
				p[i] = 6
			}
		}
	case object.Cosine:
		theta := x * math.Acos(1-r*float64(dim-1))
		for i := range p {
			p[i] = -1
		}
		p[0], p[1] = math.Cos(theta), math.Sin(theta)
	default:
		for i := range p {
			p[i] = 0.5
		}
		p[0], p[1] = x*r, 2.5
	}
	return p
}

func randomPoint(rng *rand.Rand, dim int) object.Point {
	p := make(object.Point, dim)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// randomPointFor draws a point suited to m: binary coordinates under
// Hamming, a unit vector under dot product (the dissimilarity is meant
// for normalised embeddings; on them no object is farther than r from
// itself), [0,1)^dim otherwise.
func randomPointFor(rng *rand.Rand, m object.Metric, dim int) object.Point {
	p := randomPoint(rng, dim)
	switch m.(type) {
	case object.Hamming:
		for i := range p {
			p[i] = math.Floor(2 * p[i])
		}
	case object.DotProduct:
		var n float64
		for i := range p {
			p[i] = 2*p[i] - 1
			n += p[i] * p[i]
		}
		for i := range p {
			p[i] /= math.Sqrt(n)
		}
	}
	return p
}

// newReplayScenario draws n random base points, appends a three-point
// chain and two components one bridge apart, and builds a tail of
// random inserts and deletes (of base and of tail ids) around the
// scripted ops: the bridging insert, the delete of the chain's middle
// (a checkpointed id) and the delete of the bridge (a tail id).
func newReplayScenario(rng *rand.Rand, m object.Metric, dim, n, ops int, r float64) replayScenario {
	var sc replayScenario
	for i := 0; i < n; i++ {
		sc.base = append(sc.base, randomPointFor(rng, m, dim))
	}
	chain := len(sc.base)
	for _, x := range []float64{0, 0.8, 1.6, 4, 5.5} {
		sc.base = append(sc.base, scriptedPoint(m, dim, r, x))
	}
	live := make([]int, 0, len(sc.base)+ops)
	for id := 0; id < n; id++ { // scripted ids are deleted only by script
		live = append(live, id)
	}
	next := len(sc.base)
	random := func(k int) {
		for ; k > 0; k-- {
			if len(live) == 0 || rng.Float64() < 0.6 {
				sc.tail = append(sc.tail, replayOp{p: randomPointFor(rng, m, dim)})
				live = append(live, next)
				next++
				continue
			}
			i := rng.IntN(len(live))
			sc.tail = append(sc.tail, replayOp{id: live[i]})
			live = slices.Delete(live, i, i+1)
		}
	}
	random(ops / 3)
	sc.merge = len(sc.tail)
	bridge := next
	sc.tail = append(sc.tail, replayOp{p: scriptedPoint(m, dim, r, 4.75)})
	next++
	random(ops / 3)
	sc.splits = append(sc.splits, len(sc.tail))
	sc.tail = append(sc.tail, replayOp{id: chain + 1})
	random(ops / 6)
	sc.splits = append(sc.splits, len(sc.tail))
	sc.tail = append(sc.tail, replayOp{id: bridge})
	random(ops - 2*(ops/3) - ops/6)
	return sc
}

// applyIncremental runs ops through the live path (Insert/Delete, which
// splice the adjacency per mutation) and flushes once, asserting the
// scripted ops' effect on the component count of the compacted
// adjacency along the way.
func applyIncremental(t *testing.T, l *LiveDisC, ops []replayOp, merge int, splits []int) {
	t.Helper()
	for i, op := range ops {
		scripted := i == merge || slices.Contains(splits, i)
		before := 0
		if scripted {
			before = componentCount(t, l)
		}
		if op.p != nil {
			if _, err := l.Insert(op.p); err != nil {
				t.Fatal(err)
			}
		} else if err := l.Delete(op.id); err != nil {
			t.Fatal(err)
		}
		if !scripted {
			continue
		}
		switch after := componentCount(t, l); {
		case i == merge && after != before-1:
			t.Fatalf("op %d: bridging insert left %d components from %d", i, after, before)
		case i != merge && after != before+1:
			t.Fatalf("op %d: splitting delete left %d components from %d", i, after, before)
		}
	}
	l.Flush()
}

// componentCount is the number of connected components of l's
// adjacency over the live objects, by union-find over its edges.
func componentCount(t *testing.T, l *LiveDisC) int {
	t.Helper()
	flat, _, csr, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	parent := make([]int, flat.Len())
	for id := range parent {
		parent[id] = id
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	count := len(parent)
	for id := range parent {
		for _, nb := range csr.Row(id) {
			if a, b := find(id), find(nb.ID); a != b {
				parent[a] = b
				count--
			}
		}
	}
	return count
}

// applyReplay runs ops through the substrate-only replay and finishes
// it with the one batch tail.
func applyReplay(t *testing.T, rp *LiveReplay, ops []replayOp) *LiveDisC {
	t.Helper()
	for _, op := range ops {
		if op.p != nil {
			if _, err := rp.Insert(op.p); err != nil {
				t.Fatal(err)
			}
		} else if err := rp.Delete(op.id); err != nil {
			t.Fatal(err)
		}
	}
	return rp.Finish()
}

// assertSameState checks that two maintainers hold bit-identical
// converged state: published and ordered selections, leave times, and
// the compacted dataset, remap and adjacency.
func assertSameState(t *testing.T, got, want *LiveDisC) {
	t.Helper()
	if got.Pending() != 0 || want.Pending() != 0 {
		t.Fatalf("pending repairs: recovered %d, incremental %d", got.Pending(), want.Pending())
	}
	if !slices.Equal(got.Selection(), want.Selection()) {
		t.Fatalf("selection %v, incremental replay selects %v", got.Selection(), want.Selection())
	}
	if !slices.Equal(got.OrderedSelection(), want.OrderedSelection()) {
		t.Fatal("ordered selection differs from the incremental replay")
	}
	if !slices.Equal(got.trace, want.trace) {
		t.Fatal("leave-time trace differs from the incremental replay")
	}
	gf, gr, gc, err := got.Compact()
	if err != nil {
		t.Fatal(err)
	}
	wf, wr, wc, err := want.Compact()
	if err != nil {
		t.Fatal(err)
	}
	// The dataset compares by shape and coordinates: its distance
	// kernel holds function values, which reflect never finds equal.
	if gf.Len() != wf.Len() || gf.Dim() != wf.Dim() || gf.Metric() != wf.Metric() {
		t.Fatalf("compacted dataset %dx%d %s, incremental replay %dx%d %s", gf.Len(), gf.Dim(), gf.Metric().Name(), wf.Len(), wf.Dim(), wf.Metric().Name())
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{{"coordinates", gf.Coords(), wf.Coords()}, {"remap", gr, wr}, {"adjacency", gc, wc}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("compacted %s differs from the incremental replay", c.what)
		}
	}
}

// TestLiveReplayMatchesIncremental is the recovery-equivalence property
// of the batch replay: over seeded checkpoint states with op tails
// (deletes of checkpointed and of tail ids, an insert bridging two
// components, deletes splitting one, and the empty tail), applying the
// tail to the substrate and finishing once must reach exactly the state
// the per-mutation live path reaches — from a restored checkpoint and
// from no checkpoint at all — and the recovered maintainer must then
// stay equal to a from-scratch component select under further
// mutations flushed one by one.
func TestLiveReplayMatchesIncremental(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    object.Metric
		dim  int
		r    float64
		n    int
	}{
		{"euclidean-2d", object.Euclidean{}, 2, 0.06, 400},
		{"manhattan-2d", object.Manhattan{}, 2, 0.08, 300},
		{"chebyshev-3d", object.Chebyshev{}, 3, 0.12, 300},
		{"hamming-12d", object.Hamming{}, 12, 2, 300},
		{"cosine-4d", object.Cosine{}, 4, 0.02, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewPCG(seed, uint64(tc.dim)))
				sc := newReplayScenario(rng, tc.m, tc.dim, tc.n, 240, tc.r)
				flat, err := object.Flatten(sc.base, tc.m)
				if err != nil {
					t.Fatal(err)
				}
				// The checkpoint persists the coverage graph the seed
				// joins.
				csr := batchJoin(t, flat, tc.r)
				for _, tail := range [][]replayOp{nil, sc.tail} {
					merge, splits := -1, []int(nil)
					if tail != nil {
						merge, splits = sc.merge, sc.splits
					}
					want, err := SeedLiveDisC(flat, tc.r, 2)
					if err != nil {
						t.Fatal(err)
					}
					applyIncremental(t, want, tail, merge, splits)
					rp, err := RestoreLiveReplay(flat, csr, tc.r)
					if err != nil {
						t.Fatal(err)
					}
					got := applyReplay(t, rp, tail)
					assertSameState(t, got, want)
					assertConverged(t, got, tc.r)
				}

				// No checkpoint: the base points are logged inserts too.
				ops := make([]replayOp, 0, len(sc.base)+len(sc.tail))
				for _, p := range sc.base {
					ops = append(ops, replayOp{p: p})
				}
				ops = append(ops, sc.tail...)
				want, err := NewLiveDisC(tc.m, tc.r)
				if err != nil {
					t.Fatal(err)
				}
				off := len(sc.base)
				applyIncremental(t, want, ops, off+sc.merge, []int{off + sc.splits[0], off + sc.splits[1]})
				rp, err := NewLiveReplay(tc.m, tc.r)
				if err != nil {
					t.Fatal(err)
				}
				got := applyReplay(t, rp, ops)
				assertSameState(t, got, want)

				// Recovered state keeps converging to the batch answer.
				for step := 0; step < 30; step++ {
					if rng.Float64() < 0.5 {
						if _, err := got.Insert(randomPointFor(rng, tc.m, tc.dim)); err != nil {
							t.Fatal(err)
						}
					} else {
						for {
							id := rng.IntN(got.Slots())
							if got.Alive(id) {
								if err := got.Delete(id); err != nil {
									t.Fatal(err)
								}
								break
							}
						}
					}
					assertConverged(t, got, tc.r)
				}
			}
		})
	}
}

// TestLiveReplayRejectsDeadDelete pins the dead-id check replay keeps:
// a logged delete of an id that is not live fails with the live path's
// error rather than corrupting the substrate.
func TestLiveReplayRejectsDeadDelete(t *testing.T) {
	rp, err := NewLiveReplay(object.Euclidean{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := rp.Insert(object.Point{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Delete(id); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{id, id + 1, -1} {
		if err := rp.Delete(bad); err == nil {
			t.Fatalf("delete of dead id %d accepted", bad)
		}
	}
	if l := rp.Finish(); l.Len() != 0 || l.Size() != 0 || l.Slots() != 1 {
		t.Fatalf("finished replay: %d live, %d selected, %d slots", l.Len(), l.Size(), l.Slots())
	}
}

// foldedCSR packs l's adjacency rows over every slot (dead ones empty)
// into one CSR. After Finish the adjacency has no overrides, so this is
// the CSR the fold built, row for row.
func foldedCSR(l *LiveDisC) *grid.CSR {
	c := &grid.CSR{Offsets: make([]int32, 1, l.Slots()+1)}
	for id := range l.Slots() {
		c.Nbrs = append(c.Nbrs, l.adj.Row(id)...)
		c.Offsets = append(c.Offsets, int32(len(c.Nbrs)))
	}
	return c
}

// TestLiveReplayFoldIsValid: the CSR Finish folds from a checkpoint
// and an insert/delete tail is well formed without any sort (ascending
// rows, no self-loop or repeated neighbour, distances within r), and a
// replay with no records keeps the checkpoint's CSR itself.
func TestLiveReplayFoldIsValid(t *testing.T) {
	const r = 0.06
	rng := rand.New(rand.NewPCG(11, 2))
	sc := newReplayScenario(rng, object.Euclidean{}, 2, 400, 240, r)
	flat, err := object.Flatten(sc.base, object.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	csr := batchJoin(t, flat, r)

	rp, err := RestoreLiveReplay(flat, csr, r)
	if err != nil {
		t.Fatal(err)
	}
	l := applyReplay(t, rp, sc.tail)
	folded := foldedCSR(l)
	if err := folded.Validate(l.Slots(), r); err != nil {
		t.Fatal(err)
	}
	if len(folded.Nbrs) == len(csr.Nbrs) {
		t.Fatal("the tail changed no adjacency entry")
	}

	rp, err = RestoreLiveReplay(flat, csr, r)
	if err != nil {
		t.Fatal(err)
	}
	l = rp.Finish()
	for id := range flat.Len() {
		if row := l.adj.Row(id); len(row) > 0 && &row[0] != &csr.Nbrs[csr.Offsets[id]] {
			t.Fatalf("row %d was copied; a replay without records must keep the checkpoint CSR", id)
		}
	}
}

// TestRestoreRefusesMalformedAdjacency: the checkpoint adjacency must
// pass CSR.Validate. A self-loop, an unsorted row and a repeated
// neighbour are each refused, where offsets, id range and distance
// alone would accept them.
func TestRestoreRefusesMalformedAdjacency(t *testing.T) {
	const r = 0.2
	flat, err := object.Flatten([]object.Point{{0}, {0.05}, {0.1}}, object.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		row0 []object.Neighbor
	}{
		{"self-loop", []object.Neighbor{{ID: 0, Dist: 0}, {ID: 1, Dist: 0.05}}},
		{"unsorted", []object.Neighbor{{ID: 2, Dist: 0.1}, {ID: 1, Dist: 0.05}}},
		{"duplicate", []object.Neighbor{{ID: 1, Dist: 0.05}, {ID: 1, Dist: 0.05}}},
	} {
		k := int32(len(tc.row0))
		csr := &grid.CSR{Offsets: []int32{0, k, k, k}, Nbrs: tc.row0}
		if _, err := RestoreLiveReplay(flat, csr, r); err == nil || !strings.Contains(err.Error(), "invalid neighbour list") {
			t.Fatalf("%s: RestoreLiveReplay = %v, want the invalid neighbour list refused", tc.name, err)
		}
	}
	if _, err := RestoreLiveReplay(flat, batchJoin(t, flat, r), r); err != nil {
		t.Fatalf("well-formed adjacency refused: %v", err)
	}
}

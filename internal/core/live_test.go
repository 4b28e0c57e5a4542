package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

// batchJoin runs the from-scratch ε-join the seed path uses for flat's
// metric: the grid build and cell join for Lp metrics, the flat join
// for every other metric.
func batchJoin(t *testing.T, flat *object.FlatDataset, r float64) *grid.CSR {
	t.Helper()
	if !grid.Supports(flat.Metric()) {
		csr, _, err := grid.FlatJoin(flat, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		return csr
	}
	g, err := grid.Build(flat, r)
	if err != nil {
		t.Fatal(err)
	}
	csr, _, err := grid.Join(g, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

// batchReference runs the from-scratch pipeline (ε-join, then the
// greedy over the adjacency) over a dense dataset, returning the
// adjacency and the selection, in pick order, the incremental path
// must reproduce.
func batchReference(t *testing.T, flat *object.FlatDataset, r float64) (*grid.CSR, []int) {
	t.Helper()
	csr := batchJoin(t, flat, r)
	ids, _ := newAdjGreedy(flat.Len()).run(csr, r, nil)
	return csr, ids
}

// remapIDs maps ids through a compaction's remap.
func remapIDs(ids []int, remap []int32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(remap[id])
	}
	return out
}

// assertConverged flushes l and checks full equivalence with the batch
// pipeline over the same live points: bit-identical CSR after
// compaction, the ordered selection through the monotone remap
// sequence-equal to the batch greedy's, and the DisC invariants by
// direct distance check.
func assertConverged(t *testing.T, l *LiveDisC, r float64) {
	t.Helper()
	l.Flush()
	if p := l.Pending(); p != 0 {
		t.Fatalf("%d writes pending after Flush", p)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if l.Len() == 0 {
		if l.Size() != 0 {
			t.Fatalf("empty maintainer published %d representatives", l.Size())
		}
		return
	}
	flat, remap, csr, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	refCSR, refIDs := batchReference(t, flat, r)
	if !reflect.DeepEqual(csr, refCSR) {
		t.Fatal("compacted CSR differs from batch join")
	}
	assertTraceMatchesRerun(t, l, flat, remap, csr, r)
	got := l.OrderedSelection()
	if mapped := remapIDs(got, remap); !slices.Equal(mapped, refIDs) {
		t.Fatalf("selection %v (remapped), batch selects %v", mapped, refIDs)
	}
	// The published ascending view must agree with the ordered one.
	pub := l.Selection()
	if len(pub) != len(got) || l.Size() != len(got) {
		t.Fatalf("published %d/%d ids, converged %d", len(pub), l.Size(), len(got))
	}
	for _, id := range pub {
		if !l.IsRepresentative(id) {
			t.Fatalf("published id %d not a representative", id)
		}
	}
}

func TestLiveDisCMatchesBatchUnderInterleavings(t *testing.T) {
	for _, tc := range []struct {
		dim int
		m   object.Metric
		r   float64
	}{
		{1, object.Euclidean{}, 0.05},
		{2, object.Euclidean{}, 0.12},
		{2, object.Manhattan{}, 0.15},
		{3, object.Chebyshev{}, 0.2},
		{12, object.Hamming{}, 2},
		{4, object.Cosine{}, 0.01},
		{3, object.DotProduct{}, 0.4},
	} {
		rng := rand.New(rand.NewPCG(11, uint64(tc.dim)))
		l, err := NewLiveDisC(tc.m, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		var live []int
		for step := 0; step < 400; step++ {
			if len(live) == 0 || rng.Float64() < 0.68 {
				id, err := l.Insert(randomPointFor(rng, tc.m, tc.dim))
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			} else {
				k := rng.IntN(len(live))
				if err := l.Delete(live[k]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			}
			if step%67 == 0 {
				assertConverged(t, l, tc.r)
			}
		}
		assertConverged(t, l, tc.r)
		if l.Len() != len(live) {
			t.Fatalf("live %d, want %d", l.Len(), len(live))
		}

		// Delete-heavy drain: the insert-biased churn above never shrinks
		// the live count, so only this phase reaches the 4x shrink
		// re-bucket inside grid.MutGrid.Remove — the path that must not
		// re-admit the id being deleted.
		for len(live) > 4 {
			k := rng.IntN(len(live))
			if err := l.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
			if len(live)%41 == 0 {
				assertConverged(t, l, tc.r)
			}
		}
		assertConverged(t, l, tc.r)
		for id := 0; id < l.Slots(); id++ {
			if l.Alive(id) && !slices.Contains(live, id) {
				t.Fatalf("id %d alive but not tracked", id)
			}
		}
	}
}

func TestLiveDisCSeededMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	pts := make([]object.Point, 600)
	for i := range pts {
		pts[i] = object.Point{rng.Float64(), rng.Float64()}
	}
	flat, err := object.Flatten(pts, object.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	const r = 0.04
	l, err := SeedLiveDisC(flat, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The seed itself must already be the batch selection.
	_, refIDs := batchReference(t, flat, r)
	if got := l.OrderedSelection(); !slices.Equal(got, refIDs) {
		t.Fatal("seeded selection differs from batch")
	}
	if l.Pending() != 0 {
		t.Fatalf("seeded maintainer has %d writes pending", l.Pending())
	}
	// Mutations on top of the seed stay equivalent.
	for step := 0; step < 150; step++ {
		if rng.Float64() < 0.5 {
			if _, err := l.Insert(object.Point{rng.Float64(), rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		} else {
			for {
				id := rng.IntN(l.Slots())
				if l.Alive(id) {
					if err := l.Delete(id); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
	}
	assertConverged(t, l, r)
}

func TestLiveDisCStalenessSemantics(t *testing.T) {
	l, err := NewLiveDisC(object.Euclidean{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := l.Insert(object.Point{0.5, 0.5})
	if l.Pending() != 1 {
		t.Fatalf("pending %d after first insert", l.Pending())
	}
	// Nothing published yet: reads see the pre-mutation (empty) state.
	if l.Size() != 0 || l.IsRepresentative(a) {
		t.Fatal("unflushed insert leaked into the published selection")
	}
	if got := l.Flush(); got != 1 {
		t.Fatalf("flush converged %d writes, want 1", got)
	}
	if l.Pending() != 0 || l.Flush() != 0 {
		t.Fatal("a flushed maintainer still reports pending writes")
	}
	if l.Size() != 1 || !l.IsRepresentative(a) {
		t.Fatal("flush did not publish the repaired selection")
	}
	// A covered insert keeps the selection but is still pending; the
	// stale read persists until the next Flush.
	b, _ := l.Insert(object.Point{0.52, 0.5})
	if !l.IsRepresentative(a) || l.IsRepresentative(b) {
		t.Fatal("published state changed before Flush")
	}
	l.Flush()
	if !l.IsRepresentative(a) || l.IsRepresentative(b) || l.Size() != 1 {
		t.Fatal("covered insert changed the selection")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	// Deleting the representative promotes the survivor.
	if err := l.Delete(a); err != nil {
		t.Fatal(err)
	}
	l.Flush()
	if !l.IsRepresentative(b) || l.Size() != 1 {
		t.Fatal("survivor not promoted after representative deletion")
	}
	if err := l.Delete(b); err != nil {
		t.Fatal(err)
	}
	l.Flush()
	if l.Size() != 0 || l.Len() != 0 {
		t.Fatal("emptied maintainer still publishes state")
	}
	// Deleting an isolated representative queues no neighbour, yet the
	// published selection names it until a Flush: the write is pending.
	c, _ := l.Insert(object.Point{0.2, 0.2})
	l.Flush()
	if err := l.Delete(c); err != nil {
		t.Fatal(err)
	}
	if !l.IsRepresentative(c) {
		t.Fatal("unflushed delete leaked into the published selection")
	}
	if p := l.Pending(); p != 1 {
		t.Fatalf("pending %d after deleting an isolated representative, want 1", p)
	}
	if got := l.Flush(); got != 1 {
		t.Fatalf("flush converged %d writes, want 1", got)
	}
	if l.IsRepresentative(c) || l.Size() != 0 {
		t.Fatal("flush left the deleted representative published")
	}
	if err := l.Delete(b); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// The properties of the online problem (Section 8): after every
// flushed insert or delete the selection is an r-DisC diverse subset of
// the live objects, and deleting a representative repairs coverage.

func TestOnlineAddMaintainsInvariant(t *testing.T) {
	for _, m := range []object.Metric{object.Euclidean{}, object.Cosine{}} {
		l, err := NewLiveDisC(m, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range randomPoints(300, 2, 60) {
			if _, err := l.Insert(p); err != nil {
				t.Fatal(err)
			}
			l.Flush()
			// Verify after every 25th insertion (full check is O(n·|S|)).
			if i%25 == 0 {
				if err := l.Verify(); err != nil {
					t.Fatalf("%s: after %d inserts: %v", m.Name(), i+1, err)
				}
			}
		}
		if err := l.Verify(); err != nil {
			t.Fatal(err)
		}
		if l.Len() != 300 {
			t.Errorf("%s: live count %d", m.Name(), l.Len())
		}
		if l.Size() == 0 || l.Size() != len(l.Selection()) {
			t.Errorf("%s: size %d vs %d representatives", m.Name(), l.Size(), len(l.Selection()))
		}
	}
}

func TestOnlineRemoveGrey(t *testing.T) {
	l, err := NewLiveDisC(object.Euclidean{}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := l.Insert(object.Point{0.5, 0.5})
	b, _ := l.Insert(object.Point{0.55, 0.5})
	l.Flush()
	if l.IsRepresentative(b) {
		t.Fatal("covered newcomer promoted")
	}
	if err := l.Delete(b); err != nil {
		t.Fatal(err)
	}
	l.Flush()
	if l.Size() != 1 || !l.IsRepresentative(a) {
		t.Error("removing a grey object disturbed the representatives")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineRemoveRepresentativeRepairs(t *testing.T) {
	l, err := NewLiveDisC(object.Euclidean{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// A representative with two dependents on opposite sides.
	center, _ := l.Insert(object.Point{0.5, 0.5})
	left, _ := l.Insert(object.Point{0.42, 0.5})
	right, _ := l.Insert(object.Point{0.58, 0.5})
	l.Flush()
	if l.Size() != 1 || !l.IsRepresentative(center) {
		t.Fatalf("setup: %v selected", l.Selection())
	}
	if err := l.Delete(center); err != nil {
		t.Fatal(err)
	}
	l.Flush()
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	// left and right are 0.16 apart (> r): each must now cover itself.
	if !l.IsRepresentative(left) || !l.IsRepresentative(right) {
		t.Errorf("repair failed: left=%v right=%v",
			l.IsRepresentative(left), l.IsRepresentative(right))
	}
}

func TestOnlineRandomChurnKeepsInvariant(t *testing.T) {
	for _, tc := range []struct {
		m   object.Metric
		dim int
		r   float64
	}{
		{object.Euclidean{}, 2, 0.08},
		{object.Hamming{}, 12, 2},
		{object.Cosine{}, 3, 0.01},
	} {
		l, err := NewLiveDisC(tc.m, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(9, 9))
		var liveIDs []int
		for step := 0; step < 400; step++ {
			if len(liveIDs) == 0 || rng.Float64() < 0.7 {
				id, err := l.Insert(randomPointFor(rng, tc.m, tc.dim))
				if err != nil {
					t.Fatal(err)
				}
				liveIDs = append(liveIDs, id)
			} else {
				k := rng.IntN(len(liveIDs))
				id := liveIDs[k]
				liveIDs = append(liveIDs[:k], liveIDs[k+1:]...)
				if err := l.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			l.Flush()
			if step%40 == 0 {
				if err := l.Verify(); err != nil {
					t.Fatalf("%s: step %d: %v", tc.m.Name(), step, err)
				}
			}
		}
		if err := l.Verify(); err != nil {
			t.Fatal(err)
		}
		if l.Len() != len(liveIDs) {
			t.Errorf("%s: live %d, want %d", tc.m.Name(), l.Len(), len(liveIDs))
		}
	}
}

func TestOnlineValidation(t *testing.T) {
	if _, err := NewLiveDisC(nil, 0.1); err == nil {
		t.Error("nil metric accepted")
	}
	for _, m := range []object.Metric{object.Euclidean{}, object.Hamming{}} {
		if _, err := NewLiveDisC(m, -1); err == nil {
			t.Errorf("%s: negative radius accepted", m.Name())
		}
		l, err := NewLiveDisC(m, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Delete(0); err == nil {
			t.Errorf("%s: removing unknown id accepted", m.Name())
		}
		id, _ := l.Insert(object.Point{0.1, 0.1})
		if err := l.Delete(id); err != nil {
			t.Fatal(err)
		}
		l.Flush()
		if err := l.Delete(id); err == nil {
			t.Errorf("%s: double removal accepted", m.Name())
		}
		if l.IsRepresentative(id) {
			t.Errorf("%s: removed object still a representative", m.Name())
		}
		if _, err := l.Insert(object.Point{0.1, 0.2, 0.3}); err == nil {
			t.Errorf("%s: dimension mismatch accepted", m.Name())
		}
	}
}

func TestOnlineEmptyVerify(t *testing.T) {
	for _, m := range []object.Metric{object.Euclidean{}, object.Cosine{}} {
		l, err := NewLiveDisC(m, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Verify(); err != nil {
			t.Errorf("%s: empty maintainer invalid: %v", m.Name(), err)
		}
	}
}

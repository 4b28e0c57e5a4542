package mtree

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/discdiversity/disc/internal/object"
)

// TestRangeQueryQuickProperty: for random tree configurations, query
// centres and radii, the range query must match brute force exactly.
// This is the load-bearing invariant of the whole reproduction — every
// algorithm result depends on it.
func TestRangeQueryQuickProperty(t *testing.T) {
	pts := randomPoints(250, 2, 101)
	m := object.Euclidean{}
	trees := make(map[int]*Tree)
	for _, capacity := range []int{4, 9, 30} {
		tr := buildTestTree(t, Config{Capacity: capacity, Metric: m, Policy: MinOverlap}, pts)
		trees[capacity] = tr
	}
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed))
		id := rng.IntN(len(pts))
		r := rng.Float64() * 0.6
		want := bruteNeighbors(pts, m, pts[id], r, id)
		for _, tr := range trees {
			if !equalIDs(neighborIDs(tr.AppendRangeQueryAround(nil, id, r, new(int64))), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalInsertQueryInterleaving: queries must stay exact while
// the tree grows, including right after splits.
func TestIncrementalInsertQueryInterleaving(t *testing.T) {
	pts := randomPoints(500, 2, 102)
	m := object.Euclidean{}
	tr, err := New(Config{Capacity: 5, Metric: m, Policy: MinOverlap}, pts)
	if err != nil {
		t.Fatal(err)
	}
	inserted := make(map[int]bool)
	rng := rand.New(rand.NewPCG(11, 11))
	for id := range pts {
		if _, err := tr.Insert(id); err != nil {
			t.Fatal(err)
		}
		inserted[id] = true
		if id%37 != 0 {
			continue
		}
		q := object.Point{rng.Float64(), rng.Float64()}
		r := 0.1 + rng.Float64()*0.3
		got := neighborIDs(tr.AppendRangeQuery(nil, q, r, new(int64)))
		var want []int
		for j := range pts {
			if inserted[j] && m.Dist(q, pts[j]) <= r {
				want = append(want, j)
			}
		}
		if !equalIDs(got, want) {
			t.Fatalf("after %d inserts: got %d want %d results", id+1, len(got), len(want))
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLeafChainAfterHeavySplitting: the leaf chain must remain a
// consistent doubly linked list spanning all objects no matter how many
// splits occur.
func TestLeafChainAfterHeavySplitting(t *testing.T) {
	pts := randomPoints(1000, 2, 103)
	tr := buildTestTree(t, Config{Capacity: 4, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	// Walk forward, collect, then verify backward links.
	var leaves []*node
	for l := tr.firstLeaf; l != nil; l = l.next {
		leaves = append(leaves, l)
	}
	count := 0
	for i, l := range leaves {
		count += len(l.entries)
		if i > 0 && l.prev != leaves[i-1] {
			t.Fatalf("leaf %d: broken prev pointer", i)
		}
		if !l.leaf {
			t.Fatalf("leaf chain contains internal node")
		}
	}
	if count != len(pts) {
		t.Fatalf("leaf chain spans %d objects, want %d", count, len(pts))
	}
}

// TestBottomUpPrunedQuery: the combined bottom-up + pruned query (used by
// Fast-C) must, without the grey-stop, return exactly the white subset of
// the brute-force neighbourhood.
func TestBottomUpPrunedQuery(t *testing.T) {
	pts := randomPoints(400, 2, 105)
	m := object.Euclidean{}
	tr := buildTestTree(t, Config{Capacity: 6, Metric: m, Policy: MinOverlap}, pts)
	cov := newCoverage(tr, nil)
	rng := rand.New(rand.NewPCG(3, 3))
	for id := range pts {
		if rng.Float64() < 0.5 {
			cov.cover(id)
		}
	}
	for trial := 0; trial < 25; trial++ {
		id := rng.IntN(len(pts))
		r := rng.Float64() * 0.3
		got := neighborIDs(tr.AppendRangeQueryBottomUp(nil, id, r, false, &cov.white, cov.counts, new(int64)))
		var want []int
		for _, w := range bruteNeighbors(pts, m, pts[id], r, id) {
			if cov.white.Test(w) {
				want = append(want, w)
			}
		}
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
	// With the grey-stop the result must be a subset of the full one.
	for trial := 0; trial < 25; trial++ {
		id := rng.IntN(len(pts))
		r := rng.Float64() * 0.3
		full := map[int]bool{}
		for _, nb := range tr.AppendRangeQueryAround(nil, id, r, new(int64)) {
			full[nb.ID] = true
		}
		for _, nb := range tr.AppendRangeQueryBottomUp(nil, id, r, true, nil, cov.counts, new(int64)) {
			if !full[nb.ID] {
				t.Fatalf("grey-stop query returned non-neighbour %d", nb.ID)
			}
		}
	}
}

// TestValidateDetectsCorruption: the validator must notice when an
// invariant is deliberately broken.
func TestValidateDetectsCorruption(t *testing.T) {
	pts := randomPoints(300, 2, 104)
	tr := buildTestTree(t, Config{Capacity: 8, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	if tr.root.leaf {
		t.Skip("tree too small")
	}
	// Shrink a covering radius illegally.
	tr.root.entries[0].radius = 0
	if err := tr.Validate(); err == nil {
		t.Error("corrupted covering radius not detected")
	}
}

package mtree

import (
	"math/rand/v2"
	"sort"
	"testing"

	"github.com/discdiversity/disc/internal/bitset"
	"github.com/discdiversity/disc/internal/object"
)

func randomPoints(n, d int, seed uint64) []object.Point {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	pts := make([]object.Point, n)
	for i := range pts {
		p := make(object.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func bruteNeighbors(pts []object.Point, m object.Metric, q object.Point, r float64, exclude int) []int {
	var ids []int
	for j, p := range pts {
		if j == exclude {
			continue
		}
		if m.Dist(q, p) <= r {
			ids = append(ids, j)
		}
	}
	sort.Ints(ids)
	return ids
}

func neighborIDs(ns []object.Neighbor) []int {
	ids := make([]int, 0, len(ns))
	for _, nb := range ns {
		ids = append(ids, nb.ID)
	}
	sort.Ints(ids)
	return ids
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coverage is one run's coverage state over a tree, as a caller of
// the pruned queries keeps it: the white set and its per-node counts.
type coverage struct {
	tree   *Tree
	white  bitset.Set
	counts []int32
}

// newCoverage starts coverage over tr with every object white for
// which white returns true (every object when white is nil).
func newCoverage(tr *Tree, white func(id int) bool) *coverage {
	c := &coverage{tree: tr}
	c.white.Reset(len(tr.pts))
	for id := range tr.pts {
		if white == nil || white(id) {
			c.white.Set(id)
		}
	}
	c.counts = tr.CountWhite(nil, &c.white)
	return c
}

// cover takes id out of the white set; covering a covered id is a
// no-op.
func (c *coverage) cover(id int) {
	if c.white.Test(id) {
		c.white.Clear(id)
		c.tree.Cover(c.counts, id)
	}
}

// whiteCount returns the number of uncovered objects in the whole tree,
// as the root's count records it.
func (c *coverage) whiteCount() int { return int(c.counts[c.tree.root.num]) }

func buildTestTree(t *testing.T, cfg Config, pts []object.Point) *Tree {
	t.Helper()
	tr, _, err := Build(cfg, pts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr
}

var testPolicies = []SplitPolicy{
	MinOverlap,
	{PromoteMaxPair, PartitionClosest},
	{PromoteMaxPair, PartitionBalanced},
	{PromoteRandom, PartitionBalanced},
}

func TestBuildValidatesAcrossPoliciesAndCapacities(t *testing.T) {
	pts := randomPoints(500, 2, 1)
	for _, pol := range testPolicies {
		for _, cap := range []int{4, 10, 25, 50} {
			cfg := Config{Capacity: cap, Metric: object.Euclidean{}, Policy: pol, Seed: 7}
			tr := buildTestTree(t, cfg, pts)
			if err := tr.Validate(); err != nil {
				t.Errorf("policy %v capacity %d: %v", pol, cap, err)
			}
			if tr.Len() != len(pts) {
				t.Errorf("policy %v capacity %d: Len=%d want %d", pol, cap, tr.Len(), len(pts))
			}
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	pts := randomPoints(4, 2, 1)
	if _, err := New(Config{Capacity: 2, Metric: object.Euclidean{}}, pts); err == nil {
		t.Error("capacity 2 accepted")
	}
	if _, err := New(Config{Capacity: 10}, pts); err == nil {
		t.Error("nil metric accepted")
	}
}

func TestInsertRejectsBadIDs(t *testing.T) {
	pts := randomPoints(4, 2, 1)
	tr, err := New(DefaultConfig(object.Euclidean{}), pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Insert(-1); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := tr.Insert(4); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := tr.Insert(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Insert(0); err == nil {
		t.Error("duplicate insert accepted")
	}
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	metrics := []object.Metric{object.Euclidean{}, object.Manhattan{}, object.Chebyshev{}}
	for mi, m := range metrics {
		pts := randomPoints(400, 3, uint64(mi)+10)
		cfg := Config{Capacity: 8, Metric: m, Policy: MinOverlap}
		tr := buildTestTree(t, cfg, pts)
		rng := rand.New(rand.NewPCG(99, 7))
		for trial := 0; trial < 50; trial++ {
			id := rng.IntN(len(pts))
			r := rng.Float64() * 0.5
			got := neighborIDs(tr.AppendRangeQueryAround(nil, id, r, new(int64)))
			want := bruteNeighbors(pts, m, pts[id], r, id)
			if !equalIDs(got, want) {
				t.Fatalf("metric %s trial %d: got %v want %v", m.Name(), trial, got, want)
			}
		}
	}
}

func TestRangeQueryOfPointMatchesBruteForce(t *testing.T) {
	pts := randomPoints(300, 2, 42)
	tr := buildTestTree(t, Config{Capacity: 6, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 30; trial++ {
		q := object.Point{rng.Float64(), rng.Float64()}
		r := rng.Float64() * 0.3
		got := neighborIDs(tr.AppendRangeQuery(nil, q, r, new(int64)))
		want := bruteNeighbors(pts, object.Euclidean{}, q, r, -1)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: got %d ids want %d ids", trial, len(got), len(want))
		}
	}
}

func TestRangeQueryDistancesAreExact(t *testing.T) {
	pts := randomPoints(200, 2, 3)
	m := object.Euclidean{}
	tr := buildTestTree(t, Config{Capacity: 10, Metric: m, Policy: MinOverlap}, pts)
	for _, nb := range tr.AppendRangeQueryAround(nil, 17, 0.4, new(int64)) {
		want := m.Dist(pts[17], pts[nb.ID])
		if nb.Dist != want {
			t.Fatalf("neighbor %d: dist %g want %g", nb.ID, nb.Dist, want)
		}
	}
}

func TestBottomUpMatchesTopDown(t *testing.T) {
	pts := randomPoints(400, 2, 8)
	tr := buildTestTree(t, Config{Capacity: 6, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 40; trial++ {
		id := rng.IntN(len(pts))
		r := rng.Float64() * 0.4
		got := neighborIDs(tr.AppendRangeQueryBottomUp(nil, id, r, false, nil, nil, new(int64)))
		want := neighborIDs(tr.AppendRangeQueryAround(nil, id, r, new(int64)))
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: bottom-up %v, top-down %v", trial, got, want)
		}
	}
}

func TestPrunedQueryReturnsExactlyWhiteNeighbors(t *testing.T) {
	pts := randomPoints(300, 2, 21)
	m := object.Euclidean{}
	tr := buildTestTree(t, Config{Capacity: 8, Metric: m, Policy: MinOverlap}, pts)
	cov := newCoverage(tr, nil)
	rng := rand.New(rand.NewPCG(3, 4))
	// Cover a random half of the objects.
	for id := range pts {
		if rng.Float64() < 0.5 {
			cov.cover(id)
		}
	}
	for trial := 0; trial < 30; trial++ {
		id := rng.IntN(len(pts))
		r := rng.Float64() * 0.3
		got := neighborIDs(tr.AppendRangeQueryPruned(nil, id, r, &cov.white, cov.counts, new(int64)))
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
}

func TestPruningReducesAccesses(t *testing.T) {
	pts := randomPoints(2000, 2, 77)
	m := object.Euclidean{}
	mk := func() *Tree {
		return buildTestTree(t, Config{Capacity: 25, Metric: m, Policy: MinOverlap}, pts)
	}
	tr := mk()
	cov := newCoverage(tr, nil)
	for id := 0; id < 1500; id++ {
		cov.cover(id)
	}
	var full, pruned int64
	for id := 1500; id < 1600; id++ {
		tr.AppendRangeQueryAround(nil, id, 0.05, &full)
		tr.AppendRangeQueryPruned(nil, id, 0.05, &cov.white, cov.counts, &pruned)
	}
	if pruned >= full {
		t.Errorf("pruned accesses %d not below full %d", pruned, full)
	}
}

func TestScanIDsVisitsEveryObjectOnce(t *testing.T) {
	pts := randomPoints(777, 2, 5)
	tr := buildTestTree(t, Config{Capacity: 7, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	ids := tr.ScanIDs(new(int64))
	if len(ids) != len(pts) {
		t.Fatalf("scan returned %d ids, want %d", len(ids), len(pts))
	}
	seen := make([]bool, len(pts))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("object %d scanned twice", id)
		}
		seen[id] = true
	}
}

func TestWhiteCountMaintenance(t *testing.T) {
	pts := randomPoints(500, 2, 31)
	tr := buildTestTree(t, Config{Capacity: 8, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	cov := newCoverage(tr, nil)
	if got := cov.whiteCount(); got != len(pts) {
		t.Fatalf("initial white count %d, want %d", got, len(pts))
	}
	for id := 0; id < 100; id++ {
		cov.cover(id)
		cov.cover(id) // idempotent
	}
	if got := cov.whiteCount(); got != len(pts)-100 {
		t.Fatalf("white count %d, want %d", got, len(pts)-100)
	}
	// Start over from a custom white set.
	cov = newCoverage(tr, func(id int) bool { return id < 50 })
	if got := cov.whiteCount(); got != 50 {
		t.Fatalf("after reset white count %d, want 50", got)
	}
}

// TestNodeNumbersSurviveSplits: node numbers stay dense and distinct
// while inserts split nodes, so counts indexed by them add up: every
// routing entry's count is its child's, and the root's is every white
// object's.
func TestNodeNumbersSurviveSplits(t *testing.T) {
	pts := randomPoints(600, 2, 55)
	tr, err := New(Config{Capacity: 5, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(inserted int) {
		t.Helper()
		seen := make([]bool, tr.NodeCount())
		var walk func(n *node)
		walk = func(n *node) {
			if n.num < 0 || int(n.num) >= len(seen) || seen[n.num] {
				t.Fatalf("after %d inserts: node number %d repeated or outside [0,%d)", inserted, n.num, len(seen))
			}
			seen[n.num] = true
			for i := range n.entries {
				if c := n.entries[i].child; c != nil {
					walk(c)
				}
			}
		}
		walk(tr.root)
		for num, ok := range seen {
			if !ok {
				t.Fatalf("after %d inserts: node number %d unused", inserted, num)
			}
		}
		cov := newCoverage(tr, func(id int) bool { return id%4 != 0 })
		for id := 0; id < inserted; id += 3 {
			cov.cover(id)
		}
		want := 0
		for id := 0; id < inserted; id++ {
			if cov.white.Test(id) {
				want++
			}
		}
		if got := cov.whiteCount(); got != want {
			t.Fatalf("after %d inserts: white count %d, want %d", inserted, got, want)
		}
	}
	for id := range pts {
		if _, err := tr.Insert(id); err != nil {
			t.Fatal(err)
		}
		if id == 299 || id == 599 {
			check(id + 1)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFatFactorBoundsAndPolicyOrdering(t *testing.T) {
	pts := randomPoints(1000, 2, 17)
	var fats []float64
	for _, pol := range testPolicies {
		cfg := Config{Capacity: 25, Metric: object.Euclidean{}, Policy: pol, Seed: 3}
		tr := buildTestTree(t, cfg, pts)
		f := tr.FatFactor()
		if f < 0 || f > 1 {
			t.Errorf("policy %v: fat-factor %g outside [0,1]", pol, f)
		}
		fats = append(fats, f)
	}
	// The paper's MinOverlap policy should give the lowest overlap of
	// the tested policies.
	for i := 1; i < len(fats); i++ {
		if fats[0] > fats[i]+1e-9 {
			t.Errorf("MinOverlap fat-factor %g above policy %v's %g", fats[0], testPolicies[i], fats[i])
		}
	}
}

func TestAccessCounting(t *testing.T) {
	pts := randomPoints(300, 2, 9)
	tr := buildTestTree(t, Config{Capacity: 10, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	var acc int64
	tr.AppendRangeQueryAround(nil, 0, 0.2, &acc)
	if acc == 0 {
		t.Error("range query charged no accesses")
	}
	before := acc
	tr.ScanIDs(&acc)
	if acc == before {
		t.Error("scan charged no accesses")
	}
	if _, cost, err := Build(Config{Capacity: 10, Metric: object.Euclidean{}, Policy: MinOverlap}, pts); err != nil || cost < int64(len(pts)) {
		t.Errorf("build charged %d accesses for %d inserts (%v)", cost, len(pts), err)
	}
}

func TestHammingMetricTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	pts := make([]object.Point, 200)
	for i := range pts {
		p := make(object.Point, 5)
		for j := range p {
			p[j] = float64(rng.IntN(4))
		}
		pts[i] = p
	}
	m := object.Hamming{}
	tr := buildTestTree(t, Config{Capacity: 8, Metric: m, Policy: MinOverlap}, pts)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{0, 1, 2, 3, 4, 5} {
		got := neighborIDs(tr.AppendRangeQueryAround(nil, 3, r, new(int64)))
		want := bruteNeighbors(pts, m, pts[3], r, 3)
		if !equalIDs(got, want) {
			t.Fatalf("r=%g: got %d want %d neighbours", r, len(got), len(want))
		}
	}
}

func TestEmptyAndTinyTrees(t *testing.T) {
	pts := randomPoints(3, 2, 1)
	tr, err := New(DefaultConfig(object.Euclidean{}), pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.AppendRangeQuery(nil, object.Point{0.5, 0.5}, 10, new(int64)); len(got) != 0 {
		t.Errorf("empty tree returned %d results", len(got))
	}
	if ids := tr.ScanIDs(new(int64)); len(ids) != 0 {
		t.Errorf("empty tree scan returned %v", ids)
	}
	if f := tr.FatFactor(); f != 0 {
		t.Errorf("empty tree fat-factor %g", f)
	}
	for id := range pts {
		if _, err := tr.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := neighborIDs(tr.AppendRangeQuery(nil, object.Point{0.5, 0.5}, 10, new(int64))); len(got) != 3 {
		t.Errorf("full-coverage query returned %v", got)
	}
}

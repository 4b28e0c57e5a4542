package mtree

import (
	"math/rand/v2"
	"sort"
	"testing"

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

func buildTestTree(t *testing.T, cfg Config, pts []object.Point) *Tree {
	t.Helper()
	tr, err := Build(cfg, pts)
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
	if err := tr.Insert(-1); err == nil {
		t.Error("negative id accepted")
	}
	if err := tr.Insert(4); err == nil {
		t.Error("out-of-range id accepted")
	}
	if err := tr.Insert(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(0); err == nil {
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
			got := neighborIDs(tr.AppendRangeQueryAround(nil, id, r))
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
		got := neighborIDs(tr.AppendRangeQuery(nil, q, r))
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
	for _, nb := range tr.AppendRangeQueryAround(nil, 17, 0.4) {
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
		got := neighborIDs(tr.AppendRangeQueryBottomUp(nil, id, r, false, false))
		want := neighborIDs(tr.AppendRangeQueryAround(nil, id, r))
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: bottom-up %v, top-down %v", trial, got, want)
		}
	}
}

func TestPrunedQueryReturnsExactlyWhiteNeighbors(t *testing.T) {
	pts := randomPoints(300, 2, 21)
	m := object.Euclidean{}
	tr := buildTestTree(t, Config{Capacity: 8, Metric: m, Policy: MinOverlap}, pts)
	tr.EnableTracking()
	rng := rand.New(rand.NewPCG(3, 4))
	// Cover a random half of the objects.
	for id := range pts {
		if rng.Float64() < 0.5 {
			tr.Cover(id)
		}
	}
	for trial := 0; trial < 30; trial++ {
		id := rng.IntN(len(pts))
		r := rng.Float64() * 0.3
		got := neighborIDs(tr.AppendRangeQueryPruned(nil, id, r))
		var want []int
		for _, w := range bruteNeighbors(pts, m, pts[id], r, id) {
			if tr.IsWhite(w) {
				want = append(want, w)
			}
		}
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestPrunedQueryPanicsWithoutTracking(t *testing.T) {
	pts := randomPoints(20, 2, 2)
	tr := buildTestTree(t, DefaultConfig(object.Euclidean{}), pts)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.AppendRangeQueryPruned(nil, 0, 0.1)
}

func TestPruningReducesAccesses(t *testing.T) {
	pts := randomPoints(2000, 2, 77)
	m := object.Euclidean{}
	mk := func() *Tree {
		return buildTestTree(t, Config{Capacity: 25, Metric: m, Policy: MinOverlap}, pts)
	}
	full := mk()
	pruned := mk()
	pruned.EnableTracking()
	for id := 0; id < 1500; id++ {
		pruned.Cover(id)
	}
	full.ResetAccesses()
	pruned.ResetAccesses()
	for id := 1500; id < 1600; id++ {
		full.AppendRangeQueryAround(nil, id, 0.05)
		pruned.AppendRangeQueryPruned(nil, id, 0.05)
	}
	if pruned.Accesses() >= full.Accesses() {
		t.Errorf("pruned accesses %d not below full %d", pruned.Accesses(), full.Accesses())
	}
}

func TestScanIDsVisitsEveryObjectOnce(t *testing.T) {
	pts := randomPoints(777, 2, 5)
	tr := buildTestTree(t, Config{Capacity: 7, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	ids := tr.ScanIDs()
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
	rank := tr.LeafOrderIndex()
	for pos, id := range ids {
		if rank[id] != pos {
			t.Fatalf("rank[%d]=%d want %d", id, rank[id], pos)
		}
	}
}

// whiteCount returns the number of uncovered objects in the whole tree,
// as the root's maintained count records it.
func whiteCount(t *Tree) int {
	if !t.tracking {
		return t.size
	}
	return t.root.whiteCount
}

func TestWhiteCountMaintenance(t *testing.T) {
	pts := randomPoints(500, 2, 31)
	tr := buildTestTree(t, Config{Capacity: 8, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	tr.EnableTracking()
	if got := whiteCount(tr); got != len(pts) {
		t.Fatalf("initial white count %d, want %d", got, len(pts))
	}
	for id := 0; id < 100; id++ {
		tr.Cover(id)
		tr.Cover(id) // idempotent
	}
	if got := whiteCount(tr); got != len(pts)-100 {
		t.Fatalf("white count %d, want %d", got, len(pts)-100)
	}
	// Re-initialise with a custom white set.
	white := make([]bool, len(pts))
	for id := 0; id < 50; id++ {
		white[id] = true
	}
	tr.ResetTracking(white)
	if got := whiteCount(tr); got != 50 {
		t.Fatalf("after reset white count %d, want 50", got)
	}
}

func TestTrackingSurvivesSplits(t *testing.T) {
	pts := randomPoints(600, 2, 55)
	tr, err := New(Config{Capacity: 5, Metric: object.Euclidean{}, Policy: MinOverlap}, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Insert half, enable tracking, cover some, then keep inserting to
	// force splits with tracking active.
	for id := 0; id < 300; id++ {
		if err := tr.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	tr.EnableTracking()
	for id := 0; id < 150; id++ {
		tr.Cover(id)
	}
	for id := 300; id < 600; id++ {
		if err := tr.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := whiteCount(tr), 600-150; got != want {
		t.Fatalf("white count %d, want %d", got, want)
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
	tr.ResetAccesses()
	if tr.Accesses() != 0 {
		t.Fatal("reset failed")
	}
	tr.AppendRangeQueryAround(nil, 0, 0.2)
	if tr.Accesses() == 0 {
		t.Error("range query charged no accesses")
	}
	before := tr.Accesses()
	tr.ScanIDs()
	if tr.Accesses() == before {
		t.Error("scan charged no accesses")
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
		got := neighborIDs(tr.AppendRangeQueryAround(nil, 3, r))
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
	if got := tr.AppendRangeQuery(nil, object.Point{0.5, 0.5}, 10); len(got) != 0 {
		t.Errorf("empty tree returned %d results", len(got))
	}
	if ids := tr.ScanIDs(); len(ids) != 0 {
		t.Errorf("empty tree scan returned %v", ids)
	}
	if f := tr.FatFactor(); f != 0 {
		t.Errorf("empty tree fat-factor %g", f)
	}
	for id := range pts {
		if err := tr.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := neighborIDs(tr.AppendRangeQuery(nil, object.Point{0.5, 0.5}, 10)); len(got) != 3 {
		t.Errorf("full-coverage query returned %v", got)
	}
}

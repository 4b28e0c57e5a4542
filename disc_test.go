package disc_test

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	disc "github.com/discdiversity/disc"
)

func randomPoints(n, d int, seed uint64) []disc.Point {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	pts := make([]disc.Point, n)
	for i := range pts {
		p := make(disc.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// weirdMetric is a valid custom metric none of the built-in kernels
// recognise, so the grid must refuse it and the coverage graph must
// serve it through the flat join.
type weirdMetric struct{}

func (weirdMetric) Dist(a, b disc.Point) float64 { return disc.Euclidean().Dist(a, b) }
func (weirdMetric) Name() string                 { return "weird" }

func newDiversifier(t *testing.T, pts []disc.Point, opts ...disc.Option) *disc.Diversifier {
	t.Helper()
	d, err := disc.New(pts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := disc.New(nil); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := disc.New(randomPoints(10, 2, 1), disc.WithMetric(nil)); err == nil {
		t.Error("nil metric accepted")
	}
	if _, err := disc.New(randomPoints(10, 2, 1), disc.WithMTreeCapacity(1)); err == nil {
		t.Error("tiny capacity accepted")
	}
	if _, err := disc.NewFromDataset(nil); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestSelectAllAlgorithmsVerify(t *testing.T) {
	pts := randomPoints(400, 2, 2)
	algorithms := []disc.Algorithm{
		disc.AlgorithmGreedy, disc.AlgorithmBasic, disc.AlgorithmGreedyWhite,
		disc.AlgorithmLazyGrey, disc.AlgorithmLazyWhite,
		disc.AlgorithmCoverage, disc.AlgorithmFastCoverage,
	}
	for _, engineOpts := range [][]disc.Option{
		nil,
		{disc.WithLinearScan()},
		{disc.WithIndex(disc.IndexCoverageGraph), disc.WithParallelism(4)},
	} {
		d := newDiversifier(t, pts, engineOpts...)
		for _, a := range algorithms {
			res, err := d.Select(0.08, disc.WithAlgorithm(a))
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			if err := d.Verify(res); err != nil {
				t.Errorf("%v: %v", a, err)
			}
			if res.Size() == 0 || res.Size() != len(res.IDs()) {
				t.Errorf("%v: size %d inconsistent", a, res.Size())
			}
			if res.Algorithm() == "" {
				t.Errorf("%v: empty algorithm name", a)
			}
			if got := res.Points(); len(got) != res.Size() {
				t.Errorf("%v: %d points for %d ids", a, len(got), res.Size())
			}
		}
	}
}

func TestIndexBackendsIdenticalSelections(t *testing.T) {
	pts := randomPoints(600, 2, 17)
	indexes := []disc.Index{disc.IndexMTree, disc.IndexLinearScan, disc.IndexCoverageGraph}
	var want []int
	for _, ix := range indexes {
		d := newDiversifier(t, pts, disc.WithIndex(ix))
		if d.Indexed() != ix {
			t.Fatalf("%v: Indexed() = %v", ix, d.Indexed())
		}
		res, err := d.Select(0.07)
		if err != nil {
			t.Fatalf("%v: %v", ix, err)
		}
		if err := d.Verify(res); err != nil {
			t.Fatalf("%v: %v", ix, err)
		}
		ids := res.IDs()
		if want == nil {
			want = ids
			continue
		}
		if len(ids) != len(want) {
			t.Fatalf("%v: %d representatives, want %d", ix, len(ids), len(want))
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("%v: selection differs from mtree at position %d", ix, i)
			}
		}
	}
}

func TestCoverageGraphZoomAndReuse(t *testing.T) {
	pts := randomPoints(500, 2, 18)
	d := newDiversifier(t, pts, disc.WithIndex(disc.IndexCoverageGraph))
	res, err := d.Select(0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Selecting at the same radius reuses the graph; a different radius
	// rebuilds it. Either way results must verify.
	again, err := d.Select(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(again); err != nil {
		t.Fatal(err)
	}
	finer, err := d.ZoomIn(res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(finer); err != nil {
		t.Fatal(err)
	}
	coarser, err := d.ZoomOut(res, 0.2, disc.ZoomOutGreedyLargest)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(coarser); err != nil {
		t.Fatal(err)
	}
	other, err := d.Select(0.03)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(other); err != nil {
		t.Fatal(err)
	}
}

func TestIndexOptionValidation(t *testing.T) {
	pts := randomPoints(20, 2, 19)
	if _, err := disc.New(pts, disc.WithLinearScan(), disc.WithIndex(disc.IndexCoverageGraph)); err == nil {
		t.Error("conflicting index selections accepted")
	}
	if _, err := disc.New(pts, disc.WithIndex(disc.IndexCoverageGraph), disc.WithIndex(disc.IndexCoverageGraph)); err != nil {
		t.Errorf("repeated identical index rejected: %v", err)
	}
	// A retired name is the M-tree, so pairing it with the M-tree is a
	// repeat, and pairing it with any other backend is a conflict.
	if _, err := disc.New(pts, disc.WithIndexName("rtree"), disc.WithIndex(disc.IndexMTree)); err != nil {
		t.Errorf("retired alias conflicted with its own backend: %v", err)
	}
	if _, err := disc.New(pts, disc.WithIndexName("rtree"), disc.WithIndex(disc.IndexCoverageGraph)); err == nil {
		t.Error("retired alias combined with a different backend accepted")
	}
	// 2, 3 and 5 were the removed backends' values; they must not
	// alias any live backend.
	for _, ix := range []int{2, 3, 5, 42} {
		if _, err := disc.New(pts, disc.WithIndex(disc.Index(ix))); err == nil {
			t.Errorf("unknown index %d accepted", ix)
		}
	}
	if _, err := disc.New(pts, disc.WithParallelism(-1)); err == nil {
		t.Error("negative parallelism accepted")
	}
	// The coverage graph serves every metric: custom (and even
	// non-metric) distances route to the flat all-pairs join substrate.
	if dw, err := disc.New(pts, disc.WithMetric(weirdMetric{}), disc.WithIndex(disc.IndexCoverageGraph)); err != nil {
		t.Errorf("IndexCoverageGraph rejected a custom metric: %v", err)
	} else if sel, err := dw.Select(0.3); err != nil {
		t.Errorf("coverage-graph select under a custom metric: %v", err)
	} else if err := dw.Verify(sel); err != nil {
		t.Errorf("coverage-graph selection under a custom metric: %v", err)
	}
	if _, err := disc.New(pts, disc.WithMetric(weirdMetric{}), disc.WithIndex(disc.IndexMTree)); err != nil {
		t.Errorf("metric-only index rejected a custom metric: %v", err)
	}
	for _, ix := range []disc.Index{disc.IndexMTree, disc.IndexLinearScan, disc.IndexCoverageGraph} {
		if ix.String() == "" {
			t.Errorf("index %d: empty String()", int(ix))
		}
	}
}

func TestIndexByNameAndWithIndexName(t *testing.T) {
	pts := randomPoints(50, 2, 21)
	for _, name := range disc.SupportedIndexNames() {
		ix, err := disc.IndexByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix.String() != name {
			t.Fatalf("IndexByName(%q) = %v", name, ix)
		}
		d, err := disc.New(pts, disc.WithIndexName(name))
		if err != nil {
			t.Fatalf("WithIndexName(%q): %v", name, err)
		}
		if d.Indexed() != ix {
			t.Fatalf("WithIndexName(%q): Indexed() = %v", name, d.Indexed())
		}
	}
	// The retired backend names resolve to a live backend, but are not
	// advertised as backends of their own.
	for name, want := range map[string]disc.Index{
		"vptree": disc.IndexMTree, "rtree": disc.IndexMTree, "grid": disc.IndexCoverageGraph,
	} {
		ix, err := disc.IndexByName(name)
		if err != nil || ix != want {
			t.Fatalf("IndexByName(%q) = %v, %v; want %v", name, ix, err, want)
		}
		if slices.Contains(disc.SupportedIndexNames(), name) {
			t.Fatalf("SupportedIndexNames lists the retired name %q", name)
		}
	}
	if got := len(disc.SupportedIndexNames()); got != 3 {
		t.Fatalf("SupportedIndexNames lists %d backends, want 3", got)
	}
	// The retired grid backend's name selects exactly
	// the ids a fresh coverage-graph select does, in both select modes,
	// and now takes metrics it used to refuse (Hamming, over category
	// codes).
	codes := make([]disc.Point, len(pts))
	for i, p := range pts {
		codes[i] = disc.Point{math.Floor(4 * p[0]), math.Floor(4 * p[1])}
	}
	for _, tc := range []struct {
		m     disc.Metric
		pts   []disc.Point
		radii []float64
	}{
		{disc.Euclidean(), pts, []float64{0.1, 0.25}},
		{disc.Hamming(), codes, []float64{1}},
	} {
		fresh := newDiversifier(t, tc.pts, disc.WithMetric(tc.m), disc.WithIndex(disc.IndexCoverageGraph))
		d := newDiversifier(t, tc.pts, disc.WithMetric(tc.m), disc.WithIndexName("grid"))
		if d.Indexed() != disc.IndexCoverageGraph {
			t.Fatalf("%s: retired grid backend built %v", tc.m.Name(), d.Indexed())
		}
		for _, r := range tc.radii {
			want, err := fresh.Select(r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Select(r)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.IDs(), want.IDs()) {
				t.Fatalf("%s r=%g: retired grid backend selected %v, coverage graph %v", tc.m.Name(), r, got.IDs(), want.IDs())
			}
		}
	}
	// Unknown names fail when the option is parsed — before any index
	// or engine work — and the error teaches the supported list.
	_, err := disc.New(pts, disc.WithIndexName("kdtree"))
	if err == nil {
		t.Fatal("unknown index name accepted")
	}
	for _, name := range disc.SupportedIndexNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list supported index %q", err, name)
		}
	}
}

func TestGridIndexZoomAndRebucket(t *testing.T) {
	pts := randomPoints(500, 2, 22)
	d := newDiversifier(t, pts, disc.WithIndexName("grid"))
	res, err := d.Select(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(res); err != nil {
		t.Fatal(err)
	}
	// "grid" is the coverage graph: zoom-in reads row prefixes, a
	// coarser Select re-joins; all must verify.
	finer, err := d.ZoomIn(res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(finer); err != nil {
		t.Fatal(err)
	}
	coarser, err := d.ZoomOut(res, 0.2, disc.ZoomOutGreedyLargest)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(coarser); err != nil {
		t.Fatal(err)
	}
	wide, err := d.Select(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(wide); err != nil {
		t.Fatal(err)
	}
}

func TestSelectInvalidInputs(t *testing.T) {
	d := newDiversifier(t, randomPoints(50, 2, 3))
	if _, err := d.Select(-1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := d.Select(0.1, disc.WithAlgorithm(disc.Algorithm(99))); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestZoomInKeepsRepresentatives(t *testing.T) {
	pts := randomPoints(500, 2, 4)
	d := newDiversifier(t, pts)
	res, err := d.Select(0.12)
	if err != nil {
		t.Fatal(err)
	}
	finer, err := d.ZoomIn(res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(finer); err != nil {
		t.Fatal(err)
	}
	for _, id := range res.IDs() {
		if !finer.Contains(id) {
			t.Errorf("representative %d dropped by zoom-in", id)
		}
	}
	if finer.Radius() != 0.05 {
		t.Errorf("radius %g", finer.Radius())
	}
	// The original result is untouched.
	if res.Radius() != 0.12 || res.Size() > finer.Size() {
		t.Error("zoom-in mutated the original result")
	}
}

func TestZoomOutAllVariants(t *testing.T) {
	pts := randomPoints(500, 2, 5)
	d := newDiversifier(t, pts)
	res, err := d.Select(0.04)
	if err != nil {
		t.Fatal(err)
	}
	variants := []disc.ZoomOutVariant{
		disc.ZoomOutGreedyLargest, disc.ZoomOutGreedySmallest,
		disc.ZoomOutGreedyCoverage, disc.ZoomOutArbitrary,
	}
	scratch, err := d.Select(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		coarser, err := d.ZoomOut(res, 0.1, v)
		if err != nil {
			t.Fatalf("%d: %v", v, err)
		}
		if err := d.Verify(coarser); err != nil {
			t.Errorf("%d: %v", v, err)
		}
		if coarser.Size() > res.Size() {
			t.Errorf("%d: zoom-out grew the result", v)
		}
		// Closer to the previous result than a from-scratch run.
		if res.Jaccard(coarser) > res.Jaccard(scratch) {
			t.Errorf("%d: zoom-out no closer to previous result than from-scratch", v)
		}
	}
	if _, err := d.ZoomOut(res, 0.1, disc.ZoomOutVariant(42)); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestZoomRejectsForeignAndCoverageResults(t *testing.T) {
	pts := randomPoints(100, 2, 6)
	d1 := newDiversifier(t, pts)
	d2 := newDiversifier(t, pts)
	res, err := d1.Select(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.ZoomIn(res, 0.05); err == nil {
		t.Error("foreign result accepted")
	}
	cov, err := d1.Select(0.1, disc.WithAlgorithm(disc.AlgorithmCoverage))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.ZoomIn(cov, 0.05); err == nil {
		t.Error("coverage-only result accepted for zooming")
	}
}

func TestLocalZoomInAPI(t *testing.T) {
	pts := randomPoints(400, 2, 7)
	d := newDiversifier(t, pts)
	res, err := d.Select(0.15)
	if err != nil {
		t.Fatal(err)
	}
	center := res.IDs()[0]
	lz, err := d.LocalZoomIn(res, center, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if lz.Center != center || lz.LocalRadius != 0.05 {
		t.Errorf("local zoom metadata wrong: %+v", lz)
	}
	for _, id := range res.IDs() {
		if !containsInt(lz.Representatives, id) {
			t.Errorf("representative %d missing from local zoom result", id)
		}
	}
}

func TestLocalZoomOutAPI(t *testing.T) {
	pts := randomPoints(400, 2, 8)
	d := newDiversifier(t, pts)
	res, err := d.Select(0.05)
	if err != nil {
		t.Fatal(err)
	}
	center := res.IDs()[0]
	lz, err := d.LocalZoomOut(res, center, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !containsInt(lz.Representatives, center) {
		t.Error("centre dropped")
	}
	for _, rm := range lz.Removed {
		if containsInt(lz.Representatives, rm) {
			t.Errorf("removed representative %d still present", rm)
		}
	}
}

func TestDistanceToRepresentative(t *testing.T) {
	pts := randomPoints(300, 2, 9)
	d := newDiversifier(t, pts)
	res, err := d.Select(0.1, disc.WithoutPruning())
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metric()
	for id := range pts {
		got := res.DistanceToRepresentative(id)
		if res.Contains(id) {
			if got != 0 {
				t.Fatalf("representative %d: distance %g", id, got)
			}
			continue
		}
		if got > 0.1 {
			t.Fatalf("object %d: distance %g beyond radius", id, got)
		}
		// Must match a real representative distance.
		found := false
		for _, b := range res.IDs() {
			if m.Dist(pts[id], pts[b]) == got {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("object %d: distance %g matches no representative", id, got)
		}
	}
}

// TestDistanceToRepresentativeExact: on the flat scan, the M-tree and the
// coverage graph, for pruned and unpruned Greedy-DisC and Basic-DisC,
// Greedy-C and a zoomed result, DistanceToRepresentative equals the
// brute-force minimum over the selected ids.
func TestDistanceToRepresentativeExact(t *testing.T) {
	pts := randomPoints(300, 2, 23)
	const r = 0.1
	for _, ix := range []disc.Index{disc.IndexLinearScan, disc.IndexMTree, disc.IndexCoverageGraph} {
		d := newDiversifier(t, pts, disc.WithIndex(ix))
		var results []*disc.Result
		for _, opts := range [][]disc.SelectOption{
			nil,
			{disc.WithoutPruning()},
			{disc.WithAlgorithm(disc.AlgorithmBasic)},
			{disc.WithAlgorithm(disc.AlgorithmBasic), disc.WithoutPruning()},
			{disc.WithAlgorithm(disc.AlgorithmCoverage)},
		} {
			res, err := d.Select(r, opts...)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		zoomed, err := d.ZoomIn(results[0], r/2)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, zoomed)
		m := d.Metric()
		for _, res := range results {
			for id := range pts {
				want := math.Inf(1)
				for _, b := range res.IDs() {
					want = min(want, m.Dist(pts[id], pts[b]))
				}
				if res.Contains(id) {
					want = 0
				}
				if got := res.DistanceToRepresentative(id); got != want {
					t.Fatalf("%v %s: object %d at %g from its representative, brute force %g", ix, res.Algorithm(), id, got, want)
				}
				if want > res.Radius() {
					t.Fatalf("%v %s: object %d uncovered (%g)", ix, res.Algorithm(), id, want)
				}
			}
		}
	}
}

// Property: for random radii, Select(greedy) always yields a valid DisC
// subset whose fmin exceeds r.
func TestSelectQuickProperty(t *testing.T) {
	pts := randomPoints(200, 2, 10)
	d := newDiversifier(t, pts)
	prop := func(raw uint16) bool {
		r := 0.01 + float64(raw%500)/1000.0 // 0.01 .. 0.51
		res, err := d.Select(r)
		if err != nil {
			return false
		}
		if d.Verify(res) != nil {
			return false
		}
		if res.Size() >= 2 && disc.FMin(pts, d.Metric(), res.IDs()) <= r {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBaselinesExported(t *testing.T) {
	pts := randomPoints(150, 2, 11)
	m := disc.Euclidean()
	k := 10
	for name, ids := range map[string][]int{
		"maxmin":    disc.MaxMin(pts, m, k),
		"maxsum":    disc.MaxSum(pts, m, k),
		"kmedoids":  disc.KMedoids(pts, m, k, 1),
		"randomsel": disc.RandomSample(len(pts), k, 1),
	} {
		if len(ids) == 0 || len(ids) > k {
			t.Errorf("%s returned %d ids", name, len(ids))
		}
	}
	if disc.FMin(pts, m, []int{0, 1}) <= 0 {
		t.Error("fmin not positive for distinct points")
	}
	if disc.FSum(pts, m, []int{0, 1, 2}) <= 0 {
		t.Error("fsum not positive")
	}
	if disc.MedoidCost(pts, m, []int{0}) <= 0 {
		t.Error("medoid cost not positive")
	}
}

func TestMetricConstructors(t *testing.T) {
	a, b := disc.Point{0, 0}, disc.Point{1, 1}
	if disc.Euclidean().Dist(a, b) == 0 || disc.Manhattan().Dist(a, b) != 2 ||
		disc.Chebyshev().Dist(a, b) != 1 || disc.Hamming().Dist(a, b) != 2 {
		t.Error("metric constructors broken")
	}
	if _, err := disc.MetricByName("hamming"); err != nil {
		t.Error(err)
	}
}

func TestDatasetConstructors(t *testing.T) {
	u, err := disc.UniformDataset(100, 3, 1)
	if err != nil || u.Len() != 100 {
		t.Fatalf("uniform: %v", err)
	}
	c, err := disc.ClusteredDataset(100, 2, 4, 1)
	if err != nil || c.Len() != 100 {
		t.Fatalf("clustered: %v", err)
	}
	if disc.CitiesDataset(1).Len() != 5922 {
		t.Error("cities size")
	}
	if disc.CamerasDataset(1).Len() != 579 {
		t.Error("cameras size")
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

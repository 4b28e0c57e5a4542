package disc_test

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	disc "github.com/discdiversity/disc"
)

func TestStreamBasicLifecycle(t *testing.T) {
	s, err := disc.NewStream(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Radius() != 0.1 || s.Len() != 0 || s.Size() != 0 {
		t.Fatal("empty stream state wrong")
	}
	a, sel, err := s.Add(disc.Point{0.5, 0.5})
	if err != nil || !sel {
		t.Fatalf("first object must be selected: sel=%v err=%v", sel, err)
	}
	_, sel, err = s.Add(disc.Point{0.52, 0.5})
	if err != nil || sel {
		t.Fatalf("covered object must not be selected: sel=%v err=%v", sel, err)
	}
	c, sel, err := s.Add(disc.Point{0.9, 0.9})
	if err != nil || !sel {
		t.Fatalf("distant object must be selected: sel=%v err=%v", sel, err)
	}
	if s.Len() != 3 || s.Size() != 2 {
		t.Fatalf("len=%d size=%d", s.Len(), s.Size())
	}
	if !s.IsRepresentative(a) || !s.IsRepresentative(c) {
		t.Error("representatives wrong")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamChurnStaysValid(t *testing.T) {
	s, err := disc.NewStream(0.07)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	var live []int
	for step := 0; step < 300; step++ {
		if len(live) == 0 || rng.Float64() < 0.65 {
			id, _, err := s.Add(disc.Point{rng.Float64(), rng.Float64()})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else {
			k := rng.IntN(len(live))
			if err := s.Remove(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(live) {
		t.Errorf("live %d, want %d", s.Len(), len(live))
	}
}

func TestStreamHammingMetric(t *testing.T) {
	s, err := disc.NewStream(2, disc.StreamMetric(disc.Hamming()))
	if err != nil {
		t.Fatal(err)
	}
	if _, sel, _ := s.Add(disc.Point{0, 0, 0, 0}); !sel {
		t.Error("first selected")
	}
	if _, sel, _ := s.Add(disc.Point{0, 0, 0, 1}); sel {
		t.Error("1-differing camera should be covered at r=2")
	}
	if _, sel, _ := s.Add(disc.Point{1, 1, 1, 1}); !sel {
		t.Error("4-differing camera should be selected")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}

	// Under churn, the representatives are exactly a from-scratch
	// coverage-graph Select over the live points.
	s, err = disc.NewStream(2, disc.StreamMetric(disc.Hamming()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 3))
	var live []int
	for step := 0; step < 2000; step++ {
		if len(live) > 0 && rng.Float64() < 0.2 {
			k := rng.IntN(len(live))
			if err := s.Remove(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
			continue
		}
		p := make(disc.Point, 8)
		for i := range p {
			p[i] = float64(rng.IntN(3))
		}
		id, _, err := s.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	pts := make([]disc.Point, len(live))
	for i, id := range live {
		pts[i] = s.Point(id)
	}
	d, err := disc.New(pts, disc.WithIndex(disc.IndexCoverageGraph), disc.WithMetric(disc.Hamming()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Select(2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, 0, res.Size())
	for _, i := range res.IDs() {
		want = append(want, live[i])
	}
	sort.Ints(want)
	if got := s.Representatives(); !slices.Equal(got, want) {
		t.Fatalf("stream keeps %d representatives, component select %d", len(got), len(want))
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamAcceptsEmbeddingMetrics: the dissimilarities the M-tree
// refuses run on the same maintainer as every other metric.
func TestStreamAcceptsEmbeddingMetrics(t *testing.T) {
	for _, m := range []disc.Metric{disc.Cosine(), disc.InnerProduct()} {
		s, err := disc.NewStream(0.05, disc.StreamMetric(m))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		rng := rand.New(rand.NewPCG(4, 4))
		for i := 0; i < 200; i++ {
			p := disc.Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			n := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
			for j := range p {
				p[j] /= n
			}
			if _, _, err := s.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
}

func TestStreamOptionValidation(t *testing.T) {
	if _, err := disc.NewStream(-1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := disc.NewStream(0.1, disc.StreamMetric(nil)); err == nil {
		t.Error("nil metric accepted")
	}
}

// TestVPTreeOptionMatchesMTree: the retired VP-tree's name now runs on
// the M-tree and selects what it does.
func TestVPTreeOptionMatchesMTree(t *testing.T) {
	pts := randomPoints(400, 2, 33)
	dm, err := disc.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := disc.New(pts, disc.WithIndexName("vptree"))
	if err != nil {
		t.Fatal(err)
	}
	if dv.Indexed() != disc.IndexMTree {
		t.Fatalf("vptree runs on %v, want the M-tree", dv.Indexed())
	}
	for _, r := range []float64{0.05, 0.15} {
		a, err := dm.Select(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dv.Select(r)
		if err != nil {
			t.Fatal(err)
		}
		if a.Jaccard(b) != 0 {
			t.Errorf("r=%g: M-tree and VP-tree selections differ", r)
		}
		if err := dv.Verify(b); err != nil {
			t.Error(err)
		}
	}
	if _, err := disc.New(pts, disc.WithIndexName("vptree"), disc.WithLinearScan()); err == nil {
		t.Error("conflicting index options accepted")
	}
}

func TestExtensionsAPI(t *testing.T) {
	pts := randomPoints(300, 2, 34)
	d, err := disc.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, len(pts))
	for i := range weights {
		weights[i] = float64(i % 17)
	}
	res, err := d.SelectWeighted(0.1, weights)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(res); err != nil {
		t.Fatal(err)
	}
	if res.TotalWeight(weights) <= 0 {
		t.Error("zero total weight")
	}
	if _, err := d.SelectWeighted(0.1, weights[:5]); err == nil {
		t.Error("wrong weight count accepted")
	}

	radii := make([]float64, len(pts))
	for i := range radii {
		radii[i] = 0.05 + 0.1*float64(i%3)/2
	}
	mres, err := d.SelectMultiRadius(radii)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyMultiRadius(mres); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(mres); err != nil {
		t.Fatal(err) // Verify routes to multi-radius checking
	}
	if _, err := d.ZoomIn(mres, 0.01); err == nil {
		t.Error("zooming a multi-radius result accepted")
	}
	if err := d.VerifyMultiRadius(res); err == nil {
		t.Error("VerifyMultiRadius accepted a plain result")
	}
}

package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/discdiversity/disc/internal/object"
)

func TestWeightedGreedyDisCIsValidAndHeavy(t *testing.T) {
	pts := randomPoints(400, 2, 50)
	m := object.Euclidean{}
	rng := rand.New(rand.NewPCG(3, 3))
	weights := make([]float64, len(pts))
	for i := range weights {
		weights[i] = rng.Float64()
	}
	for engName, e := range bothEngines(t, pts, m) {
		for _, r := range []float64{0.05, 0.1, 0.2} {
			s, err := WeightedGreedyDisC(e, r, weights)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifySolution(e, s); err != nil {
				t.Errorf("%s r=%g: %v", engName, r, err)
			}
			// The weighted pick must carry at least the total weight of
			// the plain greedy solution's... not guaranteed in general,
			// but it must beat the *reverse*-weight ordering.
			inv := make([]float64, len(weights))
			for i, w := range weights {
				inv[i] = -w
			}
			worst, err := WeightedGreedyDisC(e, r, inv)
			if err != nil {
				t.Fatal(err)
			}
			heavyAvg := TotalWeight(s, weights) / float64(s.Size())
			lightAvg := TotalWeight(worst, weights) / float64(worst.Size())
			if heavyAvg <= lightAvg {
				t.Errorf("%s r=%g: weight-greedy average %g not above reverse ordering's %g",
					engName, r, heavyAvg, lightAvg)
			}
		}
	}
}

func TestWeightedGreedyDisCFirstPickIsHeaviest(t *testing.T) {
	pts := randomPoints(100, 2, 51)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	weights := make([]float64, len(pts))
	for i := range weights {
		weights[i] = float64(i)
	}
	s, err := WeightedGreedyDisC(e, 0.1, weights)
	if err != nil {
		t.Fatal(err)
	}
	if s.IDs[0] != len(pts)-1 {
		t.Errorf("first pick %d, want heaviest object %d", s.IDs[0], len(pts)-1)
	}
}

func TestWeightedGreedyDisCValidation(t *testing.T) {
	pts := randomPoints(10, 2, 52)
	e := flatEngine(t, pts, object.Euclidean{})
	if _, err := WeightedGreedyDisC(e, 0.1, make([]float64, 3)); err == nil {
		t.Error("wrong weight count accepted")
	}
}

func TestMultiRadiusDisCIsValid(t *testing.T) {
	pts := randomPoints(300, 2, 53)
	m := object.Euclidean{}
	rng := rand.New(rand.NewPCG(4, 4))
	radii := make([]float64, len(pts))
	for i := range radii {
		radii[i] = 0.02 + 0.1*rng.Float64()
	}
	for engName, e := range bothEngines(t, pts, m) {
		s, err := MultiRadiusDisC(e, radii)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckMultiRadiusDisC(pts, m, s.IDs, radii); err != nil {
			t.Errorf("%s: %v", engName, err)
		}
	}
}

func TestMultiRadiusUniformEqualsPlainDisC(t *testing.T) {
	// With identical radii the generalised problem degenerates to plain
	// DisC; the greedy variant must match Greedy-DisC exactly.
	pts := randomPoints(300, 2, 54)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	r := 0.08
	radii := make([]float64, len(pts))
	for i := range radii {
		radii[i] = r
	}
	multi, err := MultiRadiusDisC(e, radii)
	if err != nil {
		t.Fatal(err)
	}
	plain := GreedyDisC(e, r, GreedyOptions{Update: UpdateGrey})
	if !equalInts(multi.SortedIDs(), plain.SortedIDs()) {
		t.Error("uniform multi-radius result differs from plain Greedy-DisC")
	}
}

func TestMultiRadiusSmallRadiusGetsMoreRepresentatives(t *testing.T) {
	// Relevance via radii: halving the radii in the left half of the
	// space must increase the number of representatives there.
	pts := randomPoints(600, 2, 55)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	uniform := make([]float64, len(pts))
	focused := make([]float64, len(pts))
	for i, p := range pts {
		uniform[i] = 0.1
		if p[0] < 0.5 {
			focused[i] = 0.04
		} else {
			focused[i] = 0.1
		}
	}
	count := func(radii []float64) int {
		s, err := MultiRadiusDisC(e, radii)
		if err != nil {
			t.Fatal(err)
		}
		left := 0
		for _, id := range s.IDs {
			if pts[id][0] < 0.5 {
				left++
			}
		}
		return left
	}
	if lu, lf := count(uniform), count(focused); lf <= lu {
		t.Errorf("focused radii left-half representatives %d not above uniform %d", lf, lu)
	}
}

func TestMultiRadiusValidation(t *testing.T) {
	pts := randomPoints(10, 2, 56)
	e := flatEngine(t, pts, object.Euclidean{})
	if _, err := MultiRadiusDisC(e, make([]float64, 3)); err == nil {
		t.Error("wrong radii count accepted")
	}
	bad := make([]float64, len(pts))
	bad[0] = -1
	if _, err := MultiRadiusDisC(e, bad); err == nil {
		t.Error("negative radius accepted")
	}
	if err := CheckMultiRadiusDisC(pts, object.Euclidean{}, []int{0}, make([]float64, 3)); err == nil {
		t.Error("check with wrong radii count accepted")
	}
}

// Property test: random weights always yield valid DisC subsets.
func TestWeightedQuickProperty(t *testing.T) {
	pts := randomPoints(150, 2, 57)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed))
		weights := make([]float64, len(pts))
		for i := range weights {
			weights[i] = rng.Float64() * 10
		}
		s, err := WeightedGreedyDisC(e, 0.1, weights)
		if err != nil {
			return false
		}
		return CheckDisC(pts, m, s.IDs, 0.1) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/discdiversity/disc/internal/baseline"
	"github.com/discdiversity/disc/internal/object"
)

// TestTheorem1Bound: any r-DisC diverse subset is at most B times larger
// than a minimum one, where B is the maximum number of independent
// neighbours of any object. Verified exactly on small instances.
func TestTheorem1Bound(t *testing.T) {
	m := object.Euclidean{}
	for seed := uint64(0); seed < 8; seed++ {
		pts := randomPoints(16, 2, seed+100)
		r := 0.25
		g := buildRefGraph(pts, m, r)
		optimal := g.MinIndependentDominatingSet()
		b := g.MaxIndependentNeighbors()
		if b == 0 {
			b = 1
		}
		e := flatEngine(t, pts, m)
		for name, alg := range discAlgorithms() {
			s := alg(e, r)
			if s.Size() > b*len(optimal) {
				t.Errorf("seed %d %s: |S|=%d exceeds B*|S*|=%d*%d", seed, name, s.Size(), b, len(optimal))
			}
			if s.Size() < len(optimal) {
				t.Errorf("seed %d %s: |S|=%d below optimal %d — optimum or verifier broken", seed, name, s.Size(), len(optimal))
			}
		}
	}
}

// TestLemma2EuclideanIndependentNeighbors: in 2-d Euclidean space an
// object has at most 5 pairwise-independent neighbours. We try hard to
// construct more via dense random packings and confirm the bound holds.
func TestLemma2EuclideanIndependentNeighbors(t *testing.T) {
	m := object.Euclidean{}
	r := 0.5
	rng := rand.New(rand.NewPCG(7, 11))
	worst := 0
	for trial := 0; trial < 400; trial++ {
		center := object.Point{0, 0}
		// Sample candidate neighbours in the r-disk around the centre.
		var cands []object.Point
		for len(cands) < 40 {
			p := object.Point{rng.Float64()*2*r - r, rng.Float64()*2*r - r}
			if m.Dist(center, p) <= r {
				cands = append(cands, p)
			}
		}
		if got := greedyIndependent(cands, m, r); got > worst {
			worst = got
		}
	}
	if worst > 5 {
		t.Errorf("found %d independent Euclidean neighbours, Lemma 2 bounds it by 5", worst)
	}
	if worst < 4 {
		t.Errorf("packing search too weak: only %d independent neighbours found", worst)
	}
}

// TestLemma3ManhattanIndependentNeighbors: at most 7 independent
// neighbours under the Manhattan metric in 2-d.
func TestLemma3ManhattanIndependentNeighbors(t *testing.T) {
	m := object.Manhattan{}
	r := 0.5
	rng := rand.New(rand.NewPCG(13, 17))
	worst := 0
	for trial := 0; trial < 400; trial++ {
		center := object.Point{0, 0}
		var cands []object.Point
		for len(cands) < 50 {
			p := object.Point{rng.Float64()*2*r - r, rng.Float64()*2*r - r}
			if m.Dist(center, p) <= r {
				cands = append(cands, p)
			}
		}
		if got := greedyIndependent(cands, m, r); got > worst {
			worst = got
		}
	}
	if worst > 7 {
		t.Errorf("found %d independent Manhattan neighbours, Lemma 3 bounds it by 7", worst)
	}
}

// greedyIndependent greedily packs candidates at pairwise distance > r and
// returns the packing size (a lower bound on the max independent subset).
func greedyIndependent(cands []object.Point, m object.Metric, r float64) int {
	var chosen []object.Point
	for _, c := range cands {
		ok := true
		for _, x := range chosen {
			if m.Dist(c, x) <= r {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, c)
		}
	}
	return len(chosen)
}

// TestTheorem2GreedyCBound: the r-C subset produced by Greedy-C is at most
// ln Δ (+1 for the tiny-Δ regime, per H(Δ+1)) times the minimum r-DisC
// diverse subset.
func TestTheorem2GreedyCBound(t *testing.T) {
	m := object.Euclidean{}
	for seed := uint64(0); seed < 8; seed++ {
		pts := randomPoints(18, 2, seed+200)
		r := 0.22
		g := buildRefGraph(pts, m, r)
		optimal := g.MinIndependentDominatingSet()
		delta := g.MaxDegree()
		// H(Δ+1) bound from the paper's proof.
		bound := harmonic(delta+1) * float64(len(optimal))
		e := flatEngine(t, pts, m)
		s := GreedyC(e, r)
		if float64(s.Size()) > bound+1e-9 {
			t.Errorf("seed %d: Greedy-C size %d exceeds H(Δ+1)|S*| = %.2f", seed, s.Size(), bound)
		}
	}
}

func harmonic(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// TestLemma4NIBound: the number of objects within r2 of p that are
// pairwise independent at r1 is bounded by 9*ceil(log_phi(r2/r1)) for
// Euclidean 2-d and 4*sum(2i+1) for Manhattan.
func TestLemma4NIBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	r1, r2 := 0.1, 0.35
	center := object.Point{0.5, 0.5}

	check := func(m object.Metric, bound int, name string) {
		worst := 0
		for trial := 0; trial < 200; trial++ {
			var cands []object.Point
			for len(cands) < 60 {
				p := object.Point{rng.Float64(), rng.Float64()}
				if m.Dist(center, p) <= r2 {
					cands = append(cands, p)
				}
			}
			if got := greedyIndependent(cands, m, r1); got > worst {
				worst = got
			}
		}
		if worst > bound {
			t.Errorf("%s: packed %d independent objects, Lemma 4 bound %d", name, worst, bound)
		}
	}

	beta := (1 + math.Sqrt(5)) / 2
	euclideanBound := 9 * int(math.Ceil(math.Log(r2/r1)/math.Log(beta)))
	check(object.Euclidean{}, euclideanBound, "euclidean")

	gamma := int(math.Ceil((r2 - r1) / r1))
	manhattanBound := 0
	for i := 1; i <= gamma; i++ {
		manhattanBound += 4 * (2*i + 1)
	}
	check(object.Manhattan{}, manhattanBound, "manhattan")
}

// TestLemma5ZoomInSizeBound: |S^r'| ≤ NI_{r',r} * |S^r| — we use the
// generous analytic Euclidean bound and confirm zoom-in stays within it.
func TestLemma5ZoomInSizeBound(t *testing.T) {
	pts := randomPoints(600, 2, 9)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	r, rp := 0.12, 0.06
	prev := GreedyDisC(e, r, GreedyOptions{Update: UpdateGrey})
	zoomed, err := ZoomIn(e, prev, rp, false, false)
	if err != nil {
		t.Fatal(err)
	}
	beta := (1 + math.Sqrt(5)) / 2
	ni := 9 * int(math.Ceil(math.Log(r/rp)/math.Log(beta)))
	// Lemma 5(ii): |S^r'| ≤ NI * |S^r| (+|S^r| for the kept objects).
	if zoomed.Size() > (ni+1)*prev.Size() {
		t.Errorf("zoom-in size %d exceeds (NI+1)*|S^r| = %d", zoomed.Size(), (ni+1)*prev.Size())
	}
}

// TestLemma7MaxMinQuality: the optimal MaxMin fmin for k=|S| is at most
// 3x the fmin achieved by a DisC diverse subset of size |S|.
func TestLemma7MaxMinQuality(t *testing.T) {
	m := object.Euclidean{}
	for seed := uint64(0); seed < 6; seed++ {
		pts := randomPoints(14, 2, seed+300)
		r := 0.3
		e := flatEngine(t, pts, m)
		s := GreedyDisC(e, r, GreedyOptions{Update: UpdateGrey})
		k := s.Size()
		if k < 2 {
			continue
		}
		lambda := baseline.FMin(pts, m, s.IDs)
		_, lambdaOpt := optimalMaxMin(pts, m, k)
		if lambdaOpt > 3*lambda+1e-9 {
			t.Errorf("seed %d: optimal fmin %g exceeds 3x DisC fmin %g", seed, lambdaOpt, lambda)
		}
		// DisC guarantees fmin > r by construction.
		if lambda <= r {
			t.Errorf("seed %d: DisC fmin %g not above r=%g", seed, lambda, r)
		}
	}
}

// TestRadiusExtremes: radius covering everything selects one object;
// radius zero (on distinct points) selects everything.
func TestRadiusExtremes(t *testing.T) {
	pts := randomPoints(60, 2, 77)
	m := object.Euclidean{}
	e := flatEngine(t, pts, m)
	diam := object.MaxPairwiseDist(pts, m)
	one := GreedyDisC(e, diam, GreedyOptions{Update: UpdateGrey})
	if one.Size() != 1 {
		t.Errorf("radius=diameter selected %d objects", one.Size())
	}
	all := BasicDisC(e, 0, false)
	if all.Size() != len(pts) {
		t.Errorf("radius=0 selected %d objects, want all %d", all.Size(), len(pts))
	}
}

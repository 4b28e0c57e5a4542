package core

import (
	"math"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

// fuzzMetrics are the built-in distances FuzzLiveMatchesBatch draws
// from: the three the grid serves and the three the row scan serves.
var fuzzMetrics = []object.Metric{
	object.Euclidean{}, object.Manhattan{}, object.Chebyshev{},
	object.Hamming{}, object.Cosine{}, object.DotProduct{},
}

// fuzzRadius decodes a radius on the scale of m's distances between
// fuzzPoint points, zero included except under dot product.
func fuzzRadius(m object.Metric, b byte, dim int) float64 {
	switch m.(type) {
	case object.Hamming:
		return float64(int(b) % (dim + 1))
	case object.Cosine:
		return float64(b%64) / 32
	case object.DotProduct:
		// Above zero: a unit vector's self-distance may round to a few
		// ulps, and every object must cover itself.
		return float64(b%64+1) / 32
	default:
		return float64(b%32) / 16
	}
}

// fuzzPoint decodes one coordinate per byte onto a coarse lattice, so
// duplicates and distances of exactly r are common: categories {0,1,2}
// under Hamming, a non-zero integer vector under cosine (normalised
// under dot product, which is meant for unit embeddings), multiples of
// 1/8 in [0,2) otherwise.
func fuzzPoint(m object.Metric, bs []byte) object.Point {
	p := make(object.Point, len(bs))
	switch m.(type) {
	case object.Hamming:
		for i, b := range bs {
			p[i] = float64(b % 3)
		}
	case object.Cosine, object.DotProduct:
		var n float64
		for i, b := range bs {
			p[i] = float64(int(b%16) - 8)
			n += p[i] * p[i]
		}
		if n == 0 {
			p[0], n = 1, 1
		}
		if _, dot := m.(object.DotProduct); dot {
			for i := range p {
				p[i] /= math.Sqrt(n)
			}
		}
	default:
		for i, b := range bs {
			p[i] = float64(b%16) / 8
		}
	}
	return p
}

// FuzzLiveMatchesBatch decodes bytes into a metric, a dimensionality, a
// radius and an insert/delete sequence, and after every flushed
// mutation requires the live selection to be a valid r-DisC subset that
// equals GreedyDisCComponents over the compacted dataset and adjacency
// — and that adjacency to equal a from-scratch join (assertConverged).
//
// Layout: metric, dim, radius, then ops. An op byte ≡ 3 (mod 4) with a
// live object deletes live[next byte mod len]; any other op byte
// inserts the point decoded from the next dim bytes. The seed corpus
// under testdata/fuzz covers every metric, deletes, and radius zero.
func FuzzLiveMatchesBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m := fuzzMetrics[int(data[0])%len(fuzzMetrics)]
		dim := 1 + int(data[1])%4
		r := fuzzRadius(m, data[2], dim)
		l, err := NewLiveDisC(m, r)
		if err != nil {
			t.Fatal(err)
		}
		var live []int
		for ops, rest := 0, data[3:]; len(rest) > 0 && ops < 64; ops++ {
			op := rest[0]
			rest = rest[1:]
			if op%4 == 3 && len(live) > 0 {
				if len(rest) == 0 {
					break
				}
				k := int(rest[0]) % len(live)
				rest = rest[1:]
				if err := l.Delete(live[k]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				if len(rest) < dim {
					break
				}
				id, err := l.Insert(fuzzPoint(m, rest[:dim]))
				if err != nil {
					t.Fatal(err)
				}
				rest = rest[dim:]
				live = append(live, id)
			}
			assertConverged(t, l, r)
			assertMatchesComponentGreedy(t, l, r)
		}
	})
}

// assertMatchesComponentGreedy runs GreedyDisCComponents over a graph
// engine on l's compacted dataset and adjacency and requires its
// selection, in order, to be l's converged one through the remap.
func assertMatchesComponentGreedy(t *testing.T, l *LiveDisC, r float64) {
	t.Helper()
	if l.Len() == 0 {
		return
	}
	flat, remap, csr, _, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	e, err := RehydrateFlatGraphEngine(flat, csr, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := GreedyDisCComponents(e, r, GreedyOptions{Update: UpdateGrey, Pruned: true}, 1).IDs
	got := l.OrderedSelection()
	if len(got) != len(want) {
		t.Fatalf("live selects %d, component greedy %d", len(got), len(want))
	}
	for i, id := range got {
		if int(remap[id]) != want[i] {
			t.Fatalf("selection[%d] = %d (remaps to %d), component greedy selects %d", i, id, remap[id], want[i])
		}
	}
}

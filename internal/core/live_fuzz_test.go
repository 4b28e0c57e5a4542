package core

import (
	"math"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

// fuzzMetrics are the built-in distances the live fuzz targets draw
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

// fuzzOps decodes an insert/delete tail of at most 64 ops over the
// live ids, numbering inserts from next. An op byte ≡ 3 (mod 4) with a
// live object deletes live[next byte mod len]; any other op byte
// inserts the point decoded from the next dim bytes. A truncated op
// ends the tail.
func fuzzOps(m object.Metric, dim int, rest []byte, live []int, next int) []replayOp {
	var ops []replayOp
	for len(rest) > 0 && len(ops) < 64 {
		op := rest[0]
		rest = rest[1:]
		if op%4 == 3 && len(live) > 0 {
			if len(rest) == 0 {
				break
			}
			k := int(rest[0]) % len(live)
			rest = rest[1:]
			ops = append(ops, replayOp{id: live[k]})
			live = append(live[:k], live[k+1:]...)
		} else {
			if len(rest) < dim {
				break
			}
			ops = append(ops, replayOp{p: fuzzPoint(m, rest[:dim])})
			rest = rest[dim:]
			live = append(live, next)
			next++
		}
	}
	return ops
}

// FuzzLiveMatchesBatch decodes bytes into a metric, a dimensionality, a
// radius and an insert/delete sequence, and after every flushed
// mutation requires the live selection to be a valid r-DisC subset that
// equals GreedyDisCComponents over the compacted dataset and adjacency
// — and that adjacency to equal a from-scratch join, and the leave-time
// trace a full run's (assertConverged). A second maintainer takes the
// same ops but flushes only after every third op and at the end, so
// one repair also starts from the seeds of several writes, a seed
// deleted before its flush among them. Every unflushed write must read
// as pending, and none may after a Flush.
//
// Layout: metric, dim, radius, then ops (fuzzOps). The seed corpus
// under testdata/fuzz covers every metric, deletes, radius zero, a
// dense 1-d giant component under churn, and deletes of isolated
// representatives (which queue no neighbour).
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
		batched, err := NewLiveDisC(m, r)
		if err != nil {
			t.Fatal(err)
		}
		ops := fuzzOps(m, dim, data[3:], nil, 0)
		for i, op := range ops {
			for _, live := range []*LiveDisC{l, batched} {
				if op.p != nil {
					if _, err := live.Insert(op.p); err != nil {
						t.Fatal(err)
					}
				} else if err := live.Delete(op.id); err != nil {
					t.Fatal(err)
				}
				if live.Pending() == 0 {
					t.Fatalf("op %d: unflushed write not pending", i)
				}
			}
			assertConverged(t, l, r)
			assertMatchesComponentGreedy(t, l, r)
			if i%3 == 2 || i == len(ops)-1 {
				assertConverged(t, batched, r)
				assertMatchesComponentGreedy(t, batched, r)
			}
		}
	})
}

// FuzzReplayMatchesLive decodes bytes into a metric, a dimensionality,
// a radius, an optional checkpoint and an insert/delete tail, and
// requires recovery — the tail replayed onto the checkpoint, then
// Finish — to reach exactly the state the per-op live path reaches
// (assertSameState), with the folded adjacency a valid CSR.
//
// Layout: metric, dim, radius, checkpoint size k (byte mod 32; 0 means
// no checkpoint), k·dim point bytes, then the tail (fuzzOps). The seed
// corpus under testdata/fuzz covers every metric, deletes of
// checkpointed and of tail ids, no checkpoint, no tail, and radius
// zero.
func FuzzReplayMatchesLive(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m := fuzzMetrics[int(data[0])%len(fuzzMetrics)]
		dim := 1 + int(data[1])%4
		r := fuzzRadius(m, data[2], dim)
		k := int(data[3]) % 32
		rest := data[4:]
		if len(rest) < k*dim {
			return
		}
		var want *LiveDisC
		var rp *LiveReplay
		var err error
		live := make([]int, k)
		if k == 0 {
			if want, err = NewLiveDisC(m, r); err != nil {
				t.Fatal(err)
			}
			rp, err = NewLiveReplay(m, r)
		} else {
			base := make([]object.Point, k)
			for i := range base {
				base[i] = fuzzPoint(m, rest[i*dim:(i+1)*dim])
				live[i] = i
			}
			var flat *object.FlatDataset
			if flat, err = object.Flatten(base, m); err != nil {
				t.Fatal(err)
			}
			if want, err = SeedLiveDisC(flat, r, 1); err != nil {
				t.Fatal(err)
			}
			rp, err = RestoreLiveReplay(flat, batchJoin(t, flat, r), r)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range fuzzOps(m, dim, rest[k*dim:], live, k) {
			if op.p != nil {
				id, err := want.Insert(op.p)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := rp.Insert(op.p); err != nil || got != id {
					t.Fatalf("replayed insert = (%d, %v), live path assigned %d", got, err, id)
				}
				continue
			}
			if err := want.Delete(op.id); err != nil {
				t.Fatal(err)
			}
			if err := rp.Delete(op.id); err != nil {
				t.Fatal(err)
			}
		}
		want.Flush()
		got := rp.Finish()
		if err := foldedCSR(got).Validate(got.Slots(), r); err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 {
			if want.Len() != 0 || got.Size() != 0 || got.Slots() != want.Slots() {
				t.Fatalf("recovered %d live, %d selected, %d slots; live path %d live, %d slots", got.Len(), got.Size(), got.Slots(), want.Len(), want.Slots())
			}
			return
		}
		assertSameState(t, got, want)
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
	flat, remap, csr, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	e, err := RehydrateGraphEngine(flat, nil, csr, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := GreedyDisCComponents(e, r, GreedyOptions{Update: UpdateGrey, Pruned: true}).IDs
	if got := remapIDs(l.OrderedSelection(), remap); !slices.Equal(got, want) {
		t.Fatalf("live selects %v (remapped), component greedy %v", got, want)
	}
}

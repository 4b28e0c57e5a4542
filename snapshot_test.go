package disc

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/snap"
)

func snapshotTestPoints(n, dim int, seed uint64) []Point {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func equalIDs(a, b []int) bool { return slices.Equal(a, b) }

// TestSnapshotLoadConformance: for every index backend, a diversifier
// restored with LoadDiversifier must behave bit-identically to the one
// that wrote the snapshot — identical Greedy-DisC selections at the
// prepared radius and at a different radius, and identical
// NeighborsAppend results from the underlying engines.
func TestSnapshotLoadConformance(t *testing.T) {
	pts := snapshotTestPoints(400, 2, 21)
	const r = 0.08
	for _, name := range SupportedIndexNames() {
		fresh, err := New(pts, WithIndexName(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := fresh.Select(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := fresh.WriteSnapshot(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		loaded, err := LoadDiversifier(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if loaded.Indexed().String() != name {
			t.Fatalf("%s: loaded index is %v", name, loaded.Indexed())
		}
		if loaded.Len() != fresh.Len() || loaded.Metric().Name() != fresh.Metric().Name() {
			t.Fatalf("%s: dataset drifted on load", name)
		}
		got, err := loaded.Select(r)
		if err != nil {
			t.Fatalf("%s: loaded select: %v", name, err)
		}
		if !equalIDs(want.SortedIDs(), got.SortedIDs()) {
			t.Errorf("%s: loaded selection differs from fresh (%d vs %d objects)", name, got.Size(), want.Size())
		}
		// A second radius exercises the rebuild/fallback machinery of
		// the rehydrated engine.
		want2, err := fresh.Select(r / 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got2, err := loaded.Select(r / 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalIDs(want2.SortedIDs(), got2.SortedIDs()) {
			t.Errorf("%s: selections diverge after re-radius", name)
		}
		// Engine-level conformance: identical neighbour lists (ids,
		// order, bit-identical distances) from the buffer-reusing form.
		fe, err := fresh.engineForRadius(r, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		le, err := loaded.engineForRadius(r, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var fb, lb []object.Neighbor
		var run core.Run
		for id := 0; id < len(pts); id += 37 {
			for _, qr := range []float64{r / 3, r, 2.5 * r} {
				fb = fe.NeighborsAppend(fb[:0], id, qr, &run)
				lb = le.NeighborsAppend(lb[:0], id, qr, &run)
				if len(fb) != len(lb) {
					t.Fatalf("%s id=%d r=%g: %d vs %d neighbours", name, id, qr, len(lb), len(fb))
				}
				for i := range fb {
					if fb[i] != lb[i] {
						t.Fatalf("%s id=%d r=%g: neighbour %d drifted: %v vs %v", name, id, qr, i, lb[i], fb[i])
					}
				}
			}
		}
	}
}

// TestSnapshotWarmEngineReused: a snapshot prepared at radius r must
// rehydrate straight into the engineForRadius cache — Select(r) on the
// loaded diversifier reuses the rehydrated engine rather than building
// a fresh one.
func TestSnapshotWarmEngineReused(t *testing.T) {
	pts := snapshotTestPoints(300, 2, 23)
	const r = 0.07
	for _, tc := range []struct {
		name string
		ix   Index
	}{
		{"coverage-graph", IndexCoverageGraph},
	} {
		d, err := New(pts, WithIndex(tc.ix))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Prepare(r); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadDiversifier(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.engine == nil {
			t.Fatalf("%s: loaded diversifier has no rehydrated engine", tc.name)
		}
		before := loaded.engine
		e, err := loaded.engineForRadius(r, true)
		if err != nil {
			t.Fatal(err)
		}
		if e != before {
			t.Fatalf("%s: Select at the prepared radius rebuilt the engine", tc.name)
		}
		if tc.ix == IndexCoverageGraph {
			g, ok := e.(*core.ParallelGraphEngine)
			if !ok {
				t.Fatalf("%s: rehydrated engine is %T", tc.name, e)
			}
			if g.Radius() != r {
				t.Fatalf("%s: rehydrated radius %g, want %g", tc.name, g.Radius(), r)
			}
		}
	}
}

// TestSnapshotPrepareThenZoom: artifacts prepared before any selection
// must survive the round trip and serve zooms on the loaded side.
func TestSnapshotPrepareThenZoom(t *testing.T) {
	pts := snapshotTestPoints(350, 2, 29)
	d, err := New(pts, WithIndex(IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Prepare(0.1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDiversifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Select(0.1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := loaded.ZoomIn(res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(in); err != nil {
		t.Fatalf("zoomed result invalid on loaded diversifier: %v", err)
	}
}

// TestSnapshotOptionOverrides: options are applied on top of the
// snapshot's recorded configuration.
func TestSnapshotOptionOverrides(t *testing.T) {
	pts := snapshotTestPoints(200, 2, 31)
	d, err := New(pts, WithIndex(IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Prepare(0.1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Conflicting metric: an error, never a reinterpretation.
	if _, err := LoadDiversifier(bytes.NewReader(data), WithMetric(Hamming())); err == nil {
		t.Fatal("metric conflict accepted")
	}
	// Restating the snapshot's metric is fine.
	if _, err := LoadDiversifier(bytes.NewReader(data), WithMetric(Euclidean())); err != nil {
		t.Fatalf("restated metric rejected: %v", err)
	}
	// Index override: the artifacts the new backend cannot use are
	// ignored; the backend still works.
	over, err := LoadDiversifier(bytes.NewReader(data), WithIndex(IndexMTree))
	if err != nil {
		t.Fatal(err)
	}
	if over.Indexed() != IndexMTree {
		t.Fatalf("index override ignored: %v", over.Indexed())
	}
	if _, err := over.Select(0.1); err != nil {
		t.Fatal(err)
	}
	// The retired grid backend is the coverage graph, so naming it
	// reuses the persisted graph.
	gridDiv, err := LoadDiversifier(bytes.NewReader(data), WithIndexName("grid"))
	if err != nil {
		t.Fatal(err)
	}
	if gridDiv.engine == nil {
		t.Fatal("grid override did not rehydrate the persisted graph")
	}
}

// taxicabish is a custom (non-built-in) metric for the round-trip test:
// scaled L1, metric axioms hold. It keeps the CoordinatewiseMonotone
// marker method that the retired R-tree backend asked custom metrics
// for, pinning that such metrics still compile and load.
type taxicabish struct{}

func (taxicabish) Dist(a, b Point) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += 2 * d
	}
	return s
}
func (taxicabish) Name() string            { return "taxicabish" }
func (taxicabish) CoordinatewiseMonotone() {}

// TestSnapshotCustomMetric: a snapshot written under a user-implemented
// metric must load when the caller restates that metric via WithMetric
// (only the name is persisted), and must fail with a clear error when
// the metric is not supplied.
func TestSnapshotCustomMetric(t *testing.T) {
	pts := snapshotTestPoints(200, 2, 43)
	d, err := New(pts, WithMetric(taxicabish{}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Select(0.1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := LoadDiversifier(bytes.NewReader(data)); err == nil {
		t.Fatal("custom-metric snapshot loaded without the metric being supplied")
	}
	loaded, err := LoadDiversifier(bytes.NewReader(data), WithMetric(taxicabish{}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Select(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(want.SortedIDs(), got.SortedIDs()) {
		t.Fatal("custom-metric selections diverge after round trip")
	}
}

// TestSnapshotBuildParamsPersisted: seed, M-tree capacity and
// parallelism survive the round trip, so deterministic rebuilds of the
// dataset-only backends reproduce the writer's engine exactly.
func TestSnapshotBuildParamsPersisted(t *testing.T) {
	pts := snapshotTestPoints(300, 2, 47)
	d, err := New(pts, WithIndex(IndexMTree), WithSeed(7), WithMTreeCapacity(64), WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDiversifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.seed != 7 || loaded.capacity != 64 || loaded.parallelism != 3 {
		t.Fatalf("build params drifted: seed=%d capacity=%d parallelism=%d",
			loaded.seed, loaded.capacity, loaded.parallelism)
	}
	// The rebuilt M-tree must emit neighbour lists in the writer's
	// order (same seed, same capacity, same construction).
	fe, err := d.engineForRadius(0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	le, err := loaded.engineForRadius(0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < len(pts); id += 41 {
		a := fe.NeighborsAppend(nil, id, 0.1, new(core.Run))
		b := le.NeighborsAppend(nil, id, 0.1, new(core.Run))
		if len(a) != len(b) {
			t.Fatalf("id %d: %d vs %d neighbours", id, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("id %d: neighbour order drifted at %d", id, i)
			}
		}
	}
	// Explicit overrides still win over the recorded values.
	over, err := LoadDiversifier(bytes.NewReader(buf.Bytes()), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if over.seed != 9 {
		t.Fatalf("WithSeed override lost: %d", over.seed)
	}
}

// TestSnapshotRetiredIndexLoads: a snapshot whose metadata names a
// retired backend loads onto the backend that replaced it and selects
// exactly the ids a fresh select on that backend does — "rtree" and
// "vptree" onto the M-tree, and "grid" onto the coverage graph, which
// ignores a grid section without a graph and builds lazily.
func TestSnapshotRetiredIndexLoads(t *testing.T) {
	pts := snapshotTestPoints(400, 2, 48)
	for _, tc := range []struct {
		name string
		want Index
	}{
		{"rtree", IndexMTree},
		{"vptree", IndexMTree},
		{"grid", IndexCoverageGraph},
	} {
		fresh, err := New(pts, WithIndex(tc.want))
		if err != nil {
			t.Fatal(err)
		}
		// Prepare gives the coverage graph a grid to persist; the
		// retired grid backend wrote that section and nothing else.
		if err := fresh.Prepare(0.12); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fresh.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		parsed, err := snap.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		parsed.Index = tc.name
		if tc.name == "grid" {
			if parsed.GridRadius == nil {
				t.Fatal("prepared coverage graph persisted no grid radius")
			}
			parsed.Graph, parsed.GraphRadius = nil, 0
		}
		var old bytes.Buffer
		if err := snap.Write(&old, parsed); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadDiversifier(bytes.NewReader(old.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if loaded.Indexed() != tc.want {
			t.Fatalf("%s: loaded onto %v, want %v", tc.name, loaded.Indexed(), tc.want)
		}
		if tc.name == "grid" && loaded.engine != nil {
			t.Fatalf("grid: graph-less snapshot rehydrated %T", loaded.engine)
		}
		for _, r := range []float64{0.05, 0.12} {
			want, err := fresh.Select(r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Select(r)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(want.IDs(), got.IDs()) {
				t.Fatalf("%s r=%g: selection differs from a fresh %v select", tc.name, r, tc.want)
			}
		}
	}
}

// TestSnapshotCorruptRejected: corruption must surface as a load error,
// never as a silently wrong diversifier.
func TestSnapshotCorruptRejected(t *testing.T) {
	pts := snapshotTestPoints(150, 2, 37)
	d, err := New(pts, WithIndex(IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Prepare(0.1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := LoadDiversifier(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := LoadDiversifier(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), data...)
	bad[len(bad)-3] ^= 0xff // payload corruption -> section CRC mismatch
	if _, err := LoadDiversifier(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted payload accepted")
	}
}

// TestSnapshotWithoutArtifacts: a snapshot written before any Select or
// Prepare carries only the dataset and loads like New.
func TestSnapshotWithoutArtifacts(t *testing.T) {
	pts := snapshotTestPoints(250, 3, 41)
	d, err := New(pts, WithIndex(IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDiversifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.engine != nil {
		t.Fatal("artifact-free snapshot rehydrated an engine from nothing")
	}
	want, err := d.Select(0.09)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Select(0.09)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(want.SortedIDs(), got.SortedIDs()) {
		t.Fatal("selections diverge")
	}
}

// TestSnapshotFloat32RoundTrip: a Float32 diversifier must persist its
// float32 coordinates (and, for the embedding metrics, the squared-norm
// cache) and load back at the same precision with bit-identical
// selections — including the flat-joined coverage graph, which has no
// grid to persist and must rehydrate from the CSR alone.
func TestSnapshotFloat32RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dim    int
		metric Metric
		r      float64
		opts   []Option
	}{
		// Cosine auto-selects the coverage graph and flat-joins it.
		{"cosine-flatjoin", 16, Cosine(), 0.15, nil},
		// Low-dim Euclidean grid-joins; the grid must carry the mirror.
		{"euclidean-grid", 3, Euclidean(), 0.2, []Option{WithIndex(IndexCoverageGraph)}},
		// High-dim Euclidean exceeds GraphFlatJoinDim and flat-joins.
		{"euclidean-flatjoin", 20, Euclidean(), 1.2, []Option{WithIndex(IndexCoverageGraph)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts := snapshotTestPoints(250, tc.dim, 31)
			opts := append([]Option{WithMetric(tc.metric), WithPrecision(PrecisionFloat32)}, tc.opts...)
			d, err := New(pts, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := d.Select(tc.r)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := d.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadDiversifier(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if p := loaded.flat.Precision(); p != PrecisionFloat32 {
				t.Fatalf("loaded precision %v, want float32", p)
			}
			// The padded float32 mirror must be bit-identical: the fast
			// path reads it, so drift here would change filter outcomes.
			if !slices.Equal(loaded.flat.Coords32(), d.flat.Coords32()) {
				t.Fatal("float32 mirror drifted through the snapshot")
			}
			if loaded.engine == nil {
				t.Fatal("no rehydrated engine")
			}
			if g, ok := loaded.engine.(*core.ParallelGraphEngine); ok {
				if g.Radius() != tc.r {
					t.Fatalf("rehydrated radius %g, want %g", g.Radius(), tc.r)
				}
				fresh := d.engine.(*core.ParallelGraphEngine)
				if g.GridJoined() != fresh.GridJoined() {
					t.Fatalf("substrate drifted: grid-joined %v→%v", fresh.GridJoined(), g.GridJoined())
				}
			}
			got, err := loaded.Select(tc.r)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(want.SortedIDs(), got.SortedIDs()) {
				t.Fatalf("loaded selection differs from fresh (%d vs %d objects)", got.Size(), want.Size())
			}
			// A float64 diversifier over the pre-rounded points must agree:
			// the snapshot must not change which precision trade-off was
			// taken (rounding happens once, at the original ingest).
			rounded := make([]Point, len(pts))
			for i, p := range pts {
				rp := make(Point, len(p))
				for j, v := range p {
					rp[j] = float64(float32(v))
				}
				rounded[i] = rp
			}
			d64, err := New(rounded, append([]Option{WithMetric(tc.metric)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			want64, err := d64.Select(tc.r)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(want64.SortedIDs(), got.SortedIDs()) {
				t.Fatal("float32 snapshot selection differs from the float64 reference over rounded points")
			}
		})
	}
}

// TestSnapshotFlatGraphWarmStart: a flat-joined graph prepared before
// writing must rehydrate straight into the engine cache — no re-join on
// the loaded side — including its component decomposition.
func TestSnapshotFlatGraphWarmStart(t *testing.T) {
	pts := snapshotTestPoints(300, 4, 37)
	const r = 0.4
	d, err := New(pts, WithMetric(Cosine()))
	if err != nil {
		t.Fatal(err)
	}
	if d.index != IndexCoverageGraph {
		t.Fatalf("cosine auto-selected %v, want coverage-graph", d.index)
	}
	if err := d.Prepare(r); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDiversifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := loaded.engine.(*core.ParallelGraphEngine)
	if !ok {
		t.Fatalf("rehydrated engine is %T", loaded.engine)
	}
	if g.GridJoined() {
		t.Fatal("rehydrated engine lost its flat-join substrate")
	}
	before := loaded.engine
	if _, err := loaded.Select(r); err != nil {
		t.Fatal(err)
	}
	if loaded.engine != before {
		t.Fatal("Select at the prepared radius rebuilt the engine")
	}
}

// TestSnapshotKeepsCoarseGrid: raising the ceiling from 0 to 0.5 keeps
// the grid bucketed at 0, whose unit cells still cover 0.5, so the
// snapshot must carry that bucketing radius rather than the graph's:
// re-bucketing at 0.5 changes the cell order, and with it every
// selection that walks ScanOrder. The loaded copy must match the writer
// on scan order, Basic-DisC, plain Zoom-In and local zoom-in, and
// re-save to the same bytes.
func TestSnapshotKeepsCoarseGrid(t *testing.T) {
	pts := snapshotTestPoints(300, 2, 53)
	d, err := New(pts, WithIndex(IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{0, 0.5} {
		if _, err := d.Select(r); err != nil {
			t.Fatal(err)
		}
	}
	g, ok := d.engine.(*core.ParallelGraphEngine)
	if !ok || g.Grid() == nil || g.Grid().Radius() != 0 || g.Radius() != 0.5 {
		t.Fatal("the raised ceiling did not keep the grid bucketed at 0")
	}
	// The workload must tell the two bucketing radii apart.
	fine, err := grid.Build(d.flat, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(fine.ScanOrder(), g.ScanOrder(new(core.Run))) {
		t.Fatal("grids bucketed at 0 and 0.5 scan in the same order")
	}

	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDiversifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lg, ok := loaded.engine.(*core.ParallelGraphEngine)
	if !ok {
		t.Fatalf("rehydrated engine is %T", loaded.engine)
	}
	if !slices.Equal(lg.ScanOrder(new(core.Run)), g.ScanOrder(new(core.Run))) {
		t.Fatal("loaded scan order differs from the writer's")
	}

	type answers struct{ basic, zoom, local, localGreedy []int }
	ask := func(d *Diversifier) answers {
		t.Helper()
		basic, err := d.Select(0.5, WithAlgorithm(AlgorithmBasic))
		if err != nil {
			t.Fatal(err)
		}
		e, err := d.engineForRadius(0.25, false)
		if err != nil {
			t.Fatal(err)
		}
		zoom, err := core.ZoomIn(e, basic.sol, 0.25, false, true)
		if err != nil {
			t.Fatal(err)
		}
		center := basic.IDs()[0]
		local, err := core.LocalZoomIn(e, basic.sol, center, 0.25, false)
		if err != nil {
			t.Fatal(err)
		}
		localGreedy, err := d.LocalZoomIn(basic, center, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		return answers{basic.IDs(), zoom.IDs, local.Final, localGreedy.Representatives}
	}
	want, got := ask(d), ask(loaded)
	for _, c := range []struct {
		name      string
		want, got []int
	}{
		{"Basic-DisC", want.basic, got.basic},
		{"plain Zoom-In", want.zoom, got.zoom},
		{"plain local zoom-in", want.local, got.local},
		{"LocalZoomIn", want.localGreedy, got.localGreedy},
	} {
		if !slices.Equal(c.want, c.got) {
			t.Fatalf("%s: loaded copy answers %v, writer %v", c.name, c.got, c.want)
		}
	}

	var again bytes.Buffer
	if err := loaded.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("re-saved snapshot differs from the original")
	}
}

// TestSnapshotBadGridRadiusRefused: a grid radius the graph could not
// have been joined on — NaN, negative, infinite, or too fine for its
// cells to cover the graph radius — fails the load with an error.
func TestSnapshotBadGridRadiusRefused(t *testing.T) {
	pts := snapshotTestPoints(300, 2, 59)
	d, err := New(pts, WithIndex(IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Prepare(0.1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// 0.001 doubles to cells of 1/32 at most under 300 points' cell cap,
	// too fine to cover 0.1.
	for _, bad := range []float64{math.NaN(), -0.1, math.Inf(1), 0.001} {
		s, err := snap.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if s.GridRadius == nil {
			t.Fatal("prepared coverage graph persisted no grid radius")
		}
		s.GridRadius = &bad
		var tampered bytes.Buffer
		if err := snap.Write(&tampered, s); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDiversifier(bytes.NewReader(tampered.Bytes())); err == nil {
			t.Fatalf("grid radius %g accepted for a graph joined at 0.1", bad)
		}
	}
}

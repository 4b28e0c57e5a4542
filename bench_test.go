package disc_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, each driving the corresponding experiment
// runner in internal/experiments. By default benchmarks run the reduced
// ("quick") sweeps so `go test -bench=.` completes in minutes; set
// DISC_BENCH_FULL=1 to run the paper-scale parameters (n=10000 etc.), or
// use cmd/discbench for full runs with printed tables.
//
// Additional micro-benchmarks cover the load-bearing primitives: M-tree
// construction, range queries and the selection algorithms.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/experiments"
	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/object"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	if os.Getenv("DISC_BENCH_FULL") == "" {
		cfg.Quick = true
		cfg.N = 1500
	}
	return cfg
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table 3(a)-(d): solution sizes per
// algorithm across the radius sweep on all four datasets.
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig6 regenerates Figure 6: the model comparison (DisC vs
// MaxSum, MaxMin, k-medoids, r-C) on clustered data.
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7(a)-(d): node accesses of Basic-DisC,
// Greedy-DisC (each ± pruning) and Greedy-C.
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8(a)-(d): node accesses of the pruned
// Greedy-DisC variants.
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Cardinality regenerates Figure 9(a)-(b): size and accesses
// vs dataset cardinality.
func BenchmarkFig9Cardinality(b *testing.B) { runExperiment(b, "fig9card") }

// BenchmarkFig9Dimensionality regenerates Figure 9(c)-(d): size and
// accesses vs dimensionality.
func BenchmarkFig9Dimensionality(b *testing.B) { runExperiment(b, "fig9dim") }

// BenchmarkFig10 regenerates Figure 10: node accesses on trees of varying
// fat-factor.
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11to13ZoomIn regenerates Figures 11-13: zoom-in size,
// accesses and Jaccard distance vs from-scratch recomputation.
func BenchmarkFig11to13ZoomIn(b *testing.B) { runExperiment(b, "zoomin") }

// BenchmarkFig14to16ZoomOut regenerates Figures 14-16: zoom-out size,
// accesses and Jaccard distance for all variants.
func BenchmarkFig14to16ZoomOut(b *testing.B) { runExperiment(b, "zoomout") }

// BenchmarkAblationCapacity regenerates the in-text node-capacity claim.
func BenchmarkAblationCapacity(b *testing.B) { runExperiment(b, "capacity") }

// BenchmarkAblationFastC regenerates the in-text Fast-C vs Greedy-C
// claims.
func BenchmarkAblationFastC(b *testing.B) { runExperiment(b, "fastc") }

// BenchmarkAblationBottomUp regenerates the in-text bottom-up range-query
// claim.
func BenchmarkAblationBottomUp(b *testing.B) { runExperiment(b, "bottomup") }

// BenchmarkAblationBuildInit regenerates the in-text build-time count
// initialisation claim.
func BenchmarkAblationBuildInit(b *testing.B) { runExperiment(b, "buildinit") }

// --- micro-benchmarks ---

func benchPoints(n int) []object.Point {
	ds, err := dataset.Clustered(n, 2, 0, 42)
	if err != nil {
		panic(err)
	}
	return ds.Points
}

// BenchmarkMTreeBuild measures index construction.
func BenchmarkMTreeBuild(b *testing.B) {
	pts := benchPoints(5000)
	cfg := mtree.Config{Capacity: 50, Metric: object.Euclidean{}, Policy: mtree.MinOverlap}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := mtree.Build(cfg, pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMTreeRangeQuery measures a single range query on a built tree.
func BenchmarkMTreeRangeQuery(b *testing.B) {
	pts := benchPoints(5000)
	cfg := mtree.Config{Capacity: 50, Metric: object.Euclidean{}, Policy: mtree.MinOverlap}
	tree, _, err := mtree.Build(cfg, pts)
	if err != nil {
		b.Fatal(err)
	}
	var acc int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.AppendRangeQueryAround(nil, i%len(pts), 0.05, &acc)
	}
}

// BenchmarkSelectGreedy measures a full Greedy-DisC selection through the
// public API (index construction excluded).
func BenchmarkSelectGreedy(b *testing.B) {
	d, err := disc.New(benchPoints(3000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Select(0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectBasic measures Basic-DisC through the public API.
func BenchmarkSelectBasic(b *testing.B) {
	d, err := disc.New(benchPoints(3000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Select(0.05, disc.WithAlgorithm(disc.AlgorithmBasic)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoomIn measures incremental zoom-in against the cost of the
// from-scratch run benchmarked above.
func BenchmarkZoomIn(b *testing.B) {
	d, err := disc.New(benchPoints(3000))
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.Select(0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ZoomIn(res, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoomOut measures incremental zoom-out (greedy variant (a)).
func BenchmarkZoomOut(b *testing.B) {
	d, err := disc.New(benchPoints(3000))
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.Select(0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ZoomOut(res, 0.1, disc.ZoomOutGreedyLargest); err != nil {
			b.Fatal(err)
		}
	}
}

// exploreBench builds the perfbench explore workload's shape on the
// coverage graph: 5,000 clustered 2-d points, a graph joined at 0.015
// and one selection at each of four radii up to it. It then resets the
// timer, so its callers time only their own loops.
func exploreBench(b *testing.B) (*disc.Diversifier, []float64, []*disc.Result) {
	b.Helper()
	ds, err := disc.ClusteredDataset(5000, 2, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := disc.New(ds.Points, disc.WithIndex(disc.IndexCoverageGraph))
	if err != nil {
		b.Fatal(err)
	}
	radii := []float64{0.008, 0.01, 0.012, 0.015}
	sels := make([]*disc.Result, len(radii))
	for i, r := range radii {
		if sels[i], err = d.Select(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	return d, radii, sels
}

// BenchmarkExploreSelect measures a select at each of exploreBench's
// radii in turn, every one served from the graph's rows: the cost
// BenchmarkZoomOutAboveCeiling's zoom-outs are measured against.
func BenchmarkExploreSelect(b *testing.B) {
	d, radii, _ := exploreBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := d.Select(radii[i%len(radii)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreZoomIn measures Greedy-Zoom-In to r/2 of each of
// exploreBench's selections in turn.
func BenchmarkExploreZoomIn(b *testing.B) {
	d, radii, sels := exploreBench(b)
	for i := 0; i < b.N; i++ {
		j := i % len(radii)
		if _, err := d.ZoomIn(sels[j], radii[j]/2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoomOutAboveCeiling measures Greedy-Zoom-Out (a) to 2r of
// each of exploreBench's selections in turn, where every range query
// lies above the graph's ceiling and runs the grid fallback.
func BenchmarkZoomOutAboveCeiling(b *testing.B) {
	d, radii, sels := exploreBench(b)
	for i := 0; i < b.N; i++ {
		j := i % len(radii)
		if _, err := d.ZoomOut(sels[j], 2*radii[j], disc.ZoomOutGreedyLargest); err != nil {
			b.Fatal(err)
		}
	}
}

// --- engine comparison on large synthetic clusters ---
//
// The paper-style comparison the coverage-graph work targets:
// the same pruned Greedy-DisC selection on 50k clustered points, per
// index backend. Index construction is excluded from the selection
// benchmarks (measured separately below), mirroring the paper's
// node-access experiments.

const (
	engineBenchN = 50_000
	engineBenchR = 0.0025
)

func benchGreedySelect(b *testing.B, e core.Engine) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GreedyDisC(e, engineBenchR, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true})
	}
}

// BenchmarkGreedyDisC_MTree is the single-threaded M-tree baseline.
func BenchmarkGreedyDisC_MTree(b *testing.B) {
	pts := benchPoints(engineBenchN)
	cfg := mtree.Config{Capacity: 50, Metric: object.Euclidean{}, Policy: mtree.MinOverlap}
	e, err := core.BuildTreeEngine(cfg, pts)
	if err != nil {
		b.Fatal(err)
	}
	benchGreedySelect(b, e)
}

// BenchmarkGreedyDisC_ParallelGraph runs the same selection on the
// materialised coverage graph: every neighbourhood query is an array
// lookup and the initial counts are free.
func BenchmarkGreedyDisC_ParallelGraph(b *testing.B) {
	pts := benchPoints(engineBenchN)
	e, err := core.BuildParallelGraphEngine(pts, object.Euclidean{}, engineBenchR, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchGreedySelect(b, e)
}

// BenchmarkParallelGraphBuild measures the coverage-graph construction
// itself (grid bucketing + the cell-pair ε-join across all cores).
func BenchmarkParallelGraphBuild(b *testing.B) {
	pts := benchPoints(engineBenchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildParallelGraphEngine(pts, object.Euclidean{}, engineBenchR, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- steady-state neighbour queries (the zero-allocation path) ---
//
// One reusable destination buffer, one query per iteration: the loop the
// DisC heuristics spend their lives in. With the buffer at its
// high-water capacity every engine must report 0 allocs/op.

func benchNeighborsAppend(b *testing.B, e core.Engine, r float64) {
	b.Helper()
	buf := make([]object.Neighbor, 0, 4096)
	n := e.Size()
	var run core.Run
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = e.NeighborsAppend(buf[:0], i%n, r, &run)
	}
}

// BenchmarkNeighborsAppend_MTree measures the reusable-buffer range query
// on the M-tree.
func BenchmarkNeighborsAppend_MTree(b *testing.B) {
	pts := benchPoints(5000)
	cfg := mtree.Config{Capacity: 50, Metric: object.Euclidean{}, Policy: mtree.MinOverlap}
	e, err := core.BuildTreeEngine(cfg, pts)
	if err != nil {
		b.Fatal(err)
	}
	benchNeighborsAppend(b, e, 0.05)
}

// BenchmarkNeighborsAppend_Graph answers from the materialised coverage
// graph (O(degree) adjacency copy).
func BenchmarkNeighborsAppend_Graph(b *testing.B) {
	pts := benchPoints(5000)
	e, err := core.BuildParallelGraphEngine(pts, object.Euclidean{}, 0.05, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchNeighborsAppend(b, e, 0.05)
}

// BenchmarkNeighborsAppend_Flat scans the contiguous flat storage with
// the compiled kernel.
func BenchmarkNeighborsAppend_Flat(b *testing.B) {
	pts := benchPoints(5000)
	e, err := core.NewFlatEngine(pts, object.Euclidean{})
	if err != nil {
		b.Fatal(err)
	}
	benchNeighborsAppend(b, e, 0.05)
}

// BenchmarkFlatEngineSelect contrasts the linear-scan engine.
func BenchmarkFlatEngineSelect(b *testing.B) {
	pts := benchPoints(3000)
	e, err := core.NewFlatEngine(pts, object.Euclidean{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.GreedyDisC(e, 0.05, core.GreedyOptions{Update: core.UpdateGrey})
	}
}

// --- served Hamming traffic: M-tree vs coverage graph ---
//
// Served datasets run on the coverage graph, whose Hamming substrate
// is the batched flat all-pairs join. These benchmarks price one
// served greedy select on n=5000 uniform categorical codes (4
// categories per coordinate) at d ∈ {6, 8} and r ∈ {1, 2}: on the
// M-tree (built once at dataset creation, so only the select is timed)
// and on the coverage graph, cold (the graph was built for another
// radius, so the select pays the join) and warm (a repeat select at
// the cached radius). d=8 is above GraphFlatJoinDim, where New already
// defaults to the coverage graph; d=6 is Hamming traffic that moves
// off the M-tree.

func hammingCodes(n, dim, categories int, seed uint64) []disc.Point {
	rng := rand.New(rand.NewPCG(seed, seed))
	pts := make([]disc.Point, n)
	for i := range pts {
		p := make(disc.Point, dim)
		for j := range p {
			p[j] = float64(rng.IntN(categories))
		}
		pts[i] = p
	}
	return pts
}

func BenchmarkServedSelectHamming(b *testing.B) {
	hamming := disc.WithMetric(disc.Hamming())
	mtree := disc.WithIndex(disc.IndexMTree)
	graph := disc.WithIndex(disc.IndexCoverageGraph)
	for _, dim := range []int{6, 8} {
		pts := hammingCodes(5000, dim, 4, 7)
		for _, r := range []float64{1, 2} {
			name := fmt.Sprintf("d=%d/r=%g", dim, r)
			b.Run("mtree/"+name, func(b *testing.B) {
				benchServedSelect(b, pts, r, false, []disc.Option{hamming, mtree})
			})
			b.Run("graph-cold/"+name, func(b *testing.B) {
				benchServedSelect(b, pts, r, true, []disc.Option{hamming, graph})
			})
			b.Run("graph-warm/"+name, func(b *testing.B) {
				benchServedSelect(b, pts, r, false, []disc.Option{hamming, graph})
			})
		}
	}
}

// benchServedSelect times Select(r) on a diversifier built with
// opts. A cold run builds a fresh diversifier (untimed) before every
// select; a warm run selects once before the timer starts and reuses
// the diversifier. Index accesses per select are reported alongside.
func benchServedSelect(b *testing.B, pts []disc.Point, r float64, cold bool, opts []disc.Option) {
	b.Helper()
	d, err := disc.New(pts, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if !cold {
		if _, err := d.Select(r); err != nil {
			b.Fatal(err)
		}
	}
	var accesses int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			if d, err = disc.New(pts, opts...); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		res, err := d.Select(r)
		if err != nil {
			b.Fatal(err)
		}
		accesses += res.Accesses()
	}
	b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
}

// --- served selects from sparse to dense: M-tree vs coverage graph ---
//
// The coverage graph's memory grows with the edge count, the M-tree's
// does not. This sweep prices one served greedy select on uniform 2-d
// Euclidean points at radii chosen for an average degree of 8 to 2048
// (r = sqrt(deg/(nπ)), ignoring the border), plus r = 1.5, where every
// pair is an edge: on the M-tree, the earlier served path (built at
// dataset creation, so only the select is timed), on the coverage graph
// as served (the select pays the join; a graph past core.AdjacencyBudget is refused and the
// select runs on the M-tree), and, while the graph stays under 4M
// entries, on an uncapped graph built directly. heap-MB is the live heap
// the engine holds after the select. n=5000; DISC_BENCH_FULL=1 adds
// n=50000 without the all-pairs radius.

func BenchmarkServedSelectDensity(b *testing.B) {
	sizes := []int{5000}
	if os.Getenv("DISC_BENCH_FULL") != "" {
		sizes = append(sizes, 50000)
	}
	for _, n := range sizes {
		ds, err := disc.UniformDataset(n, 2, 11)
		if err != nil {
			b.Fatal(err)
		}
		pts := ds.Points
		flat, err := object.Flatten(pts, object.Euclidean{})
		if err != nil {
			b.Fatal(err)
		}
		degrees := []float64{8, 32, 128, 512, 2048}
		if n <= 5000 {
			degrees = append(degrees, math.Inf(1))
		}
		for _, deg := range degrees {
			r, label := 1.5, "all"
			if !math.IsInf(deg, 1) {
				r, label = math.Sqrt(deg/(float64(n)*math.Pi)), fmt.Sprint(deg)
			}
			name := fmt.Sprintf("n=%d/deg=%s", n, label)
			b.Run("mtree/"+name, func(b *testing.B) {
				base := liveHeapMB(nil)
				d, err := disc.New(pts)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.Select(r); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(liveHeapMB(d)-base, "heap-MB")
			})
			b.Run("graph/"+name, func(b *testing.B) {
				base := liveHeapMB(nil)
				var d *disc.Diversifier
				for i := 0; i < b.N; i++ {
					var err error
					if d, err = disc.New(pts, disc.WithIndex(disc.IndexCoverageGraph)); err != nil {
						b.Fatal(err)
					}
					if _, err := d.Select(r); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(liveHeapMB(d)-base, "heap-MB")
			})
			if float64(n)*deg > 4e6 {
				continue
			}
			b.Run("graph-uncapped/"+name, func(b *testing.B) {
				base := liveHeapMB(nil)
				var g *core.ParallelGraphEngine
				for i := 0; i < b.N; i++ {
					var err error
					if g, err = core.BuildParallelGraphEngineOn(flat, r, 0); err != nil {
						b.Fatal(err)
					}
					core.GreedyDisCComponents(g, r, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true})
				}
				b.StopTimer()
				b.ReportMetric(liveHeapMB(g)-base, "heap-MB")
			})
		}
	}
}

// liveHeapMB collects garbage and returns the live heap in MiB, keeping
// keep reachable until then.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Package disc implements DisC diversity: result diversification based on
// dissimilarity and coverage, as introduced by Drosou and Pitoura (PVLDB
// 2013, "DisC Diversity: Result Diversification based on Dissimilarity and
// Coverage").
//
// Given a query result P and a radius r, an r-DisC diverse subset S ⊆ P
// satisfies two conditions: every object of P has a representative in S at
// distance at most r (coverage), and no two representatives lie within r
// of each other (dissimilarity). Unlike top-k diversification models, the
// size of S is not an input: the radius alone expresses the desired degree
// of diversification, and the whole result set is always represented —
// including its outliers.
//
// # Quick start
//
//	points := []disc.Point{{0.1, 0.2}, {0.15, 0.22}, {0.8, 0.9}}
//	d, err := disc.New(points)                  // Euclidean, M-tree indexed
//	if err != nil { ... }
//	res, err := d.Select(0.1)                   // r-DisC diverse subset
//	if err != nil { ... }
//	for _, id := range res.IDs() { ... }        // representative objects
//
// # Adaptive diversification (zooming)
//
// Because r controls the degree of diversification, a result can be
// adapted incrementally instead of recomputed: ZoomIn (smaller r, more and
// closer representatives, keeping all current ones) and ZoomOut (larger r,
// fewer representatives, preferring current ones). Both mirror the paper's
// incremental algorithms and stay intentionally close to the previously
// seen result. Local variants re-diversify only the neighbourhood of one
// representative.
//
//	finer, err := d.ZoomIn(res, 0.05)           // res.IDs() ⊆ finer.IDs()
//	coarser, err := d.ZoomOut(res, 0.2, disc.ZoomOutGreedyLargest)
//	local, err := d.LocalZoomIn(res, res.IDs()[0], 0.02)
//
// # Selection heuristics
//
// Finding a minimum r-DisC diverse subset is NP-hard (it is the minimum
// independent dominating set problem on the r-neighbourhood graph), so
// Select offers the paper's heuristics via WithAlgorithm: AlgorithmBasic
// (fast single pass), AlgorithmGreedy and its variants (smaller subsets),
// and AlgorithmCoverage / AlgorithmFastCoverage for coverage-only (r-C)
// subsets that drop the dissimilarity requirement.
//
// # Parallel (component-decomposed) selection
//
// A dominating set of a disconnected graph is the union of dominating
// sets of its connected components, and at DisC-typical radii the
// r-coverage graph shatters into thousands of components. Select with
// WithSelectMode(SelectComponents) exploits that: components are
// labeled in O(n + edges) (cached per radius on the coverage-graph
// engine and persisted in snapshots, so warm starts skip the pass) and
// the Greedy-DisC family then runs per component — singletons
// short-circuit, two-member components resolve in O(1), larger ones run
// the pruned greedy against component-sized heaps and white sets — on a
// worker pool sized by WithSelectParallelism. The selected subset is
// identical to SelectGlobal's, and the full output (selection order
// included) is bit-identical for every worker count; components are
// processed and emitted in ascending minimum-member-id order. On the
// canonical 50k clustered workload the coverage-graph select drops
// about 4x on a single core — the fast paths and cache-local heaps pay
// even before the worker pool can scale with cores — while a graph
// that is one giant component degrades gracefully to the global
// algorithm plus the labeling pass. AlgorithmLazyWhite falls back to
// the global path (its 1.5r refresh queries cannot be served from the
// materialised r-adjacency); Basic-DisC and the coverage-only
// algorithms do not support component mode.
//
// # Index backends
//
// Every selection heuristic spends its time asking an index "who is
// within r?", so the choice of backend (WithIndex) is the main
// performance lever. All backends produce identical greedy selections;
// they differ only in build cost, query cost and metric support:
//
//   - IndexMTree (default): the paper's M-tree. Works with any metric,
//     reports node accesses (the paper's cost measure), supports
//     bottom-up queries and build-time neighbourhood counting.
//   - IndexLinearScan: exact scan with zero build cost. Best for small
//     inputs and the correctness reference everything is validated
//     against.
//   - IndexGrid: a uniform-grid spatial hash bucketed at the selection
//     radius (cell side = r), answering a query by scanning only the ±1
//     ring of cells. Bucketing is one O(n) counting sort — the cheapest
//     build of any backend — so it shines when the radius changes often
//     or datasets are short-lived; larger radii stay exact by scanning
//     more rings until a coarser re-bucket. Restricted to metrics whose
//     distance dominates every per-coordinate difference (Euclidean,
//     Manhattan, Chebyshev — not Hamming), and degrades on sparse data
//     at large radii, where cells hold many non-neighbours.
//   - IndexCoverageGraph: materialises the entire r-coverage graph once
//     per selection radius, then answers every neighbourhood query in
//     O(degree) and hands Greedy-DisC its initial counts for free. The
//     fastest choice when one radius is queried repeatedly — exactly
//     the access pattern of the DisC heuristics. For grid-supported
//     metrics the graph is built by a cell-pair ε-join over the grid
//     (each candidate pair evaluated once, both edge directions
//     emitted, no tree traversal — O(n + candidate pairs)), sharded
//     over a worker pool (WithParallelism, default all cores); other
//     metrics, and any metric above seven dimensions, use a batched
//     flat all-pairs join. The adjacency is stored as CSR (one offsets
//     array plus one packed, exactly sized neighbour array), so
//     steady-state memory equals the edge count. Radii other than the
//     build radius remain correct: smaller ones filter the adjacency
//     lists (a selection at a smaller radius filters the cached graph
//     instead of joining again), larger ones fall back to grid or flat
//     scans underneath. The edge count is capped: a radius whose graph
//     would hold more than 128 adjacency entries per object (and more
//     than 2^20 in all) is not materialised. The join stops at the cap,
//     and that radius and every larger one are served by the M-tree
//     (metrics with the triangle inequality) or the flat scan (the
//     rest), whose memory does not grow with the edges. Component-mode
//     selections there run the global pass, which returns the same
//     subset.
//
// The names of two retired backends still resolve: IndexVPTree and
// IndexRTree (and the names "vptree" and "rtree" in IndexByName and in
// snapshot metadata) are aliases of IndexMTree, which returns the same
// greedy selections.
//
// Rule of thumb: pick the coverage graph when you will run whole
// selections (thousands of queries) at each radius and can afford the
// one-off join; pick the grid when builds must be instant — frequent
// re-radiusing, streaming refreshes, zooming exploration — or memory
// for a materialised graph is tight; pick the M-tree when the workload
// mixes radii and arbitrary-point queries or the paper's access counts
// matter; dense data (radius well above the point spacing) favours the
// graph, sparse data and tiny radii favour grid queries on demand.
//
// # The zero-allocation query path
//
// Internally, every distance in the query path goes through a kernel
// compiled once per (metric, dimensionality) pair — dimension-
// specialised, and for Euclidean comparing squared distances against r²
// so that misses never pay a square root. The static backends (linear
// scan, grid, coverage graph) additionally store coordinates
// in one contiguous row-major array; the M-tree keeps its dynamic
// per-node layout and gains the kernels only. Every neighbourhood query
// also has a buffer-reusing form (NeighborsAppend-style) that extends a
// caller-owned slice, and the selection/zoom algorithms thread one
// scratch buffer per query role through their loops: in steady state a
// selection performs zero allocations per query.
//
// Buffer-reuse contract: a slice returned by an appending query aliases
// the destination buffer, so its contents are invalidated by the next
// appending call that reuses the same buffer (the algorithms' internal
// scratch is reused on every iteration). Callers that retain a
// neighbourhood across queries must copy it out. The allocating forms
// (Neighbors, NeighborsWhite) return fresh slices and are unaffected.
//
// # High-dimensional embeddings
//
// At embedding widths (d = 64…768) the kernels dominate everything
// else, and the package grows a fast path for them. WithPrecision
// (PrecisionFloat32) stores coordinates as float32 in cache-aligned
// rows, halving memory traffic; arithmetic stays float64 throughout,
// so selections equal the float64 ones over the rounded coordinates,
// bitwise. Cosine and InnerProduct serve learned-embedding
// dissimilarity with per-row norms folded once at ingest (both
// violate the triangle inequality, so they are served by linear scan
// and the flat all-pairs join, not the metric trees). Range scans run
// batched: multi-accumulator loops pre-filter candidate rows against
// a threshold widened by a proven rounding-error bound, and every
// survivor is re-checked with the unchanged reference kernel — the
// fast path can never change a selection, only the time it takes.
// The coverage-graph engine picks the cache-blocked flat all-pairs
// join over the grid ε-join from d = 8 up (the measured crossover),
// and BENCH_PR7.json records the gated speedups on the 50k
// 128-dimensional workload. Generate matching synthetic data with
// discgen -dist sphere -dim 128 (clustered Gaussian caps on the unit
// sphere, the stand-in for L2-normalised model embeddings).
//
// # Snapshots and warm starts
//
// A Diversifier can be persisted to the .discsnap binary format and
// restored without rebuilding its indexes: WriteSnapshot serialises the
// dataset (metric plus row-major coordinates) together with whatever
// per-radius artifacts the current backend holds — the grid occupancy
// for IndexGrid; the occupancy, the coverage-graph CSR and (when
// derived) its connected-component decomposition for IndexCoverageGraph
// — and LoadDiversifier rehydrates them straight into the lazy-engine
// machinery, so the first Select at the persisted radius starts from
// the loaded graph instead of re-running the ε-join, and component-mode
// selections skip the labeling pass too (the loaded labels are
// revalidated against the adjacency before they are trusted).
// Prepare builds those artifacts eagerly when no selection has run yet.
// The format is sectioned, versioned and CRC-32C-checksummed: readers
// reject other format versions but skip unknown section kinds, so new
// sections can be added compatibly; corrupt files (truncation, bit
// flips, inconsistent layouts) fail at load rather than answering
// queries wrongly. Decoding aliases the large arrays out of the file
// buffer where alignment permits, which is what makes a warm load of
// the 50k-point reference workload ~5× faster than the cold grid
// ε-join on a single core (see BENCH_PR4.json; parallel cold builds
// narrow the gap on multi-core machines). Backends without
// radius-dependent artifacts snapshot the dataset alone and rebuild
// deterministically on load. The discserve command exposes the same
// round trip over HTTP (-snapshot warm start, POST
// /v1/datasets/{name}/snapshot to save), and discgen emits .discsnap
// files directly.
//
// # Live updates
//
// Updater maintains an r-DisC diverse selection under live inserts and
// deletes on the same grid/CSR substrate, with the connected component
// as the unit of invalidation: Insert splices the new point into the
// grid occupancy and CSR adjacency and dirties the component it
// touches (or the few it merges); Delete re-partitions its component
// (a removal can split it) and dirties each part; Flush repairs
// exactly the dirty components and atomically publishes the converged
// selection. Reads (Selection, Size, IsRepresentative) are lock-free
// and bounded-stale: they answer from the last published selection —
// always a consistent DisC-diverse subset of some recent state, never
// a half-repaired one — while mutations and Flush serialise on an
// internal lock, so any number of readers can run beside the writers.
// After Flush the selection is property-tested to be identical to
// Select(r, WithSelectMode(SelectComponents)) run from scratch over
// the live points: incremental maintenance is an optimisation, never a
// different answer. Incremental repair requires a grid-servable metric
// (Euclidean, Manhattan, Chebyshev) and runs on the coverage-graph
// substrate; requesting any other index is an error. On the 50k
// clustered reference workload the Updater sustains ~1,205 updates/sec
// on a single core with per-operation convergence (repair p50 0.0075
// ms, p99 4.8 ms — BENCH_PR6.json, guarded in CI). Stream wraps an
// Updater with per-operation convergence for grid-servable metrics
// and falls back to an arrival-order M-tree maintainer otherwise;
// Updater.WriteSnapshot compacts tombstones into a standard .discsnap
// (refusing while repairs are pending), and discserve exposes the
// whole lifecycle under /v1/live. docs/ARCHITECTURE.md walks the
// update/repair machinery in depth.
//
// # Crash-safe live updates
//
// OpenUpdater pairs the Updater with a snapshot file and an
// append-only write-ahead log: every Insert/Delete is checksummed and
// appended to the log before it is acknowledged (fsync policy via
// WithFsync — FsyncAlways means acknowledged operations survive even
// a power cut; FsyncInterval bounds the loss window; FsyncNone defers
// to the kernel), Checkpoint compacts the live state into a fresh
// crash-atomic snapshot and truncates the log, and reopening with
// OpenUpdater replays snapshot plus log to exactly the acknowledged
// state. Recovery truncates a torn tail (an append interrupted by the
// crash — necessarily unacknowledged under FsyncAlways) but refuses
// interior corruption loudly rather than silently dropping
// acknowledged updates; any append or sync failure poisons the log so
// later mutations fail fast instead of acknowledging into an unknown
// state. The property suite behind the guarantee cuts the log at
// every byte boundary under fault injection and asserts the recovered
// selection is bit-identical to a from-scratch component-mode Select
// over the surviving operation prefix (make crash-props, in CI under
// the race detector). DescribeDurable identifies an existing log
// (epoch, radius, metric) without replaying it, which is how discserve
// -live rediscovers its maintainers at boot. docs/DURABILITY.md is
// the normative wire format and the per-policy guarantee table.
//
// # Observability
//
// The pipeline is instrumented end to end through internal/telemetry,
// a zero-dependency metrics core whose histogram Observe is three
// atomic adds — lock-free and allocation-free, so the standing
// 0 alloc/op invariants on steady-state query and repair paths hold
// with telemetry enabled (AllocsPerRun tests pin both). Stage timers
// cover the grid build, the ε-join, component labeling, global and
// component-mode selection, live insert/delete/repair, WAL
// append/fsync/rotate/replay and snapshot save/load; discserve adds
// per-route request counters, latency histograms and an inflight
// gauge, and serves the whole registry at GET /metrics in the
// Prometheus text exposition format. The server logs through log/slog
// with per-request ids (-log-format, -log-level), distinguishes
// liveness (/healthz) from readiness (/readyz — 503 until boot-time
// WAL replay converges), and can expose net/http/pprof on a private
// listener (-pprof-addr). cmd/discload measures the served SLOs: it
// drives a weighted traffic mix against a spawned discserve and writes
// per-endpoint throughput and p50/p99 plus server-side counter deltas
// into BENCH_SERVE.json, which CI gates via cmd/benchguard.
// docs/OBSERVABILITY.md is the metric catalogue and methodology
// reference.
//
// The subpackages under internal implement the substrates: the M-tree
// and the uniform grid, the algorithm engine (including the
// parallel coverage-graph engine), dataset generators, baseline
// diversifiers (MaxMin, MaxSum, k-medoids) and the full experiment
// harness that regenerates every table and figure of the paper (see
// DESIGN.md and EXPERIMENTS.md; `discbench -exp engines` compares the
// backends head to head, and `discbench -exp perf -format=json` emits a
// machine-readable performance suite).
//
// # Development
//
// The Makefile carries the shared entry points. CI runs `make build`,
// `make test` (race detector on), `make lint` (go vet and the gofmt
// gate), `make kernel-props` (the kernel bit-identity property suites
// under both GOAMD64=v1 and v3), `make crash-props` (the WAL and
// fault-injection durability suites under the race detector), `make
// doclint` (markdown cross-references must resolve) and `make
// bench-guard` (the regression gate diffing fresh measurements of
// every benchmark suite against its checked-in BENCH_*.json baseline)
// on every push. Every suite writes one row schema whose rows carry
// their own gating rules; the README's "Benchmarks" section describes
// it and the gated rows. All checked-in baselines were measured on
// this repo's single-CPU dev container; wall-clock comparisons only
// hold on comparable hardware, so raise BENCH_TOLERANCE on slower
// runners. `make bench` is the manual counterpart: a one-iteration smoke pass over
// every benchmark, then a refresh of the BENCH_PR5.json,
// BENCH_PR6.json, BENCH_PR7.json and BENCH_SERVE.json baselines (the
// last via `make bench-serve`) — it rewrites those
// checked-in files, so run it (and commit the result) only for
// deliberate perf shifts measured on the baseline hardware, never in
// CI, where it would turn the bench-guard diff into a
// self-comparison.
package disc

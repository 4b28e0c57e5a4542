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
// A Result is its ids in pick order, its radius, its algorithm and its
// access count; it keeps nothing per object. Zooms derive what they
// need from the ids: ZoomIn finds the objects the previous answer still
// covers at the new radius with one uncharged pass over its ids (the
// paper's post-processing step), and ZoomOut reads only the ids and the
// radius. Result.DistanceToRepresentative computes an exact distance
// from the ids on each call.
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
// # Greedy selection on the coverage graph
//
// Select runs the Greedy-DisC family on whichever engine serves the
// radius. On the coverage graph (IndexCoverageGraph below the adjacency
// budget) it is one sequential pruned greedy over the graph's rows (or
// a cached row-prefix view of them); on every other engine it is the
// paper's global run over range queries. Both pop (count desc, id asc)
// from the same bucket queue with deferred invalidation, the structure
// every greedy run in the module keeps the paper's list L′ in. Both
// select the same ids in the same order. AlgorithmLazyWhite, whose 1.5r refresh queries the
// r-adjacency cannot answer, runs the global path on every engine.
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
//   - IndexCoverageGraph: materialises the entire r-coverage graph once
//     per selection radius, then answers every neighbourhood query in
//     O(degree) and hands Greedy-DisC its initial counts for free. The
//     fastest choice when one radius is queried repeatedly — exactly
//     the access pattern of the DisC heuristics. For grid-supported
//     metrics the graph is built by a cell-pair ε-join over a uniform
//     grid of cell side r
//     (each candidate pair evaluated once, both edge directions
//     emitted, no tree traversal — O(n + candidate pairs)), sharded
//     over a worker pool (WithParallelism, default all cores); other
//     metrics, and any metric above seven dimensions, use a batched
//     flat all-pairs join. The adjacency is stored as CSR (one offsets
//     array plus one packed, exactly sized neighbour array), so
//     steady-state memory equals the edge count. The graph is kept at
//     its ceiling, the largest selection radius so far, with every row
//     sorted by distance: any smaller radius is served as row prefixes
//     of the same graph, with no join, and larger radii fall back to
//     grid or flat scans underneath until a selection raises the
//     ceiling. The edge count is capped: a radius whose graph
//     would hold more than 128 adjacency entries per object (and more
//     than 2^20 in all) is not materialised. The join stops at the cap,
//     and that radius and every larger one are served by the M-tree
//     (metrics with the triangle inequality) or the flat scan (the
//     rest), whose memory does not grow with the edges, and greedy
//     selections there run the global pass, which returns the same
//     subset.
//
// The names of three retired backends still resolve in IndexByName and
// in snapshot metadata: "vptree" and "rtree" name IndexMTree, and
// "grid" names IndexCoverageGraph, whose Lp builds run on the same
// uniform grid. Each returns the same greedy selections as the backend
// it names.
//
// Rule of thumb: pick the coverage graph when you will run whole
// selections (thousands of queries) at each radius and can afford the
// one-off join; pick the M-tree when the workload mixes radii and
// arbitrary-point queries, memory for a materialised graph is tight,
// or the paper's access counts matter.
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
// of the engines under the Diversifier extends a caller-owned slice
// (NeighborsAppend-style), and the selection/zoom algorithms thread one
// scratch buffer per query role through their loops: in steady state a
// selection performs zero allocations per query.
//
// Buffer-reuse contract: a slice returned by an appending query aliases
// the destination buffer, so its contents are invalidated by the next
// appending call that reuses the same buffer (the algorithms' internal
// scratch is reused on every iteration). Callers that retain a
// neighbourhood across queries must copy it out, or query into a nil
// buffer.
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
// per-radius artifacts the current backend holds — for
// IndexCoverageGraph the coverage-graph CSR and the radius its grid was
// bucketed at, which the load re-buckets in O(n) — plus the labels of a
// diversifier built by
// NewFromDataset, and LoadDiversifier rehydrates them straight into the
// lazy-engine machinery, so the first Select at the persisted radius
// starts from the loaded graph instead of re-running the ε-join.
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
// round trip over HTTP (with -data-dir DIR, POST
// /v1/datasets/{name}/snapshot saves DIR/<name>/static.discsnap and a
// restart restores it), and discgen emits .discsnap files directly.
//
// # Live updates
//
// Updater maintains an r-DisC diverse selection under live inserts and
// deletes on the same CSR substrate, under every metric: Insert splices
// the new point into the CSR adjacency (finding its neighbours through
// the mutable grid for Euclidean, Manhattan and Chebyshev, by a scan
// of the live points otherwise) and queues it and its neighbours;
// Delete unsplices the point and queues its former neighbours; Flush
// replays the greedy from the queued objects, against the time every
// object left the white set in the last run, until the replay agrees
// with that record, and atomically publishes the converged selection.
// No component decomposition is maintained. Reads (Selection, Size,
// IsRepresentative) are lock-free and bounded-stale: they answer from
// the last published selection — always a consistent DisC-diverse
// subset of some recent state, never a half-repaired one — while
// mutations and Flush serialise on an internal lock, so any number of
// readers can run beside the writers. After Flush the selection is
// property-tested to be identical to a coverage-graph Select(r) run
// from scratch over the live points: incremental maintenance is an
// optimisation, never a different answer. Incremental repair runs on the coverage-graph
// substrate; requesting any other index is an error. On the 50k
// clustered reference workload the Updater sustains ~1,205 updates/sec
// on a single core with per-operation convergence (repair p50 0.0075
// ms, p99 4.8 ms — BENCH_PR6.json, guarded in CI). Stream wraps an
// Updater with per-operation convergence;
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
// selection is bit-identical to a from-scratch coverage-graph Select
// over the surviving operation prefix (make crash-props, in CI under
// the race detector). docs/DURABILITY.md is the normative wire format
// and the per-policy guarantee table.
//
// # Observability
//
// The pipeline is instrumented end to end through internal/telemetry,
// a zero-dependency metrics core whose histogram Observe is three
// atomic adds — lock-free and allocation-free, so the standing
// 0 alloc/op invariants on steady-state query and repair paths hold
// with telemetry enabled (AllocsPerRun tests pin both). Stage timers
// cover the grid build, the ε-join, the global and coverage-graph
// greedy runs, live insert/delete/repair, WAL
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

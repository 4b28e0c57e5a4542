# Shared entry points for CI (.github/workflows/ci.yml) and humans.
GO ?= go

# bench-guard workload: must match the identity of the checked-in
# BENCH_PR4/5/6.json baselines (cmd/benchguard refuses to compare
# differing identities).
BENCH_N ?= 50000
BENCH_R ?= 0.0025
# Allowed relative regression before bench-guard fails (0.25 = +25%).
# The baselines were measured on this repo's single-core dev container;
# wall-clock comparisons only hold on comparable hardware, so raise the
# tolerance (or re-measure the baselines) when running on slower or
# noisier runners.
BENCH_TOLERANCE ?= 0.25

# bench-serve workload: must match the checked-in BENCH_SERVE.json
# identity (n/dim/radius/seed/workers/duration/mix are all part of it).
SERVE_N ?= 2000
SERVE_WORKERS ?= 4
SERVE_DURATION ?= 10s

.PHONY: build test lint bench bench-guard bench-serve snapshot-bench doclint kernel-props crash-props chaos-props fuzz

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full suite with the race detector
test:
	$(GO) test -race ./...

## lint: go vet plus the gofmt gate CI enforces
lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

## bench: one-iteration smoke pass over every benchmark, then
## regenerate the checked-in BENCH_PR5.json (perf), BENCH_PR6.json
## (stream), BENCH_PR7.json (highdim) and BENCH_SERVE.json baselines
## from the canonical workloads. Every file is one suite in the bench
## row schema (README.md, "Benchmarks"); commit refreshed files only
## when the change is a deliberate perf shift measured on the baseline
## hardware.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -timeout 25m ./...
	$(GO) run ./cmd/discbench -exp perf -n $(BENCH_N) -r $(BENCH_R) -format=json > BENCH_PR5.json
	@cat BENCH_PR5.json
	$(GO) run ./cmd/discbench -exp stream -n $(BENCH_N) -r $(BENCH_R) -format=json > BENCH_PR6.json
	@cat BENCH_PR6.json
	$(GO) run ./cmd/discbench -exp highdim -n $(BENCH_N) -format=json > BENCH_PR7.json
	@cat BENCH_PR7.json
	$(MAKE) bench-serve

## bench-serve: regenerate the checked-in BENCH_SERVE.json baseline:
## build discserve and discload, spawn the server on a free port (with
## a throwaway WAL dir so the durable path is exercised) and drive the
## default read/write mix for SERVE_DURATION from SERVE_WORKERS
## clients. The post-run /metrics scrape lands in serve-metrics.prom
## (a CI artifact).
bench-serve:
	$(GO) build -o bin/discserve ./cmd/discserve
	$(GO) build -o bin/discload ./cmd/discload
	./bin/discload -spawn ./bin/discserve -n $(SERVE_N) -workers $(SERVE_WORKERS) \
		-duration $(SERVE_DURATION) -out BENCH_SERVE.json -metrics-out serve-metrics.prom
	@cat BENCH_SERVE.json

## bench-guard: vet, the zero-allocation regression tests (they carry
## a !race build tag, so `make test` never runs them), a compile-and-
## run pass over the selection, neighbour-query and zoom-out benchmarks
## with -benchmem, then a re-measure of every gated suite on the canonical
## workloads, diffed by cmd/benchguard against its checked-in baseline
## under BENCH_TOLERANCE (README.md, "Benchmarks", has the row schema
## and the gating rules). All outputs are CI artifacts.
bench-guard:
	$(GO) vet ./...
	$(GO) test ./internal/core ./internal/telemetry ./internal/server -run 'ZeroAlloc|Allocs' -v -count=1
	@$(GO) test -run '^$$' -bench='Select|Neighbors|GreedyDisC|ZoomOut' -benchtime=1x -benchmem -timeout 20m ./... > bench-guard.txt 2>&1; \
	status=$$?; cat bench-guard.txt; exit $$status
	$(GO) run ./cmd/discbench -exp perf -n $(BENCH_N) -r $(BENCH_R) -format=json > bench-current.json
	$(GO) run ./cmd/discbench -exp snapshot -n $(BENCH_N) -r $(BENCH_R) -format=json > snapshot-bench.json
	$(GO) run ./cmd/discbench -exp stream -n $(BENCH_N) -r $(BENCH_R) -format=json > stream-bench.json
	$(GO) run ./cmd/discbench -exp highdim -n $(BENCH_N) -format=json > highdim-bench.json
	$(GO) build -o bin/discserve ./cmd/discserve
	$(GO) build -o bin/discload ./cmd/discload
	./bin/discload -spawn ./bin/discserve -n $(SERVE_N) -workers $(SERVE_WORKERS) \
		-duration $(SERVE_DURATION) -out serve-current.json -metrics-out serve-metrics.prom
	$(GO) run ./cmd/benchguard -tolerance $(BENCH_TOLERANCE) \
		BENCH_PR5.json=bench-current.json BENCH_PR4.json=snapshot-bench.json \
		BENCH_PR6.json=stream-bench.json BENCH_PR7.json=highdim-bench.json \
		BENCH_SERVE.json=serve-current.json

## snapshot-bench: measure cold build vs snapshot save vs warm load on
## the canonical workload (the BENCH_PR4.json suite; README.md,
## "Benchmarks"). Refresh the baseline with
## `make snapshot-bench && cp snapshot-bench.json BENCH_PR4.json`.
snapshot-bench:
	$(GO) run ./cmd/discbench -exp snapshot -n $(BENCH_N) -r $(BENCH_R) -format=json > snapshot-bench.json
	@cat snapshot-bench.json

## kernel-props: the kernel/filter property suites (bit-identity of the
## batched and pre-filtered scans against the per-pair reference) under
## both ends of the amd64 microarchitecture spectrum: GOAMD64=v1 (plain
## SSE2 codegen) and GOAMD64=v3 (AVX/FMA-era codegen). The widened
## thresholds must hold whatever instruction selection the compiler
## picks; on non-amd64 hosts the variable is ignored and the suites
## simply run twice.
kernel-props:
	GOAMD64=v1 $(GO) test ./internal/object -run 'RawBatch|Filter|Within|Float32|Float64' -count=1
	GOAMD64=v3 $(GO) test ./internal/object -run 'RawBatch|Filter|Within|Float32|Float64' -count=1

## crash-props: the durability property suites under the race detector
## — the WAL's torn-tail/bit-flip/rotation invariants, the snapshot
## decoder's corruption classification (what quarantine keys on), the
## crash injector's shared byte budget (faultio.CrashFS, a vfs.FS like
## every fault injector), the every-byte crash-prefix recovery
## property (recovered selection bit-identical to a from-scratch
## coverage-graph Select over the surviving op prefix), the checkpoint
## crash-window states, the batch replay's equivalence to the
## per-mutation live path, and the server's crash-restart (Lp and
## non-Lp metrics) and load-shedding behaviour.
crash-props:
	$(GO) test -race -count=1 ./internal/wal ./internal/faultio ./internal/snap
	$(GO) test -race -count=1 -run 'TestCrashPrefixRecoveryEveryByte|TestCrashRecoveryInjectedWriter|TestCheckpointCrashStates|TestWALPoisoningOnSyncFailure|TestWALShortWriteTornTail|TestLiveReplayMatchesIncremental|TestLiveReplayRejectsDeadDelete' . ./internal/core
	$(GO) test -race -count=1 -run 'TestLiveCrashRestart|TestLiveNonLpCrashRestart|TestDurableCreateRefusesLeftoverState|TestAdmissionControl|TestRequestTimeout|TestPanicRecovery|TestLiveFsyncModesOverHTTP' ./internal/server

## chaos-props: the fault-isolation property suites under the race
## detector — randomized multi-dataset fault sweeps against a server
## holding three concurrently-served datasets (WAL append EIO, sync
## failure, torn writes, checkpoint ENOSPC, boot-time read faults,
## interior corruption, a corrupt static.discsnap beside a healthy
## static and a live dataset). The property: datasets that were not faulted
## keep serving with zero errors throughout, while the faulted one
## either recovers a selection bit-identical to its acknowledged op
## prefix or quarantines loudly. Also runs the manager's own lifecycle
## suites (degraded mode, quarantine round-trip, backoff parking, the
## boot scan skipping directories that hold no dataset, Create syncing
## the data directory, static-home recovery) and the root
## checkpoint-ENOSPC authority test.
chaos-props:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/server
	$(GO) test -race -count=1 ./internal/manager
	$(GO) test -race -count=1 -run 'TestCheckpointENOSPCLeavesStateAuthoritative' .

## fuzz: run each fuzz target for 10 seconds (50 s in all; go test
## fuzzes one target per run) past its committed seed corpus, which
## plain `go test ./...` replays. The two live targets in internal/core
## decode byte strings into a metric, a radius and an insert/delete
## sequence: FuzzLiveMatchesBatch requires the live maintainer to equal
## the batch greedy run over the graph's rows after every flush,
## FuzzReplayMatchesLive requires a replayed checkpoint plus tail to
## equal the live path. FuzzSelectModes (internal/core) decodes a
## metric, a radius and a point set, sparse or past
## core.AdjacencyBudget, and requires the global greedy run and the run
## over the graph's rows to pick the same ids in the same order on
## every engine, each result passing CheckDisC.
## FuzzDecode in internal/snap requires snap.Decode to reject or
## canonically re-encode any byte string, without panicking or
## allocating beyond a small multiple of the input. FuzzResultKey in
## internal/server requires the result id decoder never to panic, to
## accept only the one spelling of each key, and every key to
## round-trip through its encoding bit for bit. A failing input
## lands in <package>/testdata/fuzz/<target>/. Minimizing a new
## coverage input may take the default 60 s, the whole budget, so it is
## capped at 1 s.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzLiveMatchesBatch$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzReplayMatchesLive$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzSelectModes$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/snap -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzResultKey$$' -fuzztime=10s -fuzzminimizetime=1s

## doclint: verify that relative links and file references in the
## repo's markdown docs resolve (the CI doc-link gate; see
## doclint_test.go).
doclint:
	$(GO) test . -run TestDocLinks -count=1 -v

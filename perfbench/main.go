// Command perfbench is the repository benchmark. It starts the real
// DisC HTTP handler (server.New(...).Handler()) in-process on a loopback
// listener with discserve's default options, drives one of three seeded
// closed-loop workloads against it, checks every answer against a local
// oracle, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as the last line of standard
// output. See README.md beside this file for the workloads, the metric
// → layer map and the noise rules.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// holdoutSeed is kept out of tuning: a gain measured while a change was
// written must also hold at this seed before it is claimed.
const holdoutSeed = 7919

// workdir holds WAL data while a run lasts, and its spans and report
// after; it is inside the checkout the benchmark runs from.
const workdir = ".bench_build/perfbench"

// setupRuns is how many times a run sets its workload up; setup_s is
// their median and the last one is measured.
const setupRuns = 5

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: explore, live or restart")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the server receives only the inputs generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "nominal measured seconds; fixes the length of the op sequence")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.workdir = workdir
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, _, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up setupRuns times, measures its op sequence
// untraced, then (with trace) sets up again and measures the same
// sequence traced, checks the end state,
// and writes the report and spans under cfg.workdir. Human-readable
// lines go to out; the caller prints the result line.
func run(cfg config, out io.Writer) (*result, *report, error) {
	newWL, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (known: explore, live, restart)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	data, err := os.MkdirTemp(cfg.workdir, "data-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(data)

	b, err := newBench(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()

	w := newWL(b, data)
	if err := w.prepare(); err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}

	setupDelta := b.probe.read()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, nil, fmt.Errorf("teardown: %w", err)
			}
		}
		start := time.Now()
		if err := w.setup(i); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setupDelta = b.probe.read().sub(setupDelta)
	defer w.teardown()

	plain := newPhase(b, false)
	if err := plain.measure(w); err != nil {
		return nil, nil, err
	}
	var traced *phase
	if cfg.trace {
		// A fresh set-up, so the traced pass replays the untraced one's
		// op sequence from the same state and trace.overhead_pct
		// compares like with like.
		if err := w.teardown(); err != nil {
			return nil, nil, fmt.Errorf("teardown: %w", err)
		}
		if err := w.setup(setupRuns); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		traced = newPhase(b, true)
		if err := traced.measure(w); err != nil {
			return nil, nil, err
		}
	}
	last := plain
	if traced != nil {
		last = traced
	}
	checkErr := w.check(last)
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: end-state check failed:", checkErr)
	}

	rep := buildReport(b, w, setups, setupDelta, plain, traced)
	res := &result{Metrics: map[string]metric{}}
	for _, p := range []*phase{plain, traced} {
		if p != nil {
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
	}
	res.Correct = res.Failed == 0 && checkErr == nil
	if cfg.trace {
		res.Metrics = rep.PerLayer
	} else {
		res.Metrics = rep.EndToEnd
	}
	rep.Correct, rep.Attempted, rep.Failed = res.Correct, res.Attempted, res.Failed

	tag := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	if cfg.trace {
		tag += "-traced"
	}
	reportPath := filepath.Join(cfg.workdir, "report-"+tag+".json")
	if err := writeJSONFile(reportPath, rep); err != nil {
		return nil, nil, err
	}
	if traced != nil {
		spanPath := filepath.Join(cfg.workdir, "spans-"+tag+".jsonl")
		if err := b.tr.writeJSONL(spanPath); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(out, "spans %s\n", spanPath)
	}
	rep.print(out)
	fmt.Fprintf(out, "report %s\n", reportPath)
	return res, rep, nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

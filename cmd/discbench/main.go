// Command discbench regenerates the tables and figures of the paper's
// evaluation (Section 6). Each experiment prints plain-text tables with
// the same rows/series the paper reports. -list prints the experiment
// index, and internal/experiments/testdata/quick holds the recorded
// -quick tables.
//
// Usage:
//
//	discbench -exp table3            # one experiment
//	discbench -exp all               # everything (slow; paper-scale)
//	discbench -exp fig7 -quick       # reduced sweep for a fast look
//	discbench -list                  # show available experiments
//
// The "perf", "snapshot", "stream" and "highdim" experiments also write
// -format=json: one suite in the bench row schema that cmd/benchguard
// diffs (README.md, "Benchmarks"), e.g.
//
//	discbench -exp perf -n 50000 -r 0.0025 -format=json > bench-current.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/discdiversity/disc/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		list     = flag.Bool("list", false, "list available experiments and exit")
		seed     = flag.Uint64("seed", 42, "dataset generation seed")
		n        = flag.Int("n", 10000, "synthetic dataset cardinality")
		dim      = flag.Int("dim", 2, "synthetic dataset dimensionality")
		capacity = flag.Int("capacity", 50, "M-tree node capacity")
		workers  = flag.Int("parallelism", 0, "coverage-graph build workers (0 = all cores)")
		radius   = flag.Float64("r", 0, "query radius for single-radius experiments (0 = dataset default)")
		format   = flag.String("format", "text", "output format: text or json (perf experiment)")
		quick    = flag.Bool("quick", false, "reduced sweeps for a fast run")
	)
	flag.Parse()

	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "discbench: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}

	if *list {
		fmt.Println("available experiments:")
		for _, name := range experiments.Names() {
			fmt.Println("  " + name)
		}
		fmt.Println("  all")
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "discbench: -exp required (use -list to see choices)")
		os.Exit(2)
	}

	cfg := experiments.Config{
		Seed:        *seed,
		N:           *n,
		Dim:         *dim,
		Capacity:    *capacity,
		Parallelism: *workers,
		Radius:      *radius,
		Format:      *format,
		Quick:       *quick,
		Out:         os.Stdout,
	}

	start := time.Now()
	var err error
	if strings.EqualFold(*exp, "all") {
		err = experiments.RunAll(cfg)
	} else {
		err = experiments.Run(*exp, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "discbench: %v\n", err)
		os.Exit(1)
	}
	if *format != "json" {
		fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
	}
}

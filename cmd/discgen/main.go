// Command discgen generates the evaluation datasets — as CSV files that
// can be inspected, plotted externally or fed back through discviz -csv,
// or directly as .discsnap binary snapshots: placed at
// DIR/<name>/static.discsnap, one is served as dataset <name> by
// discserve -data-dir DIR after its next start (see the package
// documentation's Snapshots section).
//
// Usage:
//
//	discgen -dataset clustered -n 10000 -o clustered.csv
//	discgen -dataset cameras -o cameras.csv
//	discgen -dataset clustered -n 50000 -format snap -r 0.0025 -o clustered.discsnap
//	discgen -dist sphere -dim 128 -n 50000 -o embeddings.csv
//
// The synthetic generators take -n and -dim; -dist selects their
// geometry: "cube" (the paper's generators in [0,1]^d) or "sphere" —
// clustered Gaussian caps on the unit sphere, the stand-in for
// L2-normalised learned embeddings (d = 64/128/384/768 are the common
// model widths), served under the cosine distance.
//
// With -format snap and -r > 0 the snapshot additionally carries the
// prepared coverage-graph CSR (with the radius its grid was bucketed
// at, for grid-servable metrics), so loading it skips the join for
// selections at that radius.
package main

import (
	"flag"
	"fmt"
	"os"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/grid"
)

func main() {
	var (
		dsName = flag.String("dataset", "clustered", "dataset: uniform, clustered, sphere, cities, cameras")
		dist   = flag.String("dist", "cube", "synthetic point distribution: cube ([0,1]^d) or sphere (clustered unit-norm embeddings, cosine metric)")
		n      = flag.Int("n", 10000, "synthetic dataset cardinality")
		dim    = flag.Int("dim", 2, "synthetic dataset dimensionality (embedding width with -dist sphere)")
		seed   = flag.Uint64("seed", 42, "dataset seed")
		format = flag.String("format", "csv", "output format: csv or snap (.discsnap binary snapshot)")
		radius = flag.Float64("r", 0, "snap only: also prepare index artifacts for this selection radius (0 = dataset only)")
		out    = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	if *format != "csv" && *format != "snap" {
		fail(fmt.Errorf("unknown format %q (want csv or snap)", *format))
	}
	switch *dist {
	case "cube":
		// The default geometry of every named generator.
	case "sphere":
		switch *dsName {
		case "clustered", "sphere":
			*dsName = "sphere"
		default:
			fail(fmt.Errorf("-dist sphere applies to the synthetic clustered generator, not -dataset %s", *dsName))
		}
	default:
		fail(fmt.Errorf("unknown distribution %q (want cube or sphere)", *dist))
	}

	ds, metric, err := dataset.ByName(*dsName, *n, *dim, *seed)
	if err != nil {
		fail(err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
		w = f
	}
	if *format == "csv" {
		if err := ds.WriteCSV(w); err != nil {
			fail(err)
		}
		if *out != "" {
			fmt.Fprintf(os.Stderr, "wrote %d points (%d dims) to %s\n", ds.Len(), ds.Dim(), *out)
		}
		return
	}

	// Snapshot emission: pin the coverage-graph backend for grid-servable
	// metrics so a -r radius persists warm artifacts; everything else
	// relies on New's auto-selection (cosine and high dimensionality land
	// on the coverage graph's flat-join substrate anyway, which also
	// persists its prepared CSR).
	opts := []disc.Option{disc.WithMetric(metric)}
	if grid.Supports(metric) {
		opts = append(opts, disc.WithIndex(disc.IndexCoverageGraph))
	}
	div, err := disc.New(ds.Points, opts...)
	if err != nil {
		fail(err)
	}
	if *radius > 0 {
		if err := div.Prepare(*radius); err != nil {
			fail(err)
		}
	}
	if err := div.WriteSnapshot(w); err != nil {
		fail(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d points (%d dims, metric %s) to %s\n", ds.Len(), ds.Dim(), metric.Name(), *out)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "discgen: %v\n", err)
	os.Exit(1)
}

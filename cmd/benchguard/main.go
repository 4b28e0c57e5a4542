// Command benchguard diffs freshly measured benchmark suites against
// the repo's checked-in baselines and fails when a gated metric
// regressed beyond the tolerance. CI runs it inside `make bench-guard`,
// so a commit that slows an index build, a selection or a served
// endpoint by more than the tolerance fails the pipeline instead of
// silently eroding the repo's perf trajectory.
//
// Every input is one document of the bench row schema (see the
// README's "Benchmarks" section). Rows carry their own gating rules,
// written once in the suite that measures them, so benchguard knows
// nothing about any particular suite. For each baseline=current pair:
//
//   - documents whose suite name or identity differ are refused
//     (exit 2): a diff across workloads or core counts means nothing;
//   - each gated baseline row is checked against the current row of the
//     same subject and name, by the relative floor or ceiling its
//     better direction implies and by its absolute min/max (the rules
//     recorded in the baseline apply, so a baseline pins its gates);
//   - a baseline row missing from the current run fails, once per
//     subject, since losing a measurement is how a regression hides;
//   - current-only rows warn, once per subject, so adding a metric
//     never requires regenerating the baseline in the same commit.
//
// Improvements never fail. The exit status is 1 on any regression.
//
// Usage:
//
//	benchguard [-tolerance 0.25] BENCH_PR5.json=bench-current.json [baseline=current ...]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/discdiversity/disc/internal/experiments"
)

func main() {
	tolerance := flag.Float64("tolerance", 0.25, "allowed relative regression (0.25 = +25%)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchguard [-tolerance 0.25] baseline.json=current.json ...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 || *tolerance < 0 {
		flag.Usage()
		os.Exit(2)
	}

	// Load and match every pair before diffing any, so a refused pair
	// never leaves a half-printed verdict behind.
	type pair struct {
		basePath  string
		base, cur *experiments.Suite
	}
	var pairs []pair
	for _, arg := range flag.Args() {
		basePath, curPath, ok := strings.Cut(arg, "=")
		if !ok {
			fatalf("argument %q: want baseline=current", arg)
		}
		base, err := load(basePath)
		if err != nil {
			fatalf("%v", err)
		}
		cur, err := load(curPath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := sameIdentity(base, cur); err != nil {
			fatalf("%s vs %s: %v; refusing to compare", basePath, curPath, err)
		}
		pairs = append(pairs, pair{basePath, base, cur})
	}

	regressions := 0
	var baselines []string
	for _, p := range pairs {
		fmt.Printf("== %s suite vs %s\n", p.base.Name, p.basePath)
		r, _ := diff(os.Stdout, p.base, p.cur, *tolerance)
		regressions += r
		baselines = append(baselines, p.basePath)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d metric(s) regressed beyond %.0f%% of %s\n",
			regressions, 100**tolerance, strings.Join(baselines, ", "))
		os.Exit(1)
	}
	fmt.Printf("benchguard: all gated metrics within %.0f%% of %s\n", 100**tolerance, strings.Join(baselines, ", "))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	os.Exit(2)
}

// load reads one suite document. Unknown fields are refused, so a file
// in some other format fails loudly instead of decoding to no rows.
func load(path string) (*experiments.Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := new(experiments.Suite)
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("%s: no suite name", path)
	}
	return s, nil
}

// sameIdentity reports how base and cur describe different
// measurements, or nil when they are comparable. Values are compared
// by their JSON encoding, so an in-memory int equals its decoded
// float64.
func sameIdentity(base, cur *experiments.Suite) error {
	if base.Name != cur.Name {
		return fmt.Errorf("suites differ (baseline %q, current %q)", base.Name, cur.Name)
	}
	keys := map[string]bool{}
	for k := range base.Identity {
		keys[k] = true
	}
	for k := range cur.Identity {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		b, _ := json.Marshal(base.Identity[k])
		c, _ := json.Marshal(cur.Identity[k])
		if !bytes.Equal(b, c) {
			diffs = append(diffs, fmt.Sprintf("%s: baseline %s, current %s", k, b, c))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("%s identities differ (%s)", base.Name, strings.Join(diffs, "; "))
	}
	return nil
}

// gated reports whether a row carries any rule.
func gated(r experiments.Row) bool {
	return r.Better != experiments.None || r.Min != nil || r.Max != nil
}

// check applies baseline row b's rules to the current value now. It
// returns a description of the bounds it applied and whether now broke
// any of them.
func check(b experiments.Row, now, tolerance float64) (bounds []string, fail bool) {
	if b.Value > 0 {
		switch b.Better {
		case experiments.Lower:
			limit := b.Value * (1 + tolerance)
			bounds = append(bounds, fmt.Sprintf("ceiling %.6g", limit))
			fail = now > limit
		case experiments.Higher:
			floor := b.Value / (1 + tolerance)
			if b.Max != nil {
				// A bounded metric: the shortfall from the bound may grow
				// by the tolerance, plus tolerance% of the bound as slack.
				floor = *b.Max - (*b.Max-b.Value)*(1+tolerance) - tolerance**b.Max/100
			}
			bounds = append(bounds, fmt.Sprintf("floor %.6g", floor))
			fail = now < floor
		}
	}
	if b.Min != nil {
		bounds = append(bounds, fmt.Sprintf("min %g", *b.Min))
		fail = fail || now < *b.Min
	}
	if b.Max != nil {
		bounds = append(bounds, fmt.Sprintf("max %g", *b.Max))
		fail = fail || now > *b.Max
	}
	return bounds, fail
}

// diff checks cur against base, printing one line per gated row and
// per subject with missing or new rows to w. It returns the number of
// regressions (failed rows, plus one per subject with rows missing
// from cur) and of warnings (one per subject with rows only cur has).
func diff(w io.Writer, base, cur *experiments.Suite, tolerance float64) (regressions, warnings int) {
	type key struct{ subject, name string }
	current := map[key]experiments.Row{}
	for _, r := range cur.Rows {
		current[key{r.Subject, r.Name}] = r
	}
	var missing rowsBySubject
	for _, b := range base.Rows {
		k := key{b.Subject, b.Name}
		c, ok := current[k]
		if !ok {
			missing.add(b)
			continue
		}
		delete(current, k)
		if !gated(b) {
			continue
		}
		bounds, fail := check(b, c.Value, tolerance)
		status := "ok  "
		if fail {
			status = "FAIL"
			regressions++
		}
		change := ""
		if b.Value != 0 {
			change = fmt.Sprintf(", %+.1f%%", 100*(c.Value-b.Value)/b.Value)
		}
		if len(bounds) == 0 {
			bounds = []string{"no baseline"}
		}
		fmt.Fprintf(w, "%s %-16s %-28s %12.6g -> %12.6g %-5s (%s%s)\n",
			status, b.Subject, b.Name, b.Value, c.Value, b.Unit, strings.Join(bounds, ", "), change)
	}
	var fresh rowsBySubject
	for _, c := range cur.Rows {
		if _, ok := current[key{c.Subject, c.Name}]; ok {
			fresh.add(c)
		}
	}
	for i, subject := range missing.subjects {
		fmt.Fprintf(w, "FAIL %-16s missing from current run: %s\n", subject, strings.Join(missing.names[i], ", "))
		regressions++
	}
	for i, subject := range fresh.subjects {
		fmt.Fprintf(w, "WARN %-16s not in baseline (add on the next baseline refresh): %s\n", subject, strings.Join(fresh.names[i], ", "))
		warnings++
	}
	return regressions, warnings
}

// rowsBySubject collects row names per subject in first-seen order.
type rowsBySubject struct {
	subjects []string
	names    [][]string
}

func (g *rowsBySubject) add(r experiments.Row) {
	for i, s := range g.subjects {
		if s == r.Subject {
			g.names[i] = append(g.names[i], r.Name)
			return
		}
	}
	g.subjects = append(g.subjects, r.Subject)
	g.names = append(g.names, []string{r.Name})
}

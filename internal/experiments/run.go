package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one named experiment with the given configuration.
type Runner func(cfg Config) error

// Registry maps experiment names (as accepted by cmd/discbench) to their
// runners. Multi-dataset experiments run all their datasets.
var Registry = map[string]Runner{
	"table3": func(cfg Config) error { _, err := Table3All(cfg); return err },
	"fig6": func(cfg Config) error {
		_, err := Fig6(cfg)
		return err
	},
	"fig7":     func(cfg Config) error { _, err := Fig7All(cfg); return err },
	"fig8":     func(cfg Config) error { _, err := Fig8All(cfg); return err },
	"fig9card": func(cfg Config) error { _, err := Fig9Cardinality(cfg); return err },
	"fig9dim":  func(cfg Config) error { _, err := Fig9Dimensionality(cfg); return err },
	"fig10": func(cfg Config) error {
		for _, ds := range []string{"uniform", "clustered"} {
			if _, err := Fig10(cfg, ds); err != nil {
				return err
			}
		}
		return nil
	},
	"zoomin": func(cfg Config) error {
		for _, ds := range []string{"clustered", "cities"} {
			if _, err := ZoomIn(cfg, ds); err != nil {
				return err
			}
		}
		return nil
	},
	"zoomout": func(cfg Config) error {
		for _, ds := range []string{"clustered", "cities"} {
			if _, err := ZoomOut(cfg, ds); err != nil {
				return err
			}
		}
		return nil
	},
	"capacity": func(cfg Config) error { _, err := Capacity(cfg); return err },
	"engines": func(cfg Config) error {
		for _, ds := range []string{"uniform", "clustered"} {
			if _, err := Engines(cfg, ds); err != nil {
				return err
			}
		}
		return nil
	},
	"fastc": func(cfg Config) error {
		for _, ds := range []string{"uniform", "clustered"} {
			if _, err := FastCAblation(cfg, ds); err != nil {
				return err
			}
		}
		return nil
	},
	"bottomup": func(cfg Config) error {
		_, err := BottomUp(cfg, "clustered")
		return err
	},
	"perf": func(cfg Config) error {
		snap, err := Perf(cfg, "clustered")
		if err != nil {
			return err
		}
		if cfg.Format == "json" {
			return snap.Suite().WriteJSON(cfg.out())
		}
		printTables(cfg.out(), snap.Table())
		return nil
	},
	"buildinit": func(cfg Config) error {
		_, err := BuildInit(cfg, "clustered")
		return err
	},
	"stream": func(cfg Config) error {
		res, err := Stream(cfg, "clustered")
		if err != nil {
			return err
		}
		if cfg.Format == "json" {
			err = res.Suite().WriteJSON(cfg.out())
		} else {
			printTables(cfg.out(), res.Table())
		}
		if err == nil && !res.EquivalentToRebuild {
			// Emit the measurement, then fail: the throughput number is
			// meaningless if the maintained selection drifted from what a
			// rebuild computes.
			err = fmt.Errorf("experiments: stream: incremental selection diverged from rebuild-from-scratch")
		}
		return err
	},
	"highdim": func(cfg Config) error {
		res, err := HighDim(cfg)
		if err != nil {
			return err
		}
		if cfg.Format == "json" {
			return res.Suite().WriteJSON(cfg.out())
		}
		printTables(cfg.out(), res.Tables()...)
		return nil
	},
	"snapshot": func(cfg Config) error {
		res, err := SnapshotExperiment(cfg, "clustered")
		if err != nil {
			return err
		}
		if cfg.Format == "json" {
			err = res.Suite().WriteJSON(cfg.out())
		} else {
			printTables(cfg.out(), res.Table())
		}
		if err == nil && !res.SelectionsIdentical {
			// Emit the measurement, then fail: CI's snapshot-bench step
			// must go red when a warm-loaded engine stops selecting
			// identically, not archive the discrepancy in an artifact.
			err = fmt.Errorf("experiments: snapshot: warm-loaded selections diverge from the fresh build")
		}
		return err
	},
}

// Names returns the registered experiment names in sorted order.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes a registered experiment by name.
func Run(name string, cfg Config) error {
	r, ok := Registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, Names())
	}
	return r(cfg)
}

// RunAll executes every registered experiment in name order.
func RunAll(cfg Config) error {
	for _, name := range Names() {
		fmt.Fprintf(cfg.out(), "=== %s ===\n", name)
		if err := Run(name, cfg); err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
	}
	return nil
}

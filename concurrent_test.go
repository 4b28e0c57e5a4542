package disc

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestDiversifierConcurrentUse: one Diversifier per index serves
// selects (at radii that raise the coverage graph's ceiling, and one
// past core.AdjacencyBudget that the dense fallback serves), zooms,
// local zooms and snapshot writes from several goroutines at once. Every
// answer must equal the same call made sequentially on a fresh
// Diversifier; on the M-tree and the linear scan so must every access
// count, since each run charges only its own. The coverage graph's
// counts depend on the ceiling the call met, so only its ids are
// compared. Run it under -race: it pins that no run writes shared state.
func TestDiversifierConcurrentUse(t *testing.T) {
	// 1,100 points in the unit square: every pair lies within 1.5, so
	// that radius's graph (1.2M entries) passes the 1M-entry budget.
	ds, err := UniformDataset(1100, 2, 71)
	if err != nil {
		t.Fatal(err)
	}
	radii := []float64{0.02, 0.04, 0.06, 1.5}
	const workers = 4
	for _, ix := range []Index{IndexMTree, IndexLinearScan, IndexCoverageGraph} {
		t.Run(ix.String(), func(t *testing.T) {
			mk := func() *Diversifier {
				d, err := New(ds.Points, WithIndex(ix))
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			ref := mk()
			want := map[string]concurrentAnswer{}
			for _, r := range radii {
				for _, a := range concurrentCalls(t, ref, r) {
					want[a.name] = a
				}
			}

			d := mk()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Each worker walks the radii from its own start, so
					// ceiling raises and dense selects interleave.
					for i := range radii {
						r := radii[(i+w)%len(radii)]
						for _, got := range concurrentCalls(t, d, r) {
							exp := want[got.name]
							if !slices.Equal(got.ids, exp.ids) {
								t.Errorf("worker %d %s: ids differ from the sequential call (%d vs %d)", w, got.name, len(got.ids), len(exp.ids))
							}
							if ix != IndexCoverageGraph && got.accesses != exp.accesses {
								t.Errorf("worker %d %s: %d accesses, sequential call %d", w, got.name, got.accesses, exp.accesses)
							}
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// concurrentAnswer is one call's outcome: its ids (pick order for
// selects and zooms, the updated representatives, additions, removals
// and region for local zooms) and, for selects and zooms, its accesses.
type concurrentAnswer struct {
	name     string
	ids      []int
	accesses int64
}

// concurrentCalls runs on d a select at r, a zoom in to r/2 and out to
// 2r, local zooms around the first pick to the same radii, and a
// snapshot write that must load back. It runs on worker goroutines
// too, so a failed call reports with t.Errorf and ends the list early.
func concurrentCalls(t *testing.T, d *Diversifier, r float64) []concurrentAnswer {
	name := func(op string) string { return fmt.Sprintf("%s r=%g", op, r) }
	failed := func(op string, err error) []concurrentAnswer {
		t.Errorf("%s: %v", name(op), err)
		return nil
	}
	sel, err := d.Select(r)
	if err != nil {
		return failed("select", err)
	}
	out := []concurrentAnswer{{name("select"), sel.IDs(), sel.Accesses()}}
	zin, err := d.ZoomIn(sel, r/2)
	if err != nil {
		return failed("zoom-in", err)
	}
	zout, err := d.ZoomOut(sel, 2*r, ZoomOutGreedyLargest)
	if err != nil {
		return failed("zoom-out", err)
	}
	out = append(out,
		concurrentAnswer{name("zoom-in"), zin.IDs(), zin.Accesses()},
		concurrentAnswer{name("zoom-out"), zout.IDs(), zout.Accesses()})
	center := sel.IDs()[0]
	lin, err := d.LocalZoomIn(sel, center, r/2)
	if err != nil {
		return failed("local-zoom-in", err)
	}
	lout, err := d.LocalZoomOut(sel, center, 2*r)
	if err != nil {
		return failed("local-zoom-out", err)
	}
	for op, lz := range map[string]*LocalZoom{"local-zoom-in": lin, "local-zoom-out": lout} {
		ids := slices.Concat(lz.Representatives, []int{-1}, lz.Added, []int{-1}, lz.Removed, []int{-1}, lz.Region)
		out = append(out, concurrentAnswer{name: name(op), ids: ids})
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		return failed("snapshot", err)
	}
	loaded, err := LoadDiversifier(&buf)
	if err != nil {
		return failed("snapshot load", err)
	}
	return append(out, concurrentAnswer{name: name("snapshot"), ids: []int{loaded.Len()}})
}

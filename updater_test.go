package disc_test

import (
	"bytes"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/snap"
)

// rebuildSelection runs the from-scratch coverage-graph Select over the
// updater's live points and returns the selected ids mapped back to the
// updater's id space (the remap old→dense is monotone, so the inverse
// is just the ascending list of live ids).
func rebuildSelection(t *testing.T, u *disc.Updater, m disc.Metric, slots int, r float64) []int {
	t.Helper()
	var pts []disc.Point
	var liveIDs []int
	for id := 0; id < slots; id++ {
		if u.Alive(id) {
			pts = append(pts, u.Point(id))
			liveIDs = append(liveIDs, id)
		}
	}
	if len(pts) == 0 {
		return nil
	}
	d, err := disc.New(pts, disc.WithIndex(disc.IndexCoverageGraph), disc.WithMetric(m))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	ids := append([]int(nil), res.IDs()...)
	for i, id := range ids {
		ids[i] = liveIDs[id]
	}
	sort.Ints(ids)
	return ids
}

func assertEqualsRebuild(t *testing.T, u *disc.Updater, m disc.Metric, slots int, r float64) {
	t.Helper()
	u.Flush()
	if err := u.Verify(); err != nil {
		t.Fatal(err)
	}
	want := rebuildSelection(t, u, m, slots, r)
	got := u.Selection()
	if len(got) != len(want) {
		t.Fatalf("incremental selects %d, rebuild selects %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("selection[%d]: incremental %d, rebuild %d", i, got[i], want[i])
		}
	}
}

// TestUpdaterEquivalentToRebuild is the conformance property test of the
// incremental path: across metrics, dimensionalities and random
// insert/delete interleavings, the converged selection must be exactly
// the one a from-scratch coverage-graph Select over the live points
// computes.
func TestUpdaterEquivalentToRebuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    disc.Metric
		dim  int
		r    float64
	}{
		{"euclidean-1d", disc.Euclidean(), 1, 0.04},
		{"euclidean-2d", disc.Euclidean(), 2, 0.1},
		{"manhattan-2d", disc.Manhattan(), 2, 0.12},
		{"chebyshev-3d", disc.Chebyshev(), 3, 0.18},
		{"hamming-10d", disc.Hamming(), 10, 2},
		{"cosine-3d", disc.Cosine(), 3, 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(17, uint64(tc.dim)))
			u, err := disc.NewUpdater(nil, tc.r, disc.WithMetric(tc.m))
			if err != nil {
				t.Fatal(err)
			}
			slots := 0
			var live []int
			for step := 0; step < 260; step++ {
				if len(live) == 0 || rng.Float64() < 0.7 {
					p := make(disc.Point, tc.dim)
					for i := range p {
						p[i] = rng.Float64()
						if tc.m.Name() == "hamming" {
							p[i] = float64(rng.IntN(3))
						}
					}
					id, err := u.Insert(p)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
					slots++
				} else {
					k := rng.IntN(len(live))
					if err := u.Delete(live[k]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:k], live[k+1:]...)
				}
				if step%50 == 0 {
					assertEqualsRebuild(t, u, tc.m, slots, tc.r)
				}
			}
			assertEqualsRebuild(t, u, tc.m, slots, tc.r)
		})
	}
}

func TestUpdaterSeededMatchesBatchSelect(t *testing.T) {
	pts := randomPoints(700, 2, 41)
	const r = 0.05
	u, err := disc.NewUpdater(pts, r)
	if err != nil {
		t.Fatal(err)
	}
	// The seed is already converged and published.
	if u.Pending() != 0 {
		t.Fatalf("seeded updater has %d writes pending", u.Pending())
	}
	d, err := disc.New(pts, disc.WithIndex(disc.IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), res.IDs()...)
	sort.Ints(want)
	got := u.Selection()
	if len(got) != len(want) {
		t.Fatalf("seed selects %d, batch %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed selection differs at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if err := u.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdaterOptionValidation(t *testing.T) {
	if _, err := disc.NewUpdater(nil, -0.1); err == nil {
		t.Error("negative radius accepted")
	}
	for _, m := range []disc.Metric{disc.Hamming(), disc.Cosine(), disc.InnerProduct()} {
		if _, err := disc.NewUpdater(nil, 0.1, disc.WithMetric(m)); err != nil {
			t.Errorf("metric %s rejected: %v", m.Name(), err)
		}
	}
	if _, err := disc.NewUpdater(nil, 0.1, disc.WithIndex(disc.IndexMTree)); err == nil {
		t.Error("conflicting index accepted")
	}
	if _, err := disc.NewUpdater(nil, 0.1, disc.WithIndex(disc.IndexCoverageGraph)); err != nil {
		t.Errorf("coverage-graph index rejected: %v", err)
	}
	u, err := disc.NewUpdater(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Insert(disc.Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Insert(disc.Point{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := u.Delete(42); err == nil {
		t.Error("deleting an unknown id accepted")
	}
}

func TestUpdaterSnapshotRoundTrip(t *testing.T) {
	pts := randomPoints(400, 2, 43)
	const r = 0.06
	u, err := disc.NewUpdater(pts, r)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate, then try to snapshot unflushed state: must refuse.
	id, err := u.Insert(disc.Point{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := u.WriteSnapshot(&buf); err == nil {
		t.Fatal("snapshot of unflushed state accepted")
	}
	u.Flush()
	if err := u.Delete(id); err != nil {
		t.Fatal(err)
	}
	u.Flush()
	if err := u.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// The snapshot warm-starts a Diversifier whose coverage-graph
	// selection equals the updater's (dense ids: no deletions survive
	// compaction here, so the id spaces coincide).
	d, err := disc.LoadDiversifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), res.IDs()...)
	sort.Ints(want)
	got := u.Selection()
	if len(got) != len(want) {
		t.Fatalf("loaded selects %d, updater %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("selection differs at %d: %d vs %d", i, got[i], want[i])
		}
	}

	empty, err := disc.NewUpdater(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.WriteSnapshot(&buf); err == nil {
		t.Fatal("snapshot of empty updater accepted")
	}
}

// TestUpdaterSnapshotNonLp: an updater under a metric the grid cannot
// serve writes a snapshot without a grid section, which both
// LoadDiversifier and OpenUpdater warm-start to the same selection.
func TestUpdaterSnapshotNonLp(t *testing.T) {
	const r = 0.02
	pts := randomPoints(300, 3, 44)
	u, err := disc.NewUpdater(pts, r, disc.WithMetric(disc.Cosine()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cosine.discsnap")
	if err := u.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.GridRadius != nil || s.Graph == nil {
		t.Fatalf("snapshot has grid %v, graph %v; want a graph and no grid", s.GridRadius != nil, s.Graph != nil)
	}
	d, err := disc.LoadDiversifier(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), res.IDs()...)
	sort.Ints(want)
	if got := u.Selection(); !slices.Equal(got, want) {
		t.Fatalf("loaded diversifier selects %v, updater %v", want, got)
	}
	warm, err := disc.OpenUpdater(path, filepath.Join(t.TempDir(), "wal"), r)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if got := warm.Selection(); !slices.Equal(got, want) {
		t.Fatalf("reopened updater selects %v, want %v", got, want)
	}
}

// TestUpdaterSnapshotComponentsSection: an Updater checkpoint carries
// no components section, and a snapshot written with one, as older
// writers did, still reopens as an Updater selecting what its writer's
// version selected.
func TestUpdaterSnapshotComponentsSection(t *testing.T) {
	const r = 0.06
	u, err := disc.NewUpdater(randomPoints(300, 2, 45), r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "live.discsnap")
	if err := u.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sectionAt(data, retiredComponentsKind) >= 0 {
		t.Fatal("updater snapshot carries a components section")
	}

	fx := loadComponentsFixture(t)
	old := filepath.Join(t.TempDir(), "old.discsnap")
	if err := os.WriteFile(old, fx.data, 0o644); err != nil {
		t.Fatal(err)
	}
	sel := fx.sels[0] // greedy at the graph's radius
	warm, err := disc.OpenUpdater(old, filepath.Join(t.TempDir(), "wal"), sel.Radius)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if got, want := warm.Selection(), sortedInts(sel.Global); !slices.Equal(got, want) {
		t.Fatalf("reopened updater selects %v, recorded %v", got, want)
	}
}

// TestUpdaterSnapshotParallelVectors: under dot product and cosine, the
// distance between parallel vectors can round a few ulps below zero
// (the unit vector (1,5)/√26 has a self inner product above 1). Such a
// pair lands in the checkpoint's adjacency with a negative distance,
// and reopening the snapshot, live or static, must still reproduce the
// selection.
func TestUpdaterSnapshotParallelVectors(t *testing.T) {
	unit := func(x, y float64) disc.Point {
		n := math.Sqrt(x*x + y*y)
		return disc.Point{x / n, y / n}
	}
	for _, tc := range []struct {
		metric disc.Metric
		a, b   disc.Point // parallel, at a negative distance
	}{
		{disc.InnerProduct(), unit(1, 5), unit(1, 5)},
		{disc.Cosine(), disc.Point{0.6790846759202163, 0.21855305259276428}, disc.Point{3 * 0.6790846759202163, 3 * 0.21855305259276428}},
	} {
		t.Run(tc.metric.Name(), func(t *testing.T) {
			if d := tc.metric.Dist(tc.a, tc.b); !(d < 0) {
				t.Fatalf("precondition: parallel pair at distance %g, want a negative rounding", d)
			}
			const r = 0.05
			pts := []disc.Point{tc.a, tc.b, unit(5, 1), unit(-1, 2)}
			u, err := disc.NewUpdater(pts, r, disc.WithMetric(tc.metric))
			if err != nil {
				t.Fatal(err)
			}
			more := []disc.Point{tc.a, unit(5, 1), unit(0, 1)}
			for _, p := range more {
				if _, err := u.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := u.Delete(2); err != nil {
				t.Fatal(err)
			}
			u.Flush()
			// The snapshot compacts the deleted slot away: map the
			// selection onto dense ids.
			var want []int
			for dense, id := 0, 0; id < len(pts)+len(more); id++ {
				if !u.Alive(id) {
					continue
				}
				if u.IsRepresentative(id) {
					want = append(want, dense)
				}
				dense++
			}
			path := filepath.Join(t.TempDir(), "parallel.discsnap")
			if err := u.SaveSnapshot(path); err != nil {
				t.Fatal(err)
			}
			warm, err := disc.OpenUpdater(path, filepath.Join(t.TempDir(), "wal"), r)
			if err != nil {
				t.Fatal(err)
			}
			defer warm.Close()
			if got := warm.Selection(); !slices.Equal(got, want) {
				t.Fatalf("reopened updater selects %v, want %v", got, want)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			d, err := disc.LoadDiversifier(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Select(r)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.IDs()); got != len(want) {
				t.Fatalf("loaded diversifier selects %d, updater %d", got, len(want))
			}
		})
	}
}

// TestUpdaterConcurrentReadsDuringRepair hammers the lock-free read
// path while a writer mutates and flushes; run under -race (make test)
// this is the staleness-contract stress test: readers must always see a
// fully published selection, never a half-repaired one.
func TestUpdaterConcurrentReadsDuringRepair(t *testing.T) {
	pts := randomPoints(300, 2, 47)
	const r = 0.08
	u, err := disc.NewUpdater(pts, r)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sel := u.Selection()
				if len(sel) != u.Size() && u.Size() != len(u.Selection()) {
					// Size and Selection may straddle a publish; each on
					// its own must be internally consistent.
					continue
				}
				for _, id := range sel {
					_ = u.IsRepresentative(id)
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	var live []int
	for id := 0; id < 300; id++ {
		live = append(live, id)
	}
	for step := 0; step < 500; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			id, err := u.Insert(disc.Point{rng.Float64(), rng.Float64()})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else {
			k := rng.IntN(len(live))
			if err := u.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
		if step%7 == 0 {
			u.Flush()
		}
	}
	u.Flush()
	close(stop)
	wg.Wait()
	if err := u.Verify(); err != nil {
		t.Fatal(err)
	}
}

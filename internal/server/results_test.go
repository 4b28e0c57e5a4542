package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/manager"
)

// TestResultCacheBounded: selects at more distinct radii than the cache
// holds keep its resident cost at or below the budget, and an evicted
// id still answers, recomputed, with the ids it was first served with.
func TestResultCacheBounded(t *testing.T) {
	const budget = 400
	srv := New()
	srv.results = newResultCache(budget)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	uploadPoints(t, ts, "demo", 300)

	var first []result
	for i := range 20 {
		var res result
		doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select",
			map[string]any{"radius": 0.05 + 0.005*float64(i)}, http.StatusCreated, &res)
		first = append(first, res)
		entries, ids := srv.results.resident()
		if ids+entries*resultEntryCharge > budget {
			t.Fatalf("after %d selects the cache holds %d entries and %d ids, past its budget of %d",
				i+1, entries, ids, budget)
		}
	}
	if entries, _ := srv.results.resident(); entries >= len(first) {
		t.Fatalf("cache holds all %d results; the test needs evictions", entries)
	}
	recomputed := metLookupRecomputed.Value()
	var again result
	doJSON(t, "GET", ts.URL+"/v1/results/"+first[0].ID, nil, http.StatusOK, &again)
	if !slices.Equal(again.IDs, first[0].IDs) || again.Radius != first[0].Radius || again.ID != first[0].ID {
		t.Fatalf("evicted result came back as %+v, want %+v", again, first[0])
	}
	if metLookupRecomputed.Value() != recomputed+1 {
		t.Fatal("fetching an evicted id did not count a recomputed lookup")
	}
	hits := metLookupHit.Value()
	doJSON(t, "GET", ts.URL+"/v1/results/"+first[0].ID, nil, http.StatusOK, nil)
	if metLookupHit.Value() != hits+1 {
		t.Fatal("fetching a resident id did not count a hit")
	}
}

// TestResultCacheSkipsOversizedResult: a result whose ids alone pass the
// budget is served but never resident.
func TestResultCacheSkipsOversizedResult(t *testing.T) {
	srv := New()
	srv.results = newResultCache(resultEntryCharge + 10)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	uploadPoints(t, ts, "demo", 200)
	var res result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": 0.01}, http.StatusCreated, &res)
	if res.Size <= 10 {
		t.Fatalf("select kept %d ids; the test needs more than 10", res.Size)
	}
	if entries, ids := srv.results.resident(); entries != 0 || ids != 0 {
		t.Fatalf("cache holds %d entries and %d ids, want none", entries, ids)
	}
	var again result
	doJSON(t, "GET", ts.URL+"/v1/results/"+res.ID, nil, http.StatusOK, &again)
	if !slices.Equal(again.IDs, res.IDs) {
		t.Fatal("recomputed result differs from the served one")
	}
}

// TestResultCacheDropsReplacedEngine: an entry computed by an engine
// the dataset has since replaced misses, and leaves the cache so it no
// longer holds that engine.
func TestResultCacheDropsReplacedEngine(t *testing.T) {
	div, err := disc.New([]disc.Point{{0, 0}, {1, 1}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := div.Select(0.5)
	if err != nil {
		t.Fatal(err)
	}
	old, cur := &manager.Static{}, &manager.Static{}
	c := newResultCache(resultCacheIDs)
	c.put("k", old, res)
	if c.get("k", old) != res {
		t.Fatal("entry misses for the engine that computed it")
	}
	if c.get("k", cur) != nil {
		t.Fatal("entry hits for a replaced engine")
	}
	if entries, ids := c.resident(); entries != 0 || ids != 0 {
		t.Fatalf("stale entry still resident: %d entries, %d ids", entries, ids)
	}
}

// TestResultIDsSurviveRestart: ids served before a restart — a select,
// its zoom-in and a zoom-out of that — answer after Close, New and
// RestoreLive on the same data directory with the same ids and radius,
// recomputed from the saved dataset, and a zoom from the old select
// still answers its old id.
func TestResultIDsSurviveRestart(t *testing.T) {
	const r = 0.1
	dir := t.TempDir()
	srv := New(WithDataDir(dir))
	ts := httptest.NewServer(srv.Handler())
	uploadPoints(t, ts, "demo", 300)
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/snapshot", nil, http.StatusCreated, nil)
	var sel, zin, zout result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": r}, http.StatusCreated, &sel)
	doJSON(t, "POST", ts.URL+"/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": r / 2}, http.StatusCreated, &zin)
	doJSON(t, "POST", ts.URL+"/v1/results/"+zin.ID+"/zoom", map[string]any{"radius": 3 * r}, http.StatusCreated, &zout)
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := New(WithDataDir(dir))
	t.Cleanup(func() { srv2.Close() })
	if n, err := srv2.RestoreLive(); err != nil || n != 1 {
		t.Fatalf("RestoreLive = (%d, %v), want (1, nil)", n, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	// The deepest id first: its recompute runs and caches the chain.
	for _, want := range []result{zout, zin, sel} {
		var got result
		doJSON(t, "GET", ts2.URL+"/v1/results/"+want.ID, nil, http.StatusOK, &got)
		if !slices.Equal(got.IDs, want.IDs) || got.Radius != want.Radius || got.ID != want.ID {
			t.Fatalf("after the restart %s answers ids %v radius %g, want %v radius %g",
				want.ID, got.IDs, got.Radius, want.IDs, want.Radius)
		}
	}
	var zin2 result
	doJSON(t, "POST", ts2.URL+"/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": r / 2}, http.StatusCreated, &zin2)
	if zin2.ID != zin.ID || !slices.Equal(zin2.IDs, zin.IDs) {
		t.Fatalf("zoom after the restart answers %s %v, want %s %v", zin2.ID, zin2.IDs, zin.ID, zin.IDs)
	}
}

// TestResultIDRefusedAfterDatasetSwap: a static home whose
// static.discsnap was replaced by a file of other points (same name,
// size and dimension) answers 404 for the ids the old points produced,
// for GET and for a zoom from them.
func TestResultIDRefusedAfterDatasetSwap(t *testing.T) {
	dir := t.TempDir()
	srv := New(WithDataDir(dir))
	ts := httptest.NewServer(srv.Handler())
	uploadPoints(t, ts, "demo", 300)
	var saved snapshotBody
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/snapshot", nil, http.StatusCreated, &saved)
	var sel result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": 0.1}, http.StatusCreated, &sel)
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The other points: the same shape, shifted by a quarter.
	other := New(WithDataDir(t.TempDir()))
	t.Cleanup(func() { other.Close() })
	ots := httptest.NewServer(other.Handler())
	t.Cleanup(ots.Close)
	pts := uploadPoints(t, ots, "shifted-source", 300)
	for _, p := range pts {
		p[0] += 0.25
	}
	doJSON(t, "POST", ots.URL+"/v1/datasets", map[string]any{"name": "demo", "points": pts}, http.StatusCreated, nil)
	var swapped snapshotBody
	doJSON(t, "POST", ots.URL+"/v1/datasets/demo/snapshot", nil, http.StatusCreated, &swapped)
	file, err := os.ReadFile(swapped.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "demo", "static.discsnap"), file, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(WithDataDir(dir))
	t.Cleanup(func() { srv2.Close() })
	if n, err := srv2.RestoreLive(); err != nil || n != 1 {
		t.Fatalf("RestoreLive = (%d, %v), want (1, nil)", n, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	unknown := metLookupUnknown.Value()
	doJSON(t, "GET", ts2.URL+"/v1/results/"+sel.ID, nil, http.StatusNotFound, nil)
	doJSON(t, "POST", ts2.URL+"/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": 0.05}, http.StatusNotFound, nil)
	if got := metLookupUnknown.Value() - unknown; got != 2 {
		t.Fatalf("%d unknown lookups counted, want 2", got)
	}
	// The swapped dataset serves its own selects under a new id.
	var fresh result
	doJSON(t, "POST", ts2.URL+"/v1/datasets/demo/select", map[string]any{"radius": 0.1}, http.StatusCreated, &fresh)
	if fresh.ID == sel.ID {
		t.Fatal("a select over other points answered the old id")
	}
}

// TestIdenticalDerivationsShareID: two identical selects answer the
// same id, and so do two identical zooms; each request runs its
// algorithm, so each reports its own accesses. Another algorithm or
// radius answers another id.
func TestIdenticalDerivationsShareID(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "demo", 300)
	var a, b, c, d result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": 0.1}, http.StatusCreated, &a)
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": 0.1, "algorithm": "greedy"}, http.StatusCreated, &b)
	if a.ID != b.ID || !slices.Equal(a.IDs, b.IDs) {
		t.Fatalf("identical selects answered ids %q and %q", a.ID, b.ID)
	}
	if a.Accesses <= 0 || b.Accesses <= 0 {
		t.Fatalf("selects report accesses %d and %d, want both > 0", a.Accesses, b.Accesses)
	}
	doJSON(t, "POST", ts.URL+"/v1/results/"+a.ID+"/zoom", map[string]any{"radius": 0.2}, http.StatusCreated, &c)
	doJSON(t, "POST", ts.URL+"/v1/results/"+b.ID+"/zoom", map[string]any{"radius": 0.2}, http.StatusCreated, &d)
	if c.ID != d.ID || c.Accesses <= 0 || d.Accesses <= 0 {
		t.Fatalf("identical zooms answered %q (%d accesses) and %q (%d accesses)", c.ID, c.Accesses, d.ID, d.Accesses)
	}
	seen := map[string]bool{a.ID: true, c.ID: true}
	for _, body := range []map[string]any{
		{"radius": 0.1, "algorithm": "basic"},
		{"radius": 0.11},
		{"radius": 0.1, "algorithm": "lazy-grey"},
	} {
		var res result
		doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", body, http.StatusCreated, &res)
		if seen[res.ID] {
			t.Fatalf("select %v answered an id already served: %q", body, res.ID)
		}
		seen[res.ID] = true
	}
}

// TestZoomChainLimit: an id records at most maxZoomSteps zooms; the
// deepest one answers GET, and a zoom from it is refused with a 400
// that names the limit.
func TestZoomChainLimit(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "demo", 300)
	var res result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": 0.1}, http.StatusCreated, &res)
	for i := range maxZoomSteps {
		r := 0.05 // alternate in and out
		if i%2 == 1 {
			r = 0.1
		}
		doJSON(t, "POST", ts.URL+"/v1/results/"+res.ID+"/zoom", map[string]any{"radius": r}, http.StatusCreated, &res)
	}
	doJSON(t, "GET", ts.URL+"/v1/results/"+res.ID, nil, http.StatusOK, nil)
	var refused errorBody
	doJSON(t, "POST", ts.URL+"/v1/results/"+res.ID+"/zoom", map[string]any{"radius": 0.05}, http.StatusBadRequest, &refused)
	if !strings.Contains(refused.Error, fmt.Sprint(maxZoomSteps)) {
		t.Fatalf("refusal %q does not name the limit %d", refused.Error, maxZoomSteps)
	}
}

// TestResultKeyConcurrent: clients select, zoom and fetch the same keys
// at once while a small cache evicts under them; every answer equals
// the sequential one. Run under -race it pins the cache's locking.
func TestResultKeyConcurrent(t *testing.T) {
	// Room for the zoom-in or the select, not both: lookups miss and
	// recompute while other clients evict.
	const budget = 200
	srv := New()
	srv.results = newResultCache(budget)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	uploadPoints(t, ts, "demo", 300)
	want := exploreIDs(t, ts.URL, 0.1)
	var sel, zin result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": 0.1}, http.StatusCreated, &sel)
	doJSON(t, "POST", ts.URL+"/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": 0.05}, http.StatusCreated, &zin)
	if size := len(want[0]) + len(want[1]) + 2*resultEntryCharge; size <= budget || len(want[1])+resultEntryCharge > budget {
		t.Fatalf("select and zoom-in hold %d and %d ids; the test needs a cache that holds one but not both", len(want[0]), len(want[1]))
	}

	recomputed := metLookupRecomputed.Value()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 6 {
				var got result
				var err error
				switch (c + i) % 3 {
				case 0:
					got, err = call("POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": 0.1})
					if err == nil && (got.ID != sel.ID || !slices.Equal(got.IDs, want[0])) {
						err = fmt.Errorf("select answered %s", got.ID)
					}
				case 1:
					got, err = call("POST", ts.URL+"/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": 0.05})
					if err == nil && (got.ID != zin.ID || !slices.Equal(got.IDs, want[1])) {
						err = fmt.Errorf("zoom answered %s", got.ID)
					}
				default:
					got, err = call("GET", ts.URL+"/v1/results/"+zin.ID, nil)
					if err == nil && !slices.Equal(got.IDs, want[1]) {
						err = fmt.Errorf("GET %s answered other ids", zin.ID)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if metLookupRecomputed.Value() == recomputed {
		t.Error("no lookup recomputed; the cache never evicted under the clients")
	}
}

// call issues one JSON request and decodes a 2xx result body.
func call(method, url string, body any) (result, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return result{}, err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return result{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return result{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return result{}, fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	var res result
	err = json.NewDecoder(resp.Body).Decode(&res)
	return res, err
}

// TestResultKeyRejectsMalformed: ids that are not keys, or that carry
// an invalid field, answer 404 like any unknown id.
func TestResultKeyRejectsMalformed(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "demo", 100)
	var sel result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": 0.1}, http.StatusCreated, &sel)
	k, ok := parseResultKey(sel.ID)
	if !ok {
		t.Fatalf("served id %q does not parse", sel.ID)
	}
	raw, _ := keyEncoding.DecodeString(sel.ID)
	mutate := func(f func(b []byte) []byte) string {
		return keyEncoding.EncodeToString(f(append([]byte(nil), raw...)))
	}
	negative := k
	negative.radius = -1
	other := k
	other.dataset = "nope"
	for name, id := range map[string]string{
		"rN":              "r1",
		"not base64":      "a*b",
		"version":         mutate(func(b []byte) []byte { b[0] = 2; return b }),
		"algorithm":       mutate(func(b []byte) []byte { b[1] = byte(len(algorithms)); return b }),
		"fingerprint":     mutate(func(b []byte) []byte { b[2] ^= 1; return b }),
		"checksum":        mutate(func(b []byte) []byte { b[6] ^= 1; return b }),
		"zoom count":      mutate(func(b []byte) []byte { b[resultKeyHeader-1] = maxZoomSteps + 1; return b }),
		"truncated":       mutate(func(b []byte) []byte { return b[:resultKeyHeader-1] }),
		"no name":         mutate(func(b []byte) []byte { return b[:resultKeyHeader] }),
		"negative radius": negative.String(),
		"unknown dataset": other.String(),
	} {
		t.Run(name, func(t *testing.T) {
			doJSON(t, "GET", ts.URL+"/v1/results/"+id, nil, http.StatusNotFound, nil)
		})
	}
}

// FuzzResultKey: decoding any string never panics, a string that
// decodes is the one spelling of its key, and every key built from
// valid fields round-trips through its encoding bit for bit.
func FuzzResultKey(f *testing.F) {
	f.Add("r1", "demo", uint32(0), uint32(0), uint8(0), 0.1, []byte{})
	f.Add(resultKey{dataset: "explore", fingerprint: 0xdeadbeef, checksum: 0xfeed, radius: 0.008, zooms: []float64{0.004}}.String(),
		"explore", uint32(7), uint32(1<<31), uint8(3), 0.015, zoomBytes(0.03, 0.0075))
	f.Add("AQAAAAAAAAAAAJqZmZmZmbk_AGRlbW8", "a b", uint32(1), uint32(2), uint8(6), math.NaN(), zoomBytes(math.Inf(1), -0.0))
	f.Fuzz(func(t *testing.T, id, name string, fp, sum uint32, alg uint8, r float64, zooms []byte) {
		if k, ok := parseResultKey(id); ok {
			if again := k.String(); again != id {
				t.Fatalf("%q decodes but re-encodes as %q", id, again)
			}
		}
		k := resultKey{dataset: name, fingerprint: fp, checksum: sum, algorithm: alg % uint8(len(algorithms)), radius: r}
		for i := 0; i+8 <= len(zooms) && len(k.zooms) < maxZoomSteps; i += 8 {
			k.zooms = append(k.zooms, math.Float64frombits(binary.LittleEndian.Uint64(zooms[i:])))
		}
		got, ok := parseResultKey(k.String())
		if valid := manager.ValidateName(name) == nil; ok != valid {
			t.Fatalf("key over dataset %q decodes: %v, want %v", name, ok, valid)
		}
		if ok && !sameKey(got, k) {
			t.Fatalf("key %+v round-trips as %+v", k, got)
		}
	})
}

// resident reports the cache's entry count and the ids they hold.
func (c *resultCache) resident() (entries, ids int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.used - c.lru.Len()*resultEntryCharge
}

// zoomBytes packs zoom radii the way FuzzResultKey reads them.
func zoomBytes(zs ...float64) []byte {
	var b []byte
	for _, z := range zs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z))
	}
	return b
}

// sameKey compares keys with radii by bits, so NaNs and signed zeros
// count.
func sameKey(a, b resultKey) bool {
	if a.dataset != b.dataset || a.fingerprint != b.fingerprint || a.checksum != b.checksum || a.algorithm != b.algorithm ||
		math.Float64bits(a.radius) != math.Float64bits(b.radius) || len(a.zooms) != len(b.zooms) {
		return false
	}
	for i := range a.zooms {
		if math.Float64bits(a.zooms[i]) != math.Float64bits(b.zooms[i]) {
			return false
		}
	}
	return true
}

// TestBasicIDRefusedAfterScanOrderChange: Basic-DisC walks the coverage
// graph's grid in cell order, and the grid keeps the bucketing radius
// of the dataset's first select while later radii suit it. So basic at
// 0.5 after a select at 0 picks other ids than basic at 0.5 on a fresh
// server. Its id recomputes on the server that served it, answers 404
// on the fresh one rather than the fresh ids, and the fresh select
// answers another id.
func TestBasicIDRefusedAfterScanOrderChange(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	uploadPoints(t, ts, "demo", 300)
	basic := map[string]any{"radius": 0.5, "algorithm": "basic"}
	var coarse result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": 0}, http.StatusCreated, nil)
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", basic, http.StatusCreated, &coarse)

	fresh := newTestServer(t)
	uploadPoints(t, fresh, "demo", 300)
	doJSON(t, "GET", fresh.URL+"/v1/results/"+coarse.ID, nil, http.StatusNotFound, nil)
	var fine result
	doJSON(t, "POST", fresh.URL+"/v1/datasets/demo/select", basic, http.StatusCreated, &fine)
	if slices.Equal(fine.IDs, coarse.IDs) {
		t.Fatal("basic picks the same ids under both bucketings; the test needs them to differ")
	}
	if fine.ID == coarse.ID {
		t.Fatalf("basic selects over different scan orders share id %q", fine.ID)
	}
	doJSON(t, "GET", fresh.URL+"/v1/results/"+coarse.ID, nil, http.StatusNotFound, nil)

	// The serving engine still scans in the coarse order: an evicted id
	// recomputes to what it first answered.
	srv.results.clear()
	var again result
	doJSON(t, "GET", ts.URL+"/v1/results/"+coarse.ID, nil, http.StatusOK, &again)
	if !slices.Equal(again.IDs, coarse.IDs) {
		t.Fatal("an evicted basic id recomputed to other ids on the engine that served it")
	}
}

// TestTieBreakingIDsIgnoreHistory: every algorithm but basic picks the
// same ids at a radius whatever the dataset selected before — a fine
// or a coarse grid bucketing, a raised ceiling, a radius past the
// adjacency budget served on the M-tree — so its id is the same on two
// servers and recomputes on either. Greedy zooms from the DisC selects
// agree too.
func TestTieBreakingIDsIgnoreHistory(t *testing.T) {
	// 1,100 points put an all-pairs graph (1.21M entries) past the
	// 2^20-entry budget, so radius 2 runs on the M-tree.
	const n = 1100
	a := newTestServer(t)
	b := newTestServer(t)
	uploadPoints(t, a, "demo", n)
	uploadPoints(t, b, "demo", n)
	for _, r := range []float64{0, 0.5, 3} {
		doJSON(t, "POST", b.URL+"/v1/datasets/demo/select", map[string]any{"radius": r}, http.StatusCreated, nil)
	}
	// The histories must leave the engines scanning in other orders.
	basic := map[string]any{"radius": 0.03, "algorithm": "basic"}
	var ba, bb result
	doJSON(t, "POST", a.URL+"/v1/datasets/demo/select", basic, http.StatusCreated, &ba)
	doJSON(t, "POST", b.URL+"/v1/datasets/demo/select", basic, http.StatusCreated, &bb)
	if slices.Equal(ba.IDs, bb.IDs) {
		t.Fatal("basic picks the same ids after both histories; the test needs them to differ")
	}
	for _, r := range []float64{0.03, 0.3, 2} {
		for _, alg := range algorithms {
			if alg.name == "basic" {
				continue
			}
			body := map[string]any{"radius": r, "algorithm": alg.name}
			var ra, rb result
			doJSON(t, "POST", a.URL+"/v1/datasets/demo/select", body, http.StatusCreated, &ra)
			doJSON(t, "POST", b.URL+"/v1/datasets/demo/select", body, http.StatusCreated, &rb)
			if ra.ID != rb.ID || !slices.Equal(ra.IDs, rb.IDs) {
				t.Fatalf("%s at %g: servers answered %d and %d ids under %q and %q",
					alg.name, r, len(ra.IDs), len(rb.IDs), ra.ID, rb.ID)
			}
			if alg.name == "coverage" || alg.name == "fast-coverage" {
				continue // r-C results do not zoom
			}
			var za, zb result
			doJSON(t, "POST", a.URL+"/v1/results/"+ra.ID+"/zoom", map[string]any{"radius": r / 2}, http.StatusCreated, &za)
			doJSON(t, "POST", b.URL+"/v1/results/"+ra.ID+"/zoom", map[string]any{"radius": r / 2}, http.StatusCreated, &zb)
			if za.ID != zb.ID || !slices.Equal(za.IDs, zb.IDs) {
				t.Fatalf("%s at %g: zoom-ins to %g differ", alg.name, r, r/2)
			}
		}
	}
}

// TestResultRecomputeShared: callers that miss on one id while its
// recompute runs wait for that run instead of starting their own; a
// failed run is shared but not cached.
func TestResultRecomputeShared(t *testing.T) {
	div, err := disc.New([]disc.Point{{0, 0}, {1, 1}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := div.Select(0.5)
	if err != nil {
		t.Fatal(err)
	}
	st := &manager.Static{}
	c := newResultCache(resultCacheIDs)
	for _, fail := range []bool{true, false} {
		var runs atomic.Int32
		started, release := make(chan struct{}), make(chan struct{})
		compute := func() (*disc.Result, error) {
			if runs.Add(1) == 1 {
				close(started)
			}
			<-release
			if fail {
				return nil, fmt.Errorf("no")
			}
			return want, nil
		}
		const callers = 4
		results := make(chan *disc.Result, callers)
		for i := range callers {
			if i == 1 {
				<-started // the others find the first one's run in flight
			}
			go func() {
				res, _ := c.getOrCompute("k", st, compute)
				results <- res
			}()
		}
		time.Sleep(20 * time.Millisecond)
		close(release)
		for range callers {
			if res := <-results; (res == want) == fail {
				t.Fatalf("fail=%v: a caller got %v", fail, res)
			}
		}
		if got := runs.Load(); got != 1 {
			t.Fatalf("fail=%v: %d callers missing at once ran %d recomputes, want 1", fail, callers, got)
		}
		if cached := c.get("k", st) != nil; cached == fail {
			t.Fatalf("fail=%v: result cached: %v", fail, cached)
		}
	}
}

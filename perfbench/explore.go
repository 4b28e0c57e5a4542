package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/server"
)

// explore: interactive sessions on the static dataset path. Each
// session selects at one of four radii, then zooms that result in to
// r/2 and out to 2r — the paper's interaction, served under the
// server-wide lock by the default M-tree.
const (
	exploreN       = 5000
	exploreClients = 1
	exploreRate    = 10 // nominal sessions per second
	exploreDataset = "explore"
)

var exploreRadii = []float64{0.008, 0.01, 0.012, 0.015}

type explore struct {
	b      *bench
	create []byte
	oracle [][3][]int // per radius: select, zoom-in, zoom-out ids
	rng    *rand.Rand
	srv    *server.Server
	// lastResult is the highest result id the server assigned, i.e. the
	// number of results it stores.
	mu         sync.Mutex
	lastResult int
}

func newExplore(b *bench, _ string) workload {
	return &explore{b: b}
}

func (e *explore) identity() map[string]any {
	return map[string]any{
		"dataset": fmt.Sprintf("clustered n=%d d=2 clusters=10 euclidean index=mtree, fixed (layout seed %d)", exploreN, layoutSeed),
		"radii":   exploreRadii,
		"session": "select r, zoom to r/2, zoom to 2r; each radius equally often, in seeded order",
		"clients": exploreClients,
		"fsync":   "no WAL",
	}
}

// prepare builds the dataset and computes every answer the server can
// give with a local Diversifier of the same dataset and index.
func (e *explore) prepare() error {
	pts, err := clusteredPoints(exploreN, layoutSeed)
	if err != nil {
		return err
	}
	e.create, err = json.Marshal(map[string]any{"name": exploreDataset, "metric": "euclidean", "points": pts})
	if err != nil {
		return err
	}
	d, err := disc.New(pts)
	if err != nil {
		return err
	}
	for _, r := range exploreRadii {
		sel, err := d.Select(r)
		if err != nil {
			return err
		}
		zin, err := d.ZoomIn(sel, r/2)
		if err != nil {
			return err
		}
		zout, err := d.ZoomOut(sel, 2*r, disc.ZoomOutGreedyLargest)
		if err != nil {
			return err
		}
		for _, res := range []*disc.Result{sel, zin, zout} {
			if err := d.Verify(res); err != nil {
				return fmt.Errorf("oracle at r=%g: %w", res.Radius(), err)
			}
		}
		e.oracle = append(e.oracle, [3][]int{sel.SortedIDs(), zin.SortedIDs(), zout.SortedIDs()})
	}
	return nil
}

func (e *explore) setup(int) error {
	e.rng = rand.New(rand.NewPCG(e.b.cfg.seed, 1))
	e.srv = server.New(serverOptions("", disc.FsyncAlways)...)
	e.b.serve(e.srv)
	if err := e.b.mustCall("POST", "/v1/datasets", e.create, nil); err != nil {
		return err
	}
	// Warm-up: one session per radius, untimed and unrecorded.
	warm := newPhase(e.b, false)
	for ri := range exploreRadii {
		e.session(warm, ri)
	}
	if warm.failed > 0 {
		return fmt.Errorf("%d warm-up ops failed", warm.failed)
	}
	return nil
}

func (e *explore) teardown() error {
	e.mu.Lock()
	e.lastResult = 0
	e.mu.Unlock()
	return e.srv.Close()
}

func (e *explore) run(p *phase) error {
	// Every radius is used equally often, in a seeded order, so the mix
	// of op costs does not change with the seed.
	sessions := make([]int, opsFor(p.b.cfg.seconds, exploreRate))
	for i := range sessions {
		sessions[i] = i % len(exploreRadii)
	}
	e.rng.Shuffle(len(sessions), func(i, j int) { sessions[i], sessions[j] = sessions[j], sessions[i] })
	for _, ri := range sessions {
		e.session(p, ri)
	}
	return nil
}

// resultBody is the subset of the server's result JSON the oracle reads.
type resultBody struct {
	ID       string  `json:"id"`
	Radius   float64 `json:"radius"`
	IDs      []int   `json:"ids"`
	Accesses int64   `json:"accesses"`
}

// session runs select → zoom in → zoom out at radius index ri.
func (e *explore) session(p *phase, ri int) {
	r := exploreRadii[ri]
	want := e.oracle[ri]
	res, ok := e.op(p, "select", "/v1/datasets/"+exploreDataset+"/select", r, want[0])
	if !ok {
		p.miss()
		p.miss()
		return
	}
	e.op(p, "zoom_in", "/v1/results/"+res.ID+"/zoom", r/2, want[1])
	e.op(p, "zoom_out", "/v1/results/"+res.ID+"/zoom", 2*r, want[2])
}

// op issues one select or zoom at radius r and checks the answer
// bit-for-bit against want.
func (e *explore) op(p *phase, kind, path string, r float64, want []int) (resultBody, bool) {
	rep, err := e.b.call(kind, 0, "POST", path, map[string]float64{"radius": r})
	if err != nil {
		p.miss()
		return resultBody{}, false
	}
	res, ok := checkResult(rep, r, want)
	if ok {
		e.noteResult(res.ID)
	}
	p.record(kind, rep.lat, rep.cpu, ok, len(rep.body), res.Accesses)
	return res, ok
}

// checkResult is the explore oracle: a 201 whose radius and ids equal
// the locally computed answer.
func checkResult(rep reply, r float64, want []int) (resultBody, bool) {
	var res resultBody
	if rep.status != 201 || json.Unmarshal(rep.body, &res) != nil {
		return res, false
	}
	return res, res.Radius == r && res.ID != "" && slices.Equal(res.IDs, want)
}

func (e *explore) noteResult(id string) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "r"))
	if err != nil {
		return
	}
	e.mu.Lock()
	e.lastResult = max(e.lastResult, n)
	e.mu.Unlock()
}

func (e *explore) heapLive() (uint64, error) { return gcLiveHeap() }

func (e *explore) check(*phase) error { return nil }

func (e *explore) layers(p *phase, d *details) []kindLayers {
	st := spanTimes(p.b.tr.joined())
	sel := st["select"]
	zin, zout := st["zoom_in"], st["zoom_out"]
	if sel == nil || zin == nil || zout == nil {
		return nil
	}
	t := p.tel
	// The phase's global-select time belongs to the selects; the zoom
	// route serves both zoom kinds, so zooms are attributed together.
	selL := httpLayers("select", sel.n, sel.client, sel.handler, t.ns(hRouteSelect), t)
	zoomL := httpLayers("zoom", zin.n+zout.n, zin.client+zout.client, zin.handler+zout.handler, t.ns(hRouteZoom), reading{})

	nSel, nZoom := sel.n, zin.n+zout.n
	d.add("server.select_ms", t.mean(hRouteSelect), "ms")
	d.add("server.zoom_ms", t.mean(hRouteZoom), "ms")
	d.add("core.select_ms", t.mean(hSelectGlobal), "ms")
	d.add("server.select_wait_ms", perOp(selL.server, nSel)/1e6, "ms")
	d.add("server.select_bytes", perOp(float64(p.bytes["select"]), p.count("select")), "count")
	d.add("transport.select_ms", perOp(selL.transport, nSel)/1e6, "ms")
	d.add("transport.zoom_ms", perOp(zoomL.transport, nZoom)/1e6, "ms")
	d.add("residual.select_ms", perOp(selL.residual(), nSel)/1e6, "ms")
	d.add("residual.zoom_ms", perOp(zoomL.residual(), nZoom)/1e6, "ms")
	for _, kind := range []string{"select", "zoom_in", "zoom_out"} {
		d.add("mtree.accesses_per_"+kind, perOp(float64(p.accesses[kind]), p.count(kind)), "count")
	}
	e.mu.Lock()
	d.add("server.results_stored", float64(e.lastResult), "count")
	e.mu.Unlock()
	return []kindLayers{selL, zoomL}
}

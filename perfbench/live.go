package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sort"
	"strconv"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/server"
	"github.com/discdiversity/disc/internal/telemetry"
)

// live: writes beside reads on one durable dataset. One client issues a
// seeded insert:delete = 3:1 stream with per-op flush and reads the
// published selection after every liveWritesPerRead writes.
const (
	liveSeedN     = 20000
	liveRadius    = 0.01
	liveDataset   = "live"
	liveWriteRate = 160 // nominal writes per second
	liveWarm      = 48  // untimed writes in each setup
	// liveWritesPerRead writes precede each read.
	liveWritesPerRead = 4
	// liveFsync is -fsync none rather than discserve's default
	// "always". The WAL must stay inside the checkout, on a disk shared
	// with other tenants, where a per-write fsync moved live throughput
	// by 1.8x between runs. Without fsync a write still frames, checksums
	// and writes its WAL record, as "always" does on tmpfs at ~1 µs per
	// fsync, and the fsync count stays exact (0) where a batching
	// interval would make it depend on throughput.
	liveFsync = disc.FsyncNone
)

type live struct {
	b   *bench
	dir string
	pts []disc.Point // the seed points, then the insert stream
	// create is the POST /v1/live body.
	create []byte
	srv    *server.Server

	// Writer state, reset by every setup so the measured sequence only
	// depends on the seed.
	rng       *rand.Rand
	next      int   // id the server assigns to the next insert
	mine      []int // ids the writer inserted that are still alive
	deleted   []bool
	liveCount int

	repairP99 float64
}

func newLive(b *bench, dir string) workload { return &live{b: b, dir: dir} }

func (l *live) identity() map[string]any {
	return map[string]any{
		"dataset": fmt.Sprintf("durable live clustered seed n=%d d=2 clusters=10 euclidean r=%g, fixed (layout seed %d)", liveSeedN, liveRadius, layoutSeed),
		"writes":  "insert:delete 3:1 from the same clusters in seeded order, flush per op",
		"clients": 1,
		"reads":   fmt.Sprintf("one selection read after every %d writes", liveWritesPerRead),
		"fsync":   liveFsync.String(),
	}
}

func (l *live) writesPerPhase() int { return opsFor(l.b.cfg.seconds, liveWriteRate) }

func (l *live) prepare() error {
	pool := liveSeedN + liveWarm + 2*l.writesPerPhase()
	pts, err := clusteredPoints(pool, layoutSeed)
	if err != nil {
		return err
	}
	// The seed points are fixed; the insert stream comes from the same
	// clusters in a seeded order.
	shuffle(pts[liveSeedN:], l.b.cfg.seed, 4)
	l.pts = pts
	l.create, err = json.Marshal(map[string]any{"name": liveDataset, "radius": liveRadius, "points": pts[:liveSeedN]})
	return err
}

func (l *live) setup(rep int) error {
	l.srv = server.New(serverOptions(filepath.Join(l.dir, "live-"+strconv.Itoa(rep)), liveFsync)...)
	l.b.serve(l.srv)
	if err := l.b.mustCall("POST", "/v1/live", l.create, nil); err != nil {
		return err
	}
	l.rng = rand.New(rand.NewPCG(l.b.cfg.seed, 2))
	l.next, l.mine, l.liveCount = liveSeedN, nil, liveSeedN
	l.deleted = make([]bool, len(l.pts))
	warm := newPhase(l.b, false)
	l.loop(warm, liveWarm)
	if warm.failed > 0 {
		return fmt.Errorf("%d warm-up ops failed", warm.failed)
	}
	return nil
}

func (l *live) teardown() error { return l.srv.Close() }

func (l *live) run(p *phase) error {
	writes := l.writesPerPhase()
	var repair *telemetry.Histogram
	var repair0 telemetry.HistSnapshot
	if p.traced {
		repair = telemetry.Default().Histogram("disc_live_repair_seconds", "")
		repair0 = repair.Snapshot()
	}
	l.loop(p, writes)
	if p.traced {
		l.repairP99 = float64(repair.Snapshot().Sub(repair0).Quantile(0.99)) / 1e6
	}
	return nil
}

// loop issues writes writes, with a read after every
// liveWritesPerRead of them, one request at a time.
func (l *live) loop(p *phase, writes int) {
	for i := 1; i <= writes; i++ {
		l.write(p)
		if i%liveWritesPerRead == 0 {
			l.read(p)
		}
	}
}

// mutationBody is the server's insert/delete answer.
type mutationBody struct {
	ID      int `json:"id"`
	Live    int `json:"live"`
	Pending int `json:"pending"`
}

// write issues the next op of the seeded stream and checks the id and
// live count the server returns.
func (l *live) write(p *phase) {
	kind, path := "insert", "/v1/live/"+liveDataset+"/insert"
	id, wantLive := l.next, l.liveCount+1
	var body any = map[string]any{"point": l.pts[id], "flush": true}
	pick := -1
	if len(l.mine) > 0 && l.rng.IntN(4) == 0 {
		pick = l.rng.IntN(len(l.mine))
		kind, path = "delete", "/v1/live/"+liveDataset+"/delete"
		id, wantLive = l.mine[pick], l.liveCount-1
		body = map[string]any{"id": id, "flush": true}
	}
	var before reading
	if p.traced {
		before = l.b.probe.read()
	}
	rep, err := l.b.call(kind, 0, "POST", path, body)
	if p.traced {
		p.addStages(kind, l.b.probe.read().sub(before))
	}
	if err != nil {
		p.miss()
		return
	}
	var res mutationBody
	ok := rep.status/100 == 2 && json.Unmarshal(rep.body, &res) == nil &&
		res.ID == id && res.Live == wantLive && res.Pending == 0
	if ok {
		l.liveCount = wantLive
		if pick < 0 {
			l.mine = append(l.mine, id)
			l.next++
		} else {
			l.mine[pick] = l.mine[len(l.mine)-1]
			l.mine = l.mine[:len(l.mine)-1]
			l.deleted[id] = true
		}
	}
	p.record("write", rep.lat, rep.cpu, ok, len(rep.body), 0)
}

// selectionBody is the server's published-selection answer.
type selectionBody struct {
	Size  int    `json:"size"`
	IDs   []int  `json:"ids"`
	State string `json:"state"`
}

// read polls the selection. It is checked for shape: a ready,
// non-empty, strictly ascending list of ids the server has assigned.
// The exact ids are checked once, at the end of the run.
func (l *live) read(p *phase) {
	rep, err := l.b.call("read", 0, "GET", "/v1/live/"+liveDataset+"/selection", nil)
	if err != nil {
		p.miss()
		return
	}
	var res selectionBody
	ok := rep.status == 200 && json.Unmarshal(rep.body, &res) == nil &&
		res.State == "ready" && res.Size == len(res.IDs) && len(res.IDs) > 0 &&
		res.IDs[0] >= 0 && res.IDs[len(res.IDs)-1] < l.next && strictlyAscending(res.IDs)
	p.record("read", rep.lat, rep.cpu, ok, len(rep.body), 0)
}

func strictlyAscending(ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

func (l *live) heapLive() (uint64, error) { return gcLiveHeap() }

// check compares the served selection with a from-scratch component
// select over the surviving points.
func (l *live) check(*phase) error {
	var got selectionBody
	if err := l.b.mustCall("GET", "/v1/live/"+liveDataset+"/selection", nil, &got); err != nil {
		return err
	}
	want, err := liveOracle(l.pts[:l.next], l.deleted, liveRadius)
	if err != nil {
		return err
	}
	if !slices.Equal(got.IDs, want) {
		return fmt.Errorf("served selection (%d ids) differs from a from-scratch select (%d ids)", len(got.IDs), len(want))
	}
	return nil
}

// liveOracle selects over the points whose ids are not deleted and maps
// the dense positions back to ids.
func liveOracle(pts []disc.Point, deleted []bool, r float64) ([]int, error) {
	var survivors []disc.Point
	var ids []int
	for id, pt := range pts {
		if !deleted[id] {
			survivors = append(survivors, pt)
			ids = append(ids, id)
		}
	}
	d, err := disc.New(survivors, disc.WithIndex(disc.IndexCoverageGraph))
	if err != nil {
		return nil, err
	}
	res, err := d.Select(r, disc.WithSelectMode(disc.SelectComponents))
	if err != nil {
		return nil, err
	}
	want := make([]int, 0, res.Size())
	for _, j := range res.IDs() {
		want = append(want, ids[j])
	}
	sort.Ints(want)
	return want, nil
}

func (l *live) layers(p *phase, d *details) []kindLayers {
	st := spanTimes(p.b.tr.joined())
	var out []kindLayers
	writes := 0
	var transport float64
	for _, w := range []struct {
		kind  string
		route int
	}{{"insert", hRouteInsert}, {"delete", hRouteDelete}} {
		s := st[w.kind]
		if s == nil {
			continue
		}
		g := p.stages[w.kind]
		k := httpLayers(w.kind, s.n, s.client, s.handler, g.ns(w.route), g)
		out = append(out, k)
		writes += s.n
		transport += k.transport
		d.add("server."+w.kind+"_ms", g.mean(w.route), "ms")
		d.add("residual."+w.kind+"_ms", perOp(k.residual(), k.n)/1e6, "ms")
	}
	if s := st["read"]; s != nil {
		k := httpLayers("read", s.n, s.client, s.handler, p.tel.ns(hRouteSelection), reading{})
		out = append(out, k)
		d.add("server.selection_ms", p.tel.mean(hRouteSelection), "ms")
		d.add("server.selection_bytes", perOp(float64(p.bytes["read"]), p.count("read")), "count")
		d.add("transport.read_ms", perOp(k.transport, k.n)/1e6, "ms")
		d.add("residual.read_ms", perOp(k.residual(), k.n)/1e6, "ms")
	}
	all := p.stages["insert"].add(p.stages["delete"])
	d.add("transport.write_ms", perOp(transport, writes)/1e6, "ms")
	d.add("core.live_insert_ms", all.mean(hLiveInsert), "ms")
	d.add("core.live_delete_ms", all.mean(hLiveDelete), "ms")
	d.add("core.live_repair_ms", all.mean(hLiveRepair), "ms")
	d.add("core.live_repair_p99_ms", l.repairP99, "ms")
	d.add("core.repaired_components_per_write", perOp(float64(all.ctr[cRepaired]), writes), "count")
	d.add("wal.append_ms", all.mean(hWALAppend), "ms")
	d.add("wal.fsync_ms", all.mean(hWALFsync), "ms")
	d.add("wal.appends_per_write", perOp(float64(all.ctr[cWALAppends]), writes), "count")
	d.add("wal.fsyncs_per_write", perOp(float64(all.ctr[cWALFsyncs]), writes), "count")
	return out
}

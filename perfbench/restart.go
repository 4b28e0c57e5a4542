package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/server"
)

// restart: boot recovery of a data directory holding two durable
// datasets, each a checkpoint plus a WAL tail. One op is server.New →
// RestoreLive → GET both selections → Close.
const (
	restartN = 8000
	// The WAL tail inserts restartInserts points and deletes every
	// third of them, 1,000 ops in all, in a seeded order. The points that
	// survive are the same for every seed, so the recovered datasets,
	// and the work of recovering them, are too. When the seed also drew
	// which points survived, one seed's recoveries cost 11% more CPU
	// than another's.
	restartInserts = 750
	restartTail    = restartInserts + restartInserts/3
	restartRadius  = 0.01
	restartRate    = 5 // nominal recoveries per second
	// restartFsync is -fsync none, as for live: recovery appends
	// nothing, so the policy only changes set-up, where per-insert
	// fsyncs on the shared disk made set-up time vary 2x between runs.
	// Close still fsyncs each log once.
	restartFsync = disc.FsyncNone
)

var restartNames = [2]string{"a", "b"}

type restart struct {
	b      *bench
	dir    string
	pts    [2][]disc.Point // per dataset: the checkpointed points, then the tail's inserts
	create [2][]byte
	home   string
	want   [2][]int // the selections served before shutdown
}

func newRestart(b *bench, dir string) workload { return &restart{b: b, dir: dir} }

func (r *restart) identity() map[string]any {
	return map[string]any{
		"dataset": fmt.Sprintf("2 durable datasets, each clustered n=%d d=2 clusters=10 euclidean r=%g (fixed, layout seeds %d and %d), checkpointed, then a %d-op WAL tail: %d inserts and deletes of every third of them, in seeded order",
			restartN, restartRadius, layoutSeed, layoutSeed+1, restartTail, restartInserts),
		"op":      "server.New, RestoreLive, GET both selections, Close",
		"clients": 1,
		"fsync":   restartFsync.String(),
	}
}

func (r *restart) prepare() error {
	for i, name := range restartNames {
		pts, err := clusteredPoints(restartN+restartInserts, layoutSeed+uint64(i))
		if err != nil {
			return err
		}
		r.pts[i] = pts
		r.create[i], err = json.Marshal(map[string]any{"name": name, "radius": restartRadius, "points": pts[:restartN]})
		if err != nil {
			return err
		}
	}
	return nil
}

// setup writes the data directory through the API, records the served
// selections, shuts the server down and runs one untimed recovery.
func (r *restart) setup(rep int) error {
	r.home = filepath.Join(r.dir, "restart-"+strconv.Itoa(rep))
	srv := server.New(serverOptions(r.home, restartFsync)...)
	r.b.serve(srv)
	for i, name := range restartNames {
		if err := r.fill(i, name); err != nil {
			srv.Close()
			return err
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	warm := newPhase(r.b, false)
	r.recover(warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up recovery failed")
	}
	return nil
}

// fill creates dataset i, checkpoints it, appends the seeded tail and
// records the converged selection.
func (r *restart) fill(i int, name string) error {
	base := "/v1/live/" + name
	if err := r.b.mustCall("POST", "/v1/live", r.create[i], nil); err != nil {
		return err
	}
	if err := r.b.mustCall("POST", base+"/snapshot", nil, nil); err != nil {
		return err
	}
	// Tail point j is inserted in a seeded order and, when j%3 == 0,
	// deleted at a seeded later place.
	rng := rand.New(rand.NewPCG(r.b.cfg.seed, uint64(3+i)))
	order := rng.Perm(restartInserts)
	next := restartN // id the server assigns to the next insert
	var doomed []int // ids inserted and still to be deleted
	for k := 0; k < len(order) || len(doomed) > 0; {
		if len(doomed) > 0 && (k == len(order) || rng.IntN(4) == 0) {
			d := rng.IntN(len(doomed))
			if err := r.b.mustCall("POST", base+"/delete", map[string]any{"id": doomed[d]}, nil); err != nil {
				return err
			}
			doomed[d] = doomed[len(doomed)-1]
			doomed = doomed[:len(doomed)-1]
			continue
		}
		j := order[k]
		k++
		if err := r.b.mustCall("POST", base+"/insert", map[string]any{"point": r.pts[i][restartN+j]}, nil); err != nil {
			return err
		}
		if j%3 == 0 {
			doomed = append(doomed, next)
		}
		next++
	}
	if err := r.b.mustCall("POST", base+"/flush", nil, nil); err != nil {
		return err
	}
	var sel selectionBody
	if err := r.b.mustCall("GET", base+"/selection", nil, &sel); err != nil {
		return err
	}
	r.want[i] = sel.IDs
	return nil
}

func (r *restart) teardown() error { return os.RemoveAll(r.home) }

func (r *restart) run(p *phase) error {
	for i := opsFor(p.b.cfg.seconds, restartRate); i > 0; i-- {
		r.recover(p)
	}
	return nil
}

// recover runs one timed recovery and checks that it serves exactly the
// pre-shutdown selections.
func (r *restart) recover(p *phase) {
	tr := r.b.tr
	root := tr.newID()
	var before reading
	if p.traced {
		before = r.b.probe.read()
	}
	cpu0, start := cpuNow(), time.Now()

	t := time.Now()
	srv := server.New(serverOptions(r.home, restartFsync)...)
	tr.since("server.new", root, t)
	r.b.serve(srv)
	t = time.Now()
	n, err := srv.RestoreLive()
	tr.since("restore", root, t)
	ok := err == nil && n == len(restartNames)
	bytes := 0
	for i, name := range restartNames {
		rep, err := r.b.call("read", root, "GET", "/v1/live/"+name+"/selection", nil)
		if err != nil {
			ok = false
			continue
		}
		bytes += len(rep.body)
		var sel selectionBody
		ok = ok && rep.status == 200 && json.Unmarshal(rep.body, &sel) == nil &&
			sel.State == "ready" && slices.Equal(sel.IDs, r.want[i])
	}
	t = time.Now()
	if err := srv.Close(); err != nil {
		ok = false
	}
	tr.since("close", root, t)
	end, cpu1 := time.Now(), cpuNow()

	if p.traced {
		p.addStages("recover", r.b.probe.read().sub(before))
		tr.add(span{ID: root, Name: "recover", Start: tr.ts(start), End: tr.ts(end)})
	}
	p.record("recover", end.Sub(start), cpu1-cpu0, ok, bytes, 0)
}

// heapLive recovers once more, untimed, and measures the live heap
// while the recovered server is still open.
func (r *restart) heapLive() (uint64, error) {
	srv := server.New(serverOptions(r.home, restartFsync)...)
	defer srv.Close()
	if _, err := srv.RestoreLive(); err != nil {
		return 0, err
	}
	return gcLiveHeap()
}

func (r *restart) check(*phase) error { return nil }

func (r *restart) layers(p *phase, d *details) []kindLayers {
	spans := p.b.tr.joined()
	named := map[string]float64{}
	for _, s := range spans {
		named[s.Name] += s.dur()
	}
	n := p.count("recover")
	reads := spanTimes(spans)["read"]
	if n == 0 || reads == nil {
		return nil
	}
	g := p.stages["recover"]
	k := kindLayers{kind: "recover", n: n, client: named["recover"], transport: reads.client - reads.handler}
	// The datasets recover on their own supervisors in parallel, so the
	// stage time inside restore is divided by the number of recoveries
	// to put it on restore's wall clock.
	width := perOp(float64(g.ctr[cRecoveries]), n)
	if width < 1 {
		width = 1
	}
	k.core, k.grid, k.wal, k.snap = g.core()/width, g.grid()/width, g.wal()/width, g.snap()/width
	k.manager = named["restore"] - (k.core + k.grid + k.wal + k.snap)
	k.server = named["server.new"] + named["close"] + g.ns(hRouteSelection)

	d.add("server.new_ms", perOp(named["server.new"], n)/1e6, "ms")
	d.add("server.restore_ms", perOp(named["restore"], n)/1e6, "ms")
	d.add("server.close_ms", perOp(named["close"], n)/1e6, "ms")
	d.add("server.selection_ms", g.mean(hRouteSelection), "ms")
	d.add("server.selection_bytes", perOp(float64(p.bytes["recover"]), reads.n), "count")
	d.add("transport.read_ms", perOp(k.transport, reads.n)/1e6, "ms")
	d.add("snap.read_ms", g.mean(hSnapRead), "ms")
	d.add("wal.replay_ms", g.mean(hWALReplay), "ms")
	d.add("wal.replayed_records_per_recover", perOp(float64(g.ctr[cWALReplayed]), n), "count")
	d.add("core.live_insert_ms", g.mean(hLiveInsert), "ms")
	d.add("core.live_delete_ms", g.mean(hLiveDelete), "ms")
	d.add("grid.label_ms", g.mean(hGridLabel), "ms")
	d.add("manager.recoveries_per_recover", width, "count")
	d.add("manager.retries", float64(g.ctr[cRetries]), "count")
	d.add("manager.unattributed_ms", perOp(k.manager, n)/1e6, "ms")
	d.add("residual.recover_ms", perOp(k.residual(), n)/1e6, "ms")
	return []kindLayers{k}
}

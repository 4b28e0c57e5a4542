package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// kindLayers splits the summed client time of one op kind by layer.
// Every field but n is a total in nanoseconds; the layers and residual
// add up to client by construction.
type kindLayers struct {
	kind                                                      string
	n                                                         int
	client, transport, server, manager, core, grid, wal, snap float64
}

// residual is the part of the client time no layer accounts for. For an
// HTTP op it is handler span − route histogram: the middleware chain
// and mux dispatch, which nothing times by name.
func (k kindLayers) residual() float64 {
	return k.client - (k.transport + k.server + k.manager + k.core + k.grid + k.wal + k.snap)
}

// httpLayers attributes n requests of one kind: client and handler are
// the summed span times, route the summed route histogram time, and st
// the stage telemetry that ran inside those requests.
func httpLayers(kind string, n int, client, handler, route float64, st reading) kindLayers {
	k := kindLayers{kind: kind, n: n, client: client, transport: client - handler,
		core: st.core(), grid: st.grid(), wal: st.wal(), snap: st.snap()}
	k.server = route - k.core - k.grid - k.wal - k.snap
	return k
}

// setupRows name the stage means reported over the timed set-ups,
// where the work they measure lands in setup_s.
var setupRows = []struct {
	name string
	hist int
}{
	{"server.create", hRouteCreateDataset},
	{"server.create_live", hRouteCreateLive},
	{"core.live_insert", hLiveInsert},
	{"core.live_repair", hLiveRepair},
	{"core.select_components", hSelectComponents},
	{"grid.build", hGridBuild},
	{"grid.join", hGridJoin},
	{"grid.label", hGridLabel},
	{"wal.append", hWALAppend},
	{"snap.write", hSnapWrite},
}

// layerNames orders the layer columns.
var layerNames = []string{"transport", "server", "manager", "core", "grid", "wal", "snap", "residual"}

func (k kindLayers) values() []float64 {
	return []float64{k.transport, k.server, k.manager, k.core, k.grid, k.wal, k.snap, k.residual()}
}

// spanTimes sums, per client span name, the client span time and the
// time of the handler span joined to it; n counts the client spans.
type spanTotals struct {
	n               int
	client, handler float64
}

func spanTimes(spans []span) map[string]*spanTotals {
	byID := make(map[int64]*spanTotals)
	out := make(map[string]*spanTotals)
	for _, s := range spans {
		kind, ok := strings.CutPrefix(s.Name, "client.")
		if !ok {
			continue
		}
		t := out[kind]
		if t == nil {
			t = &spanTotals{}
			out[kind] = t
		}
		t.n++
		t.client += s.dur()
		byID[s.ID] = t
	}
	for _, s := range spans {
		if s.Name == "handler" {
			if t := byID[s.Parent]; t != nil {
				t.handler += s.dur()
			}
		}
	}
	return out
}

// details collects a workload's named rows for the ops it issues.
type details struct{ rows []row }

type row struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (d *details) add(name string, v float64, unit string) {
	d.rows = append(d.rows, row{name, v, unit})
}

// perOp divides a total by an op count (0 when there were no ops).
func perOp(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// report is everything a run measured; it is written as JSON beside the
// spans and summarised on standard output.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Identity  map[string]any    `json:"identity"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	SetupRuns []float64         `json:"setup_runs_s"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Wall      map[string]metric `json:"wall"`
	Usage     map[string]metric `json:"usage"`
	PerKind   map[string]metric `json:"per_kind"`
	Setup     []row             `json:"setup_layers"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Layers    []layerRow        `json:"layers,omitempty"`
	Detail    []row             `json:"detail,omitempty"`
	SpanSelf  []spanSelf        `json:"span_self,omitempty"`
}

// layerRow is one op kind's mean per-op time by layer, in ms.
type layerRow struct {
	Kind     string             `json:"kind"`
	N        int                `json:"n"`
	ClientMs float64            `json:"client_ms"`
	Layers   map[string]float64 `json:"layers_ms"`
}

// spanSelf is the mean duration and self time (duration minus the time
// its children cover) of the spans sharing one name.
type spanSelf struct {
	Name   string  `json:"name"`
	N      int     `json:"n"`
	MeanMs float64 `json:"mean_ms"`
	SelfMs float64 `json:"self_ms"`
}

func buildReport(b *bench, w workload, setups []float64, setupDelta reading, plain, traced *phase) *report {
	rep := &report{
		Workload: b.cfg.workload, Seed: b.cfg.seed, Seconds: b.cfg.seconds, Trace: b.cfg.trace,
		Identity:  identity(b, w),
		SetupRuns: setups,
		EndToEnd:  endToEnd(setups, plain),
		PerKind:   map[string]metric{},
	}
	for kind, xs := range plain.samples {
		rep.PerKind[kind+"_p50_ms"] = metric{quantile(walls(xs), 0.5), "ms"}
		rep.PerKind[kind+"_p90_ms"] = metric{quantile(walls(xs), 0.9), "ms"}
		rep.PerKind[kind+"_cpu_p50_ms"] = metric{quantile(cpus(xs), 0.5), "ms"}
		rep.PerKind[kind+"_cpu_p90_ms"] = metric{quantile(cpus(xs), 0.9), "ms"}
		rep.PerKind[kind+"_n"] = metric{float64(len(xs)), "count"}
	}
	all := walls(plain.allSamples())
	rep.Wall = map[string]metric{
		"ops_per_s": {float64(len(all)) / plain.wall.Seconds(), "1/s"},
		"p50_ms":    {quantile(all, 0.5), "ms"},
		"p90_ms":    {quantile(all, 0.9), "ms"},
	}
	rep.Usage = map[string]metric{
		"user_s": {plain.usage.user.Seconds(), "s"},
		"sys_s":  {plain.usage.sys.Seconds(), "s"},
		"minflt": {float64(plain.usage.minflt), "count"},
	}
	for _, s := range setupRows {
		if setupDelta.cnt[s.hist] > 0 {
			rep.Setup = append(rep.Setup, row{"setup." + s.name + "_ms", setupDelta.mean(s.hist), "ms"})
		}
	}
	if e := setupDelta.ctr[cJoinEdges]; e > 0 {
		rep.Setup = append(rep.Setup, row{"setup.grid.join_edges", float64(e) / setupRuns, "count"})
	}
	if traced == nil {
		return rep
	}

	var d details
	kinds := w.layers(traced, &d)
	rep.Detail = d.rows
	ops := traced.ops()
	totals := make([]float64, len(layerNames))
	for _, k := range kinds {
		lr := layerRow{Kind: k.kind, N: k.n, ClientMs: perOp(k.client, k.n) / 1e6, Layers: map[string]float64{}}
		for i, v := range k.values() {
			lr.Layers[layerNames[i]] = perOp(v, k.n) / 1e6
			totals[i] += v
		}
		rep.Layers = append(rep.Layers, lr)
	}
	pl := map[string]metric{}
	for i, name := range layerNames {
		pl[name+".ms_per_op"] = metric{perOp(totals[i], ops) / 1e6, "ms"}
	}
	t := traced.tel
	var accesses, bytes int64
	for kind := range traced.samples {
		accesses += traced.accesses[kind]
		bytes += traced.bytes[kind]
	}
	count := func(name string, v float64) { pl[name] = metric{v, "count"} }
	count("mtree.accesses_per_op", perOp(float64(accesses), ops))
	count("wal.appends_per_op", perOp(float64(t.ctr[cWALAppends]), ops))
	count("wal.fsyncs_per_op", perOp(float64(t.ctr[cWALFsyncs]), ops))
	count("wal.replayed_per_op", perOp(float64(t.ctr[cWALReplayed]), ops))
	count("core.repaired_components_per_op", perOp(float64(t.ctr[cRepaired]), ops))
	count("grid.join_edges_per_op", perOp(float64(t.ctr[cJoinEdges]), ops))
	count("manager.recoveries_per_op", perOp(float64(t.ctr[cRecoveries]), ops))
	count("manager.retries", float64(t.ctr[cRetries]))
	pl["server.response_bytes_per_op"] = metric{perOp(float64(bytes), ops), "B"}
	// Only explore stores results; it reports how many in its details.
	count("server.results_stored", 0)
	for _, r := range d.rows {
		if r.Name == "server.results_stored" {
			count(r.Name, r.Value)
		}
	}
	pl["runtime.alloc_bytes_per_op"] = metric{perOp(traced.rt.allocBytes, ops), "B"}
	pl["runtime.gc_cpu_pct"] = metric{pct(traced.rt.gcCPU, traced.rt.totalCPU), "%"}
	plainRate := opsPerCPUSecond(plain.allSamples())
	tracedRate := opsPerCPUSecond(traced.allSamples())
	pl["trace.overhead_pct"] = metric{100 * (plainRate - tracedRate) / plainRate, "%"}
	rep.PerLayer = pl
	rep.SpanSelf = selfTimes(b.tr.joined())
	return rep
}

// endToEnd computes the result-line metrics of an untraced phase. The
// op costs are CPU times, not wall times; see "Noise rules" in README.md.
func endToEnd(setups []float64, p *phase) map[string]metric {
	all := p.allSamples()
	return map[string]metric{
		"setup_s":       {quantile(setups, 0.5), "s"},
		"ops_per_cpu_s": {opsPerCPUSecond(all), "1/s"},
		"ok_pct":        {pct(float64(p.attempted-p.failed), float64(p.attempted)), "%"},
		"heap_live_mb":  {float64(p.heapLive) / (1 << 20), "MB"},
		"cpu_p50_ms":    {quantile(cpus(all), 0.5), "ms"},
		"cpu_p90_ms":    {quantile(cpus(all), 0.9), "ms"},
	}
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// selfTimes aggregates spans by name: mean duration and mean self time.
func selfTimes(spans []span) []spanSelf {
	child := make(map[int64]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	agg := make(map[string]*spanSelf)
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &spanSelf{Name: s.Name}
			agg[s.Name] = a
		}
		a.N++
		a.MeanMs += s.dur()
		a.SelfMs += s.dur() - child[s.ID]
	}
	out := make([]spanSelf, 0, len(agg))
	for _, a := range agg {
		a.MeanMs /= float64(a.N) * 1e6
		a.SelfMs /= float64(a.N) * 1e6
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// identity stamps the hardware, toolchain and inputs of a run.
func identity(b *bench, w workload) map[string]any {
	id := map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"seed":         b.cfg.seed,
		"holdout_seed": holdoutSeed,
		"seconds":      b.cfg.seconds,
		"wal_fs":       fsType(b.cfg.workdir),
	}
	for k, v := range w.identity() {
		id[k] = v
	}
	return id
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// print writes the human-readable summary, one fact per line.
func (r *report) print(out io.Writer) {
	id, _ := json.Marshal(r.Identity)
	fmt.Fprintf(out, "identity %s\n", id)
	fmt.Fprintf(out, "setup_runs_s %v\n", r.SetupRuns)
	for _, s := range r.Setup {
		fmt.Fprintf(out, "setup %s %.4f %s\n", s.Name, s.Value, s.Unit)
	}
	printMetrics(out, "e2e", r.EndToEnd)
	printMetrics(out, "wall", r.Wall)
	printMetrics(out, "usage", r.Usage)
	printMetrics(out, "kind", r.PerKind)
	for _, l := range r.Layers {
		fmt.Fprintf(out, "layers %s n=%d client_ms=%.4f", l.Kind, l.N, l.ClientMs)
		for _, name := range layerNames {
			fmt.Fprintf(out, " %s=%.4f", name, l.Layers[name])
		}
		fmt.Fprintln(out)
	}
	printMetrics(out, "layer", r.PerLayer)
	for _, d := range r.Detail {
		fmt.Fprintf(out, "detail %s %.4f %s\n", d.Name, d.Value, d.Unit)
	}
	for _, s := range r.SpanSelf {
		fmt.Fprintf(out, "span %s n=%d mean_ms=%.4f self_ms=%.4f\n", s.Name, s.N, s.MeanMs, s.SelfMs)
	}
}

func printMetrics(out io.Writer, prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%s %s %.4f %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}

package main

// The traced half of a run: a CPU profile folded into the repository's
// layers, stage times of named functions, /metrics scrapes, Go runtime
// counters, and a Chrome trace of per-job spans. All of it is measured
// from outside the program: by timing calls into public functions, by
// goroutine labels on the roots the benchmark starts, and by sampling.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// layers folds a sample's self time by the package of its leaf frame.
// The first entry whose package list matches wins; a package matches its
// own name and every package below it. GC work is recognised by its
// stack first (see gcRoots).
var layers = []struct {
	metric string
	pkgs   []string
}{
	{"cpu.kernel_s", []string{"easeio/internal/kernel", "easeio/internal/timekeeper", "easeio/internal/mcu", "easeio/internal/periph"}},
	{"cpu.mem_s", []string{"easeio/internal/mem"}},
	{"cpu.lea_s", []string{"easeio/internal/lea"}},
	{"cpu.runtimes_s", []string{"easeio/internal/core", "easeio/internal/alpaca", "easeio/internal/ink", "easeio/internal/justdo", "easeio/internal/rtbase"}},
	{"cpu.task_s", []string{"easeio/internal/task", "easeio/internal/frontend"}},
	{"cpu.apps_s", []string{"easeio/internal/apps"}},
	{"cpu.power_s", []string{"easeio/internal/power", "easeio/internal/energy"}},
	{"cpu.lazyrand_s", []string{"easeio/internal/lazyrand"}},
	{"cpu.dma_s", []string{"easeio/internal/dma"}},
	{"cpu.stats_s", []string{"easeio/internal/stats", "easeio/internal/units"}},
	{"cpu.experiments_s", []string{"easeio/internal/experiments"}},
	{"cpu.check_s", []string{"easeio/internal/check"}},
	{"cpu.service_s", []string{"easeio/internal/service", "easeio/internal/obs"}},
	{"cpu.fleet_s", []string{"easeio/internal/fleet"}},
	{"cpu.wire_s", []string{"easeio/internal/wire", "encoding/binary", "hash/crc32"}},
	// The benchmark's own code ("main", or its import path in a test
	// binary): client bookkeeping, result digests and the profile it
	// encodes while tracing.
	{"cpu.benchmark_s", []string{"main", "easeio/benchmark", "crypto", "encoding/hex", "compress", "runtime/pprof"}},
	{"cpu.net_json_s", []string{"net", "encoding/json", "bufio", "io", "mime", "log/slog", "os", "syscall",
		"internal/poll", "vendor/golang.org/x/net", "reflect", "unicode/utf8", "strconv"}},
	{"cpu.goruntime_s", []string{"runtime", "internal", "sync", "math", "sort", "slices", "maps", "time",
		"context", "errors", "unicode", "strings", "bytes", "fmt", "hash", "container", "iter", "unique", "weak"}},
}

// gcRoots mark a sample as garbage-collector work wherever its leaf is.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// stages are inclusive times: a sample counts toward a stage when any
// frame of its stack (one goroutine's) is one of the stage's functions.
// TestStageFunctionsExist fails when one of them is renamed away.
var stages = []struct {
	metric string
	funcs  []string
}{
	{"stage.kernel_snapshot_s", []string{"easeio/internal/kernel.(*Device).SnapshotInto"}},
	{"stage.kernel_restore_s", []string{"easeio/internal/kernel.(*Device).Restore"}},
	{"stage.power_failure_unwind_s", []string{"runtime.gopanic", "runtime.gorecover", "runtime.recovery"}},
	{"stage.output_check_s", []string{"easeio/internal/mem.(*Memory).EqualRange",
		"easeio/internal/kernel.(*checkReader).read", "easeio/internal/kernel.(*checkMem).Read",
		"easeio/internal/kernel.(*checkMem).Equal"}},
	{"stage.lea_fir_s", []string{"easeio/internal/lea.Fir"}},
	{"stage.check_golden_s", []string{"easeio/internal/check.goldenPass"}},
	{"stage.check_record_s", []string{"easeio/internal/check.(*recorder).record",
		"easeio/internal/check.(*replayer).recordSuffix", "easeio/internal/check.(*replayer).traceFrom"}},
	{"stage.check_replay_s", []string{"easeio/internal/check.(*replayer).evalFrom",
		"easeio/internal/check.(*replayer).eval"}},
	{"stage.check_classify_s", []string{"easeio/internal/check.(*replayer).classify"}},
	{"stage.json_encode_s", []string{"encoding/json.(*Encoder).Encode"}},
	{"stage.fleet_plan_s", []string{"easeio/internal/fleet.(*Coordinator).planLocked"}},
	{"stage.fleet_merge_s", []string{"easeio/internal/fleet.(*Coordinator).mergeLocked"}},
	{"stage.wal_append_s", []string{"easeio/internal/fleet.(*wal).append"}},
}

// funcPackage returns the import path of a profiled function name such as
// "easeio/internal/kernel.(*Ctx).Charge" or
// "sync/atomic.(*Pointer[easeio/internal/x.T]).Load".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		dir, name = name[:i+1], name[i+1:]
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return dir + name
}

func inPackage(pkg, prefix string) bool {
	return pkg == prefix || strings.HasPrefix(pkg, prefix+"/")
}

// fold attributes every sample's CPU time: to a layer by its leaf (or to
// GC by its stack), to every stage on its stack, and to its role label.
// The result maps metric names to seconds; cpu.other_s holds what no layer
// claims, by leaf function in other, and cpu.total_s everything.
func fold(p *profile) (out, other map[string]float64) {
	out, other = map[string]float64{}, map[string]float64{}
	cache := map[string]string{}
	layerOf := func(leaf string) string {
		if m, ok := cache[leaf]; ok {
			return m
		}
		pkg := funcPackage(leaf)
		m := "cpu.other_s"
		if !strings.Contains(leaf, ".") {
			// A symbol outside any Go package: the runtime's C or
			// assembly parts, such as the race detector or the vDSO.
			m = "cpu.goruntime_s"
		}
	search:
		for _, l := range layers {
			for _, prefix := range l.pkgs {
				if inPackage(pkg, prefix) {
					m = l.metric
					break search
				}
			}
		}
		cache[leaf] = m
		return m
	}
	for _, smp := range p.samples {
		sec := float64(smp.nanos) / 1e9
		out["cpu.total_s"] += sec
		onStack := map[string]bool{}
		for _, fn := range smp.stack {
			onStack[fn] = true
		}
		metric := ""
		for _, fn := range gcRoots {
			if onStack[fn] {
				metric = "cpu.gc_s"
				break
			}
		}
		if metric == "" && len(smp.stack) > 0 {
			metric = layerOf(smp.stack[0])
		} else if metric == "" {
			metric = "cpu.other_s"
		}
		out[metric] += sec
		if metric == "cpu.other_s" && len(smp.stack) > 0 {
			other[smp.stack[0]] += sec
		}
		for _, st := range stages {
			for _, fn := range st.funcs {
				if onStack[fn] {
					out[st.metric] += sec
					break
				}
			}
		}
		if role := smp.labels["role"]; role != "" {
			out["label."+role+"_s"] += sec
		}
	}
	return out, other
}

// scrape reads /metrics and sums each series family over its labels.
func scrape(ctx context.Context, s *stack) (map[string]float64, error) {
	text, err := s.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.Contains(name[i:], "le=") {
				continue // histogram buckets; _sum and _count carry the totals
			}
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// layerRun collects the traced half's measurements.
type layerRun struct {
	ctx    context.Context
	s      *stack
	builds *buildLog

	prof           bytes.Buffer
	folded         map[string]float64
	otherLeaves    map[string]float64
	scrape0        map[string]float64
	scrape1        map[string]float64
	mem0, mem1     runtime.MemStats
	build0, build1 [2]int64 // count, nanoseconds
}

func (l *layerRun) begin() error {
	var err error
	if l.scrape0, err = scrape(l.ctx, l.s); err != nil {
		return err
	}
	runtime.ReadMemStats(&l.mem0)
	l.build0 = [2]int64{l.builds.count.Load(), l.builds.nanos.Load()}
	l.builds.spansOn.Store(true)
	return pprof.StartCPUProfile(&l.prof)
}

func (l *layerRun) end() error {
	pprof.StopCPUProfile()
	p, err := decodeProfile(l.prof.Bytes())
	if err != nil {
		return err
	}
	l.builds.spansOn.Store(false)
	l.build1 = [2]int64{l.builds.count.Load(), l.builds.nanos.Load()}
	runtime.ReadMemStats(&l.mem1)
	l.folded, l.otherLeaves = fold(p)
	l.scrape1, err = scrape(l.ctx, l.s)
	return err
}

// metrics computes every per-layer metric from the traced passes; the
// untraced passes give the rate the tracing overhead is measured against.
func (l *layerRun) metrics(w workload, traced, untraced []passStats) map[string]float64 {
	passes := float64(len(traced))
	out := map[string]float64{}
	for k, v := range l.folded {
		out[k] = v / passes
	}
	var jobs float64
	var submit, queue, run, fetch, lease []float64
	var bodyBytes float64
	var cc checkCounts
	for _, p := range traced {
		for _, smp := range p.samples {
			jobs++
			submit = append(submit, ms(smp.post))
			queue = append(queue, ms(smp.queued))
			run = append(run, ms(smp.ran))
			fetch = append(fetch, ms(smp.fetch))
			lease = append(lease, ms(smp.leaseWait))
			bodyBytes += float64(smp.bodyBytes)
			cc.pointsD1 += smp.checks.pointsD1
			cc.pointsD2 += smp.checks.pointsD2
			cc.expandedD2 += smp.checks.expandedD2
			cc.collapsed += smp.checks.collapsed
			cc.divergences += smp.checks.divergences
		}
	}
	out["service.submit_ms_p50"] = percentile(submit, 0.5)
	out["service.queue_wait_ms_p50"] = percentile(queue, 0.5)
	out["service.run_ms_p50"] = percentile(run, 0.5)
	out["service.fetch_ms_p50"] = percentile(fetch, 0.5)
	out["service.result_kb_mean"] = bodyBytes / jobs / 1024
	out["check.points_d1"] = float64(cc.pointsD1) / passes
	out["check.points_d2"] = float64(cc.pointsD2) / passes
	if n := cc.expandedD2 + cc.collapsed; n > 0 {
		out["check.collapsed_d2_ratio"] = float64(cc.collapsed) / float64(n)
	}
	out["check.divergences"] = float64(cc.divergences) / passes

	out["apps.builds_per_job"] = float64(l.build1[0]-l.build0[0]) / jobs
	out["apps.build_ms_per_job"] = float64(l.build1[1]-l.build0[1]) / 1e6 / jobs

	delta := func(name string) float64 { return l.scrape1[name] - l.scrape0[name] }
	if w.Fleet {
		out["fleet.wal_fsyncs_per_job"] = delta("easeio_fleet_wal_fsync_seconds_count") / jobs
		out["fleet.wal_fsync_ms_per_job"] = delta("easeio_fleet_wal_fsync_seconds_sum") * 1e3 / jobs
		out["fleet.merge_ms_per_job"] = delta("easeio_fleet_shard_merge_seconds_sum") * 1e3 / jobs
		out["fleet.leases_per_job"] = delta("easeio_fleet_leases_total") / jobs
		out["fleet.retries"] = delta("easeio_fleet_shard_retries_total") / passes
		out["fleet.lease_wait_ms_p50"] = percentile(lease, 0.5)
	}

	out["go.gc_cycles"] = float64(l.mem1.NumGC-l.mem0.NumGC) / passes
	out["go.gc_pause_ms"] = float64(l.mem1.PauseTotalNs-l.mem0.PauseTotalNs) / 1e6 / passes
	out["go.alloc_mb_per_job"] = float64(l.mem1.TotalAlloc-l.mem0.TotalAlloc) / (1 << 20) / jobs

	plain, withTrace := median(passRates(untraced, jobRate)), median(passRates(traced, jobRate))
	out["trace.overhead_pct"] = (plain/withTrace - 1) * 100
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerReport is the file a traced run writes next to its Chrome trace.
type layerReport struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	TracedPasses  int                    `json:"traced_passes"`
	Metrics       map[string]metricValue `json:"metrics"`
	SpecLatencyMs []specLatency          `json:"sorted_spec_latency_ms"`
	Layers        map[string][]string    `json:"layer_packages"`
	Stages        map[string][]string    `json:"stage_functions"`
	// Unattributed holds the CPU seconds per traced pass of leaf
	// functions no layer claims (cpu.other_s), to extend layer_packages.
	Unattributed map[string]float64 `json:"unattributed_leaf_s"`
}

type specLatency struct {
	Spec string  `json:"spec"`
	Ms   float64 `json:"ms"`
}

// write saves DIR/layers-<workload>.json, DIR/trace-<workload>.json and
// the raw profile DIR/cpu-<workload>.pprof (for go tool pprof).
func (l *layerRun) write(o options, traced []passStats, m map[string]metricValue) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.traceDir, "cpu-"+o.w.Name+".pprof"), l.prof.Bytes(), 0o644); err != nil {
		return err
	}
	rep := layerReport{
		Workload: o.w.Name, Seed: o.seed, TracedPasses: len(traced), Metrics: m,
		Layers: map[string][]string{}, Stages: map[string][]string{}, Unattributed: map[string]float64{},
	}
	for fn, sec := range l.otherLeaves {
		rep.Unattributed[fn] = sec / float64(len(traced))
	}
	for _, st := range specTimes(o.w, traced) {
		rep.SpecLatencyMs = append(rep.SpecLatencyMs, specLatency{Spec: st.key, Ms: st.ms})
	}
	for _, la := range layers {
		rep.Layers[la.metric] = la.pkgs
	}
	rep.Layers["cpu.gc_s"] = gcRoots
	for _, st := range stages {
		rep.Stages[st.metric] = st.funcs
	}
	if err := writeJSON(filepath.Join(o.traceDir, "layers-"+o.w.Name+".json"), rep); err != nil {
		return err
	}
	l.builds.mu.Lock()
	builds := append([]span(nil), l.builds.spans...)
	l.builds.mu.Unlock()
	return writeJSON(filepath.Join(o.traceDir, "trace-"+o.w.Name+".json"), chromeTrace(o.w, traced, builds))
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// span is one interval of the Chrome trace.
type span struct {
	name, track string
	start       time.Time
	dur         time.Duration
	args        map[string]any
}

// chromeTrace lays each traced job out on its client's track as nested
// spans: the job, then submit, queue (queued_for_ms), run (ran_for_ms,
// with the fleet lease wait inside it) and fetch. Queue and run come from
// the served status at millisecond resolution and are placed after the
// submit round trip. App builds from the wrapped factories get their own
// track.
func chromeTrace(w workload, traced []passStats, builds []span) map[string]any {
	var spans []span
	for _, p := range traced {
		for _, smp := range p.samples {
			key := w.Jobs[smp.job].key()
			track := fmt.Sprintf("client %d", smp.client)
			spans = append(spans,
				span{name: key, track: track, start: smp.start, dur: smp.total,
					args: map[string]any{"work": smp.work, "result_bytes": smp.bodyBytes}},
				span{name: "submit", track: track, start: smp.start, dur: smp.post})
			t := smp.start.Add(smp.post)
			spans = append(spans, span{name: "queue", track: track, start: t, dur: smp.queued})
			t = t.Add(smp.queued)
			spans = append(spans, span{name: "run", track: track, start: t, dur: smp.ran})
			if smp.leaseWait > 0 {
				spans = append(spans, span{name: "lease wait", track: track, start: t, dur: smp.leaseWait})
			}
			spans = append(spans, span{name: "fetch", track: track, start: smp.start.Add(smp.total - smp.fetch), dur: smp.fetch})
		}
	}
	spans = append(spans, builds...)
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.start.Before(origin) {
			origin = s.start
		}
	}
	tids := map[string]int{}
	events := []map[string]any{}
	for _, s := range spans {
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, map[string]any{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]any{"name": s.track}})
		}
		ev := map[string]any{"name": s.name, "ph": "X", "pid": 1, "tid": tid,
			"ts": float64(s.start.Sub(origin)) / 1e3, "dur": float64(s.dur) / 1e3}
		if s.args != nil {
			ev["args"] = s.args
		}
		events = append(events, ev)
	}
	return map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}
}

package main

import (
	"fmt"

	"easeio/internal/service"
)

// job is one entry of a workload's pass: a sweep or an exhaustive check of
// one app under one runtime. Its key names the result it must reproduce,
// independent of the workload it appears in, so the same spec in two
// workloads (in-process and through the fleet) is pinned to one digest.
type job struct {
	App     string
	Runtime string
	Mode    string // "sweep" or "check"
	Runs    int    // sweep: seeded runs
	K       int    // check: nested-failure depth
	Grid    int    // check: adaptive grid; 0 explores every point
}

func (j job) key() string {
	if j.Mode == "check" && j.Grid > 0 {
		return fmt.Sprintf("check/%s/%s/k=%d/grid=%d", j.App, j.Runtime, j.K, j.Grid)
	}
	if j.Mode == "check" {
		return fmt.Sprintf("check/%s/%s/k=%d", j.App, j.Runtime, j.K)
	}
	return fmt.Sprintf("sweep/%s/%s/runs=%d", j.App, j.Runtime, j.Runs)
}

// spec is the job as submitted. Workers stays 0, so every job fans out
// over GOMAXPROCS engine workers, the service default.
func (j job) spec(seed int64) service.JobSpec {
	s := service.JobSpec{App: j.App, Runtime: j.Runtime, Mode: j.Mode, BaseSeed: jobSeed(seed)}
	if j.Mode == "check" {
		s.Failures = j.K
		s.CheckGrid = j.Grid
		s.CheckExhaustive = j.Grid == 0
	} else {
		s.Runs = j.Runs
	}
	return s
}

// jobSeed maps the benchmark seed to the jobs' base seed. The stride
// exceeds the largest sweep, so two benchmark seeds never share a run.
func jobSeed(seed int64) int64 { return seed << 20 }

// workload is one traffic mix: the job list every pass submits, the number
// of closed-loop clients that share it, and whether jobs run through the
// fleet coordinator.
type workload struct {
	Name    string
	Clients int
	Fleet   bool
	Jobs    []job
}

var runtimes = []string{"Alpaca", "InK", "EaseIO", "JustDo"}

// sweeps lists one sweep per app (in argument order) under every runtime.
func sweeps(runs map[string]int, apps ...string) []job {
	var out []job
	for _, app := range apps {
		for _, rt := range runtimes {
			out = append(out, job{App: app, Runtime: rt, Mode: "sweep", Runs: runs[app]})
		}
	}
	return out
}

// checks lists exhaustive checks, each "app" at each depth in ks, under
// every runtime.
func checks(app string, ks ...int) []job {
	var out []job
	for _, k := range ks {
		for _, rt := range runtimes {
			out = append(out, job{App: app, Runtime: rt, Mode: "check", K: k})
		}
	}
	return out
}

func concat(lists ...[]job) []job {
	var out []job
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// Run counts put each in-process sweep job at roughly 40-100 ms on a
// 2-core host, so no app dominates a pass and the p50/p90 ranks of the
// sorted job times sit away from steps larger than 1.5x (the traced run
// prints the sorted per-spec times to re-check this after a change).
var workloads = []workload{
	// Closure-bodied app sweeps in-process: task bodies, lea and mem do
	// the work, check and fleet none.
	{
		Name:    "sweep-interp",
		Clients: 1,
		Jobs: sweeps(map[string]int{
			"weather": 1280, "weather-db": 1280, "fir": 640, "fir-op": 640,
			"lea": 20000, "sensor": 32000, "branch": 32000,
		}, "weather", "weather-db", "fir", "fir-op", "lea", "sensor", "branch"),
	},
	// Op-list app sweeps in-process: compiled kernels, bulk charging and
	// CheckFast dominate and lea does almost nothing.
	{
		Name:    "sweep-compiled",
		Clients: 1,
		Jobs:    sweeps(map[string]int{"dma": 4000, "temp": 20000}, "dma", "temp"),
	},
	// Exhaustive k=1 and nested k=2 checks in-process: golden, record,
	// restore, replay, classify and nested collapse do the work, and the
	// divergent reports (fig6 under Alpaca/InK, sensor's stale reads)
	// exercise report encoding.
	{
		Name:    "check-inproc",
		Clients: 1,
		Jobs: concat(checks("fig6", 1, 2), checks("sensor", 2), checks("fir", 1, 2),
			checks("weather", 1, 2)),
	},
	// Small sweeps and checks through the WAL-backed fleet with 2 clients:
	// per-job fixed costs (fsyncs, planning, shard app builds, lease polls,
	// codecs, merge) take a large share, and every result must equal the
	// in-process one.
	{
		Name:    "fleet-mix",
		Clients: 2,
		Fleet:   true,
		Jobs: concat(
			sweeps(map[string]int{
				"dma": 256, "temp": 256, "sensor": 256, "lea": 256, "fir": 256,
				"fir-op": 256, "weather": 256, "weather-db": 256, "branch": 256, "fig6": 256,
			}, "dma", "temp", "sensor", "lea", "fir", "fir-op", "weather", "weather-db", "branch", "fig6"),
			checks("fig6", 1, 2), checks("sensor", 2), checks("fir", 1, 2),
			checks("temp", 1), checks("dma", 1)),
	},
}

// hostScaled reports whether the workload's times are scaled to the
// reference host speed (probe.go). Only one-client workloads are: with one
// client no job is in flight between two jobs, so probes can bracket every
// job. fleet-mix, with two clients, reports wall-clock time; most of its
// latency is the loopback workers' lease poll and WAL fsyncs, which do not
// scale with the host's speed anyway.
func (w workload) hostScaled() bool { return w.Clients == 1 }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

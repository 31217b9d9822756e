package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric with its unit. BENCHMARK.json lists
// the same names and units; TestMetricsMatchBenchmarkJSON keeps them in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, reported with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"runs_per_s", "runs/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p90_ms", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. Times and counts "per pass" are
// normalized by the traced passes, so they compare across commits that
// fit a different number of passes into the run.
var perLayer = []metricDef{
	{"cpu.kernel_s", "s/pass"},
	{"cpu.mem_s", "s/pass"},
	{"cpu.lea_s", "s/pass"},
	{"cpu.runtimes_s", "s/pass"},
	{"cpu.task_s", "s/pass"},
	{"cpu.apps_s", "s/pass"},
	{"cpu.power_s", "s/pass"},
	{"cpu.lazyrand_s", "s/pass"},
	{"cpu.dma_s", "s/pass"},
	{"cpu.stats_s", "s/pass"},
	{"cpu.experiments_s", "s/pass"},
	{"cpu.check_s", "s/pass"},
	{"cpu.service_s", "s/pass"},
	{"cpu.net_json_s", "s/pass"},
	{"cpu.fleet_s", "s/pass"},
	{"cpu.wire_s", "s/pass"},
	{"cpu.benchmark_s", "s/pass"},
	{"cpu.gc_s", "s/pass"},
	{"cpu.goruntime_s", "s/pass"},
	{"cpu.other_s", "s/pass"},
	{"cpu.total_s", "s/pass"},
	{"stage.kernel_snapshot_s", "s/pass"},
	{"stage.kernel_restore_s", "s/pass"},
	{"stage.power_failure_unwind_s", "s/pass"},
	{"stage.output_check_s", "s/pass"},
	{"stage.lea_fir_s", "s/pass"},
	{"stage.check_golden_s", "s/pass"},
	{"stage.check_record_s", "s/pass"},
	{"stage.check_replay_s", "s/pass"},
	{"stage.check_classify_s", "s/pass"},
	{"stage.json_encode_s", "s/pass"},
	{"stage.fleet_plan_s", "s/pass"},
	{"stage.fleet_merge_s", "s/pass"},
	{"stage.wal_append_s", "s/pass"},
	{"label.client_s", "s/pass"},
	{"label.http_server_s", "s/pass"},
	{"label.job_worker_s", "s/pass"},
	{"label.fleet_worker_s", "s/pass"},
	{"apps.builds_per_job", "count/job"},
	{"apps.build_ms_per_job", "ms/job"},
	{"check.points_d1", "count/pass"},
	{"check.points_d2", "count/pass"},
	{"check.collapsed_d2_ratio", "ratio"},
	{"check.divergences", "count/pass"},
	{"service.submit_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.fetch_ms_p50", "ms"},
	{"service.result_kb_mean", "KiB"},
	{"fleet.wal_fsyncs_per_job", "count/job"},
	{"fleet.wal_fsync_ms_per_job", "ms/job"},
	{"fleet.merge_ms_per_job", "ms/job"},
	{"fleet.lease_wait_ms_p50", "ms"},
	{"fleet.leases_per_job", "count/job"},
	{"fleet.retries", "count/pass"},
	{"go.gc_cycles", "count/pass"},
	{"go.gc_pause_ms", "ms/pass"},
	{"go.alloc_mb_per_job", "MiB/job"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet fills a result's metrics from values keyed by name, taking the
// units from defs; a metric without a value reads 0.
func metricSet(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// percentile interpolates linearly between the closest ranks of the
// sorted values (p in [0, 1]).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so spreads printed here match the usual Python arithmetic.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

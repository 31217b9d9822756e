// The observability surface: monotonic counters and derived gauges
// exported in the Prometheus text exposition format, plus the work-split
// accumulator that turns job summaries into the wasted-vs-app gauges the
// paper's evaluation revolves around.

package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"easeio/internal/check"
	"easeio/internal/obs"
	"easeio/internal/stats"
)

// Metrics aggregates service-lifetime counters. All counter fields are
// safe for concurrent use; the work-split accumulator is mutex-guarded.
type Metrics struct {
	start time.Time

	JobsAccepted  atomic.Int64
	JobsRejected  atomic.Int64
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64
	JobsPanicked  atomic.Int64
	RunsCompleted atomic.Int64

	// CheckPoints counts failure schedules explored by check-mode jobs,
	// at every depth; CheckDivergences counts the subset that diverged
	// from golden. Both are folded from the job's report.
	CheckPoints      atomic.Int64
	CheckDivergences atomic.Int64

	// The depth-labeled split of the two counters above: schedules
	// replayed and divergences found per failure depth (depth 1 is the
	// single-failure checker; deeper levels are the k > 1 checkpoint
	// tree). Exposed as easeio_check_depth_points_total{depth="N"} /
	// easeio_check_depth_divergences_total{depth="N"}.
	depthMu   sync.Mutex
	depthPts  map[int]int64
	depthDivs map[int]int64

	// The distribution surface: per-job latency and throughput
	// histograms, labeled by job mode where both modes flow in.
	JobDuration *obs.Histogram
	QueueWait   *obs.Histogram
	SweepRate   *obs.Histogram
	CheckRate   *obs.Histogram
	// LeaseWait tracks, for fleet-delegated jobs, the time between
	// submission and the first shard lease — the queueing delay the
	// execution timeout must not charge against the job (see jobs.go).
	LeaseWait *obs.Histogram

	mu       sync.Mutex
	appT     time.Duration
	overT    time.Duration
	wastedT  time.Duration
	sumRuns  int64
	correct  int64
	badRuns  int64
	stuck    int64
	failures int64
}

// NewMetrics returns a metrics set anchored at the current time (the
// runs-per-second gauge divides by service uptime).
func NewMetrics() *Metrics {
	return &Metrics{
		start: time.Now(),
		JobDuration: obs.NewHistogram("easeio_job_duration_seconds",
			"Wall-clock execution time of finished jobs.", "mode", obs.LatencyBuckets),
		QueueWait: obs.NewHistogram("easeio_job_queue_wait_seconds",
			"Time jobs spent waiting in the bounded queue before a worker picked them up.", "mode", obs.LatencyBuckets),
		SweepRate: obs.NewHistogram("easeio_job_runs_per_second",
			"Per-job sweep throughput (finished seeded runs over execution time).", "mode", obs.RateBuckets),
		CheckRate: obs.NewHistogram("easeio_job_check_points_per_second",
			"Per-job check throughput (explored failure points over execution time).", "mode", obs.RateBuckets),
		LeaseWait: obs.NewHistogram("easeio_job_lease_wait_seconds",
			"Time fleet-delegated jobs waited between submission and their first shard lease.", "mode", obs.LatencyBuckets),
	}
}

// NoteCheckReport folds a check report into the exploration counters,
// the same way for an in-process and a fleet job: CheckPoints gains every
// explored schedule at every depth, CheckDivergences every divergence,
// and the depth-labeled counters their per-depth split. Level-1 points
// come from the report's top-level Explored; deeper levels from the
// checkpoint tree's per-depth stats. A divergence's depth is the length
// of its failure schedule (single-failure divergences carry their
// schedule implicitly in At).
func (m *Metrics) NoteCheckReport(rep *check.Report) {
	if rep == nil {
		return
	}
	m.CheckDivergences.Add(int64(len(rep.Divergences)))
	m.depthMu.Lock()
	defer m.depthMu.Unlock()
	if m.depthPts == nil {
		m.depthPts = make(map[int]int64)
		m.depthDivs = make(map[int]int64)
	}
	points := int64(rep.Explored)
	m.depthPts[1] += points
	for _, ds := range rep.Depths {
		m.depthPts[ds.Depth] += int64(ds.Explored)
		points += int64(ds.Explored)
	}
	m.CheckPoints.Add(points)
	for _, dv := range rep.Divergences {
		depth := len(dv.Schedule)
		if depth == 0 {
			depth = 1
		}
		m.depthDivs[depth]++
	}
}

// NoteSummary folds one job's (possibly partial) sweep summary into the
// cumulative work-split gauges. Summary work fields are per-run means, so
// each is weighted back by the summary's run count.
func (m *Metrics) NoteSummary(s stats.Summary) {
	if s.Runs == 0 {
		return
	}
	n := time.Duration(s.Runs)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.appT += s.Work[stats.App].T * n
	m.overT += s.Work[stats.Overhead].T * n
	m.wastedT += s.Work[stats.Wasted].T * n
	m.sumRuns += int64(s.Runs)
	m.correct += int64(s.CorrectRuns)
	m.badRuns += int64(s.IncorrectRuns)
	m.stuck += int64(s.StuckRuns)
	m.failures += int64(s.PowerFailures)
}

// WastedRatio returns cumulative wasted work time over cumulative app
// work time across every summarized job (0 before any work).
func (m *Metrics) WastedRatio() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.appT == 0 {
		return 0
	}
	return float64(m.wastedT) / float64(m.appT)
}

// writeDepthCounters renders the depth-labeled check counters. Families
// with no samples are omitted entirely (the service may never run a
// check job); label values are emitted in ascending depth order so the
// exposition is deterministic.
func (m *Metrics) writeDepthCounters(w io.Writer) {
	m.depthMu.Lock()
	defer m.depthMu.Unlock()
	family := func(name, help string, byDepth map[int]int64) {
		if len(byDepth) == 0 {
			return
		}
		depths := make([]int, 0, len(byDepth))
		for d := range byDepth {
			depths = append(depths, d)
		}
		sort.Ints(depths)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, d := range depths {
			fmt.Fprintf(w, "%s{depth=%q} %d\n", name, strconv.Itoa(d), byDepth[d])
		}
	}
	family("easeio_check_depth_points_total",
		"Failure schedules replayed per failure depth (1 = single failure, >1 = nested).", m.depthPts)
	family("easeio_check_depth_divergences_total",
		"Divergent schedules per failure depth.", m.depthDivs)
}

// WriteTo renders the metrics in the Prometheus text exposition format.
// queueDepth and running are point-in-time gauges owned by the manager,
// passed in so Metrics stays a pure accumulator.
func (m *Metrics) WriteTo(w io.Writer, queueDepth, running int) {
	obs.WriteCounter(w, "easeio_jobs_accepted_total", "Sweep jobs accepted into the queue.", m.JobsAccepted.Load())
	obs.WriteCounter(w, "easeio_jobs_rejected_total", "Sweep jobs rejected by backpressure (full queue).", m.JobsRejected.Load())
	obs.WriteCounter(w, "easeio_jobs_completed_total", "Sweep jobs that succeeded.", m.JobsCompleted.Load())
	obs.WriteCounter(w, "easeio_jobs_failed_total", "Sweep jobs that failed (including panics).", m.JobsFailed.Load())
	obs.WriteCounter(w, "easeio_jobs_cancelled_total", "Sweep jobs cancelled before completion.", m.JobsCancelled.Load())
	obs.WriteCounter(w, "easeio_jobs_panicked_total", "Sweep jobs terminated by a recovered panic.", m.JobsPanicked.Load())
	obs.WriteCounter(w, "easeio_runs_completed_total", "Seeded simulation runs finished across all jobs.", m.RunsCompleted.Load())
	obs.WriteCounter(w, "easeio_check_points_total", "Failure points explored by check-mode jobs.", m.CheckPoints.Load())
	obs.WriteCounter(w, "easeio_check_divergences_total", "Explored failure points that diverged from the golden run.", m.CheckDivergences.Load())
	m.writeDepthCounters(w)

	obs.WriteGauge(w, "easeio_queue_depth", "Jobs waiting in the bounded queue.", float64(queueDepth))
	obs.WriteGauge(w, "easeio_running_jobs", "Jobs currently executing.", float64(running))

	m.JobDuration.Expose(w)
	m.QueueWait.Expose(w)
	m.SweepRate.Expose(w)
	m.CheckRate.Expose(w)
	m.LeaseWait.Expose(w)

	uptime := time.Since(m.start).Seconds()
	obs.WriteGauge(w, "easeio_uptime_seconds", "Seconds since the service started.", uptime)
	if uptime > 0 {
		obs.WriteGauge(w, "easeio_runs_per_second", "Lifetime average simulation runs per second.",
			float64(m.RunsCompleted.Load())/uptime)
	}

	m.mu.Lock()
	appT, overT, wastedT := m.appT, m.overT, m.wastedT
	sumRuns, correct, bad, stuck, failures := m.sumRuns, m.correct, m.badRuns, m.stuck, m.failures
	m.mu.Unlock()
	obs.WriteCounter(w, "easeio_summarized_runs_total", "Runs folded into completed job summaries.", sumRuns)
	obs.WriteCounter(w, "easeio_correct_runs_total", "Runs whose output matched the golden result.", correct)
	obs.WriteCounter(w, "easeio_incorrect_runs_total", "Runs whose output diverged from the golden result.", bad)
	obs.WriteCounter(w, "easeio_stuck_runs_total", "Runs abandoned because the harvester could not recharge.", stuck)
	obs.WriteCounter(w, "easeio_power_failures_total", "Simulated power failures across all summarized runs.", failures)
	obs.WriteGauge(w, "easeio_app_work_seconds_total", "Cumulative committed application work time.", appT.Seconds())
	obs.WriteGauge(w, "easeio_overhead_work_seconds_total", "Cumulative committed runtime-overhead time.", overT.Seconds())
	obs.WriteGauge(w, "easeio_wasted_work_seconds_total", "Cumulative work lost to power failures.", wastedT.Seconds())
	if appT > 0 {
		obs.WriteGauge(w, "easeio_wasted_work_ratio", "Wasted work time over useful app work time.",
			float64(wastedT)/float64(appT))
		obs.WriteGauge(w, "easeio_overhead_work_ratio", "Runtime overhead time over useful app work time.",
			float64(overT)/float64(appT))
	}
}

// The job manager: a bounded queue of sweep jobs drained by a fixed pool
// of job workers. Each job runs one experiments.RunManyCtx sweep under
// its own cancellable context, isolated from the server by a recover
// barrier, and streams progress through the engine's progress hook.

package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/fleet"
	"easeio/internal/stats"
)

// State is a job's lifecycle stage.
type State int32

// The job lifecycle. Queued → Running → one of the three terminal
// states; a queued job cancelled before a worker picks it up goes
// straight to Cancelled.
const (
	Queued State = iota
	Running
	Succeeded
	Failed
	Cancelled
)

// String names the state for the JSON surface.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull reports a bounded queue with no room — backpressure,
	// not failure; the accept loop never blocks on a full queue.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed reports a manager that has begun shutting down.
	ErrClosed = errors.New("service: manager closed")
)

// JobSpec is the client-visible job request.
type JobSpec struct {
	// App names a registered blueprint.
	App string `json:"app"`
	// Runtime names the runtime kind ("Alpaca", "InK", "EaseIO",
	// "EaseIO/Op.", "JustDo").
	Runtime string `json:"runtime"`
	// Mode selects the engine: "" or "sweep" runs a multi-seed sweep;
	// "check" runs the failure-point model checker over the blueprint.
	Mode string `json:"mode,omitempty"`
	// Runs is the number of seeded executions of a sweep job; it must be
	// positive. Check jobs ignore it (the golden run determines the
	// explored point count).
	Runs int `json:"runs,omitempty"`
	// BaseSeed offsets the per-run seeds (a check job's single seed).
	BaseSeed int64 `json:"base_seed"`
	// Workers bounds the job's parallelism (defaults to GOMAXPROCS); the
	// result is worker-count-invariant either way.
	Workers int `json:"workers,omitempty"`
	// TimeoutMs, when positive, bounds the job's total lifetime (queue
	// wait plus execution); an expired job is cancelled at the next seed
	// or failure-point boundary. At most 24 hours.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// CheckGrid is the check-mode exploration grid (0 defaults to 128;
	// negative is rejected); CheckExhaustive replays every candidate
	// failure point. Sweep jobs reject both.
	CheckGrid       int  `json:"check_grid,omitempty"`
	CheckExhaustive bool `json:"check_exhaustive,omitempty"`
	// Failures is the check-mode nested-failure depth k: schedules
	// inject up to this many failures, each landing on the previous
	// failure's recovery trajectory. 0 defaults to 1 (the single-failure
	// checker); at most check.MaxFailures. Sweep jobs reject it.
	Failures int `json:"failures,omitempty"`
}

// Job is one accepted sweep. All fields are safe to read concurrently
// through the accessors; the manager is the only writer.
type Job struct {
	// ID is the manager-assigned identifier.
	ID uint64
	// Spec is the normalized request (Runs defaulted).
	Spec JobSpec

	bp   *Blueprint
	kind experiments.RuntimeKind

	ctx    context.Context
	cancel context.CancelFunc

	state atomic.Int32
	done  atomic.Int64 // finished seeds or explored points, from the progress hook
	total atomic.Int64 // sweep total, or the checker's planned point count so far

	// timeout is the execution deadline for fleet-delegated jobs, armed
	// at the first shard lease instead of at submission (see runFleetJob;
	// in-process jobs keep the submission-anchored context deadline).
	timeout time.Duration

	mu        sync.Mutex
	summary   stats.Summary
	report    *check.Report
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	// leased/leaseWait record a fleet-delegated job's first shard lease:
	// the submission→lease gap is queue wait, surfaced in Status and the
	// lease-wait histogram, and explicitly not charged by timeout.
	leased    bool
	leaseWait time.Duration

	finishedCh chan struct{}
}

// State returns the job's current lifecycle stage.
func (j *Job) State() State { return State(j.state.Load()) }

// Progress returns finished and total counts: seeds for a sweep job,
// explored and planned failure points for a check job (planned grows as
// the bisection schedules more rounds).
func (j *Job) Progress() (done, total int) {
	return int(j.done.Load()), int(j.total.Load())
}

// Cancel asks the job to stop. A queued job is finalized immediately; a
// running job observes its context at the next seed boundary. Cancelling
// a finished job is a no-op. It reports whether the call changed
// anything.
func (j *Job) Cancel() bool {
	j.cancel()
	if j.state.CompareAndSwap(int32(Queued), int32(Cancelled)) {
		j.finalize(Cancelled, stats.Summary{}, context.Canceled.Error())
		return true
	}
	return j.State() == Running
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.finishedCh }

// finalize records the terminal state of a job that never ran (cancelled
// or failed over while queued) and closes Done.
func (j *Job) finalize(s State, sum stats.Summary, errMsg string) {
	j.settle(s, sum, errMsg)
	close(j.finishedCh)
}

// settle records the terminal state exactly once (callers guarantee the
// CAS into the terminal state happened before). It leaves Done open:
// runJob closes it only after the job's metrics are observed, so a
// client woken by Done always finds the job in /metrics.
func (j *Job) settle(s State, sum stats.Summary, errMsg string) {
	j.mu.Lock()
	j.summary = sum
	j.errMsg = errMsg
	j.finished = time.Now()
	j.mu.Unlock()
	j.state.Store(int32(s))
	j.cancel() // release the context's timer, if any
}

// Status is the JSON view of a job.
type Status struct {
	ID        uint64         `json:"id"`
	Spec      JobSpec        `json:"spec"`
	State     string         `json:"state"`
	DoneRuns  int            `json:"done_runs"`
	TotalRuns int            `json:"total_runs"`
	Summary   *stats.Summary `json:"summary,omitempty"`
	// Check carries a check-mode job's report once the job finished.
	Check *check.Report `json:"check,omitempty"`
	Error string        `json:"error,omitempty"`
	// QueuedFor and RanFor are wall-clock stage durations in
	// milliseconds (RanFor is present once the job finished).
	QueuedForMs int64 `json:"queued_for_ms"`
	RanForMs    int64 `json:"ran_for_ms,omitempty"`
	// LeaseWaitMs is, for fleet-delegated jobs, the time between fleet
	// submission and the first shard lease (present once leased). The
	// execution timeout starts after this wait, not before.
	LeaseWaitMs *int64 `json:"lease_wait_ms,omitempty"`
}

// Status snapshots the job for the HTTP surface.
func (j *Job) Status() Status {
	st := j.State()
	done, total := j.Progress()
	j.mu.Lock()
	defer j.mu.Unlock()
	out := Status{
		ID:        j.ID,
		Spec:      j.Spec,
		State:     st.String(),
		DoneRuns:  done,
		TotalRuns: total,
		Error:     j.errMsg,
	}
	switch {
	case j.started.IsZero():
		out.QueuedForMs = time.Since(j.submitted).Milliseconds()
	default:
		out.QueuedForMs = j.started.Sub(j.submitted).Milliseconds()
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		out.RanForMs = j.finished.Sub(j.started).Milliseconds()
	}
	if j.leased {
		ms := j.leaseWait.Milliseconds()
		out.LeaseWaitMs = &ms
	}
	if j.Spec.Mode != "check" && (st == Succeeded || (st == Failed || st == Cancelled) && j.summary.Runs > 0) {
		s := j.summary
		out.Summary = &s
	}
	out.Check = j.report
	return out
}

// Manager owns the job queue and its worker pool.
type Manager struct {
	reg     *Registry
	metrics *Metrics
	log     *slog.Logger
	// fleet, when non-nil, delegates job execution to a distributed
	// coordinator instead of the in-process engines (see runFleetJob).
	fleet *fleet.Coordinator

	queue chan *Job
	quit  chan struct{}
	wg    sync.WaitGroup

	closed  atomic.Bool
	running atomic.Int64

	mu     sync.Mutex
	jobs   map[uint64]*Job
	order  []uint64
	nextID uint64
}

// ManagerOption configures a Manager at construction time.
type ManagerOption func(*Manager)

// WithManagerLogger installs a structured logger for the job lifecycle
// (accept, start, finish, cancel, shutdown). Every record about a job
// carries its "job" ID attribute. The default discards.
func WithManagerLogger(l *slog.Logger) ManagerOption {
	return func(m *Manager) {
		if l != nil {
			m.log = l
		}
	}
}

// WithFleet delegates job execution to the given coordinator: each
// accepted job becomes a fleet job, sharded across whatever workers
// serve that coordinator, and the merged result is byte-identical to
// the in-process engines. With a fleet, a job's TimeoutMs bounds
// execution from the first shard lease instead of from submission —
// fleet queue wait (workers busy with earlier jobs) is visible in
// Status.LeaseWaitMs and the lease-wait histogram, not charged against
// the job's own budget.
func WithFleet(c *fleet.Coordinator) ManagerOption {
	return func(m *Manager) { m.fleet = c }
}

// discardLogger drops every record; the structured-logging default for
// embedded use (tests, smoke runs) where nothing consumes the stream.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// NewManager starts a manager draining a queue of the given capacity
// with the given number of concurrent job workers (each job additionally
// fans out over its own sweep workers).
func NewManager(reg *Registry, metrics *Metrics, queueSize, workers int, opts ...ManagerOption) *Manager {
	if queueSize < 1 {
		queueSize = 1
	}
	if workers < 1 {
		workers = 1
	}
	m := &Manager{
		reg:     reg,
		metrics: metrics,
		log:     discardLogger(),
		queue:   make(chan *Job, queueSize),
		quit:    make(chan struct{}),
		jobs:    make(map[uint64]*Job),
	}
	for _, opt := range opts {
		opt(m)
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// QueueDepth returns the number of jobs waiting in the queue.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// RunningJobs returns the number of jobs currently executing.
func (m *Manager) RunningJobs() int { return int(m.running.Load()) }

// maxJobTimeout bounds TimeoutMs: a job asking for more than a day is a
// client bug, not a workload.
const maxJobTimeout = 24 * time.Hour

// Submit validates and enqueues a job. It never blocks: a full queue
// returns ErrQueueFull immediately (the HTTP layer's 429).
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	bp, ok := m.reg.Lookup(spec.App)
	if !ok {
		return nil, fmt.Errorf("service: unknown blueprint %q (registered: %v)", spec.App, m.reg.Names())
	}
	kind, err := experiments.ParseRuntimeKind(spec.Runtime)
	if err != nil {
		return nil, err
	}
	switch spec.Mode {
	case "", "sweep":
		if spec.Runs <= 0 {
			return nil, fmt.Errorf("service: sweep job needs a positive run count (got %d)", spec.Runs)
		}
		if spec.Failures != 0 {
			return nil, fmt.Errorf("service: sweep job does not take a failure depth (got %d)", spec.Failures)
		}
		if spec.CheckGrid != 0 {
			return nil, fmt.Errorf("service: sweep job does not take a check grid (got %d)", spec.CheckGrid)
		}
		if spec.CheckExhaustive {
			return nil, fmt.Errorf("service: sweep job does not take check_exhaustive")
		}
	case "check":
		// The golden run determines the point count; Runs is meaningless.
		if spec.Runs != 0 {
			return nil, fmt.Errorf("service: check job does not take a run count (got %d)", spec.Runs)
		}
		if spec.CheckGrid < 0 {
			return nil, fmt.Errorf("service: check grid %d is negative (0 means the default)", spec.CheckGrid)
		}
		if spec.Failures != 0 {
			if err := check.ValidateFailures(spec.Failures); err != nil {
				return nil, fmt.Errorf("service: %w", err)
			}
		}
	default:
		return nil, fmt.Errorf("service: unknown mode %q (want \"sweep\" or \"check\")", spec.Mode)
	}
	if spec.TimeoutMs < 0 || time.Duration(spec.TimeoutMs)*time.Millisecond > maxJobTimeout {
		return nil, fmt.Errorf("service: timeout %d ms out of range (want 0 for none, at most 24h)", spec.TimeoutMs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var fleetTimeout time.Duration
	switch {
	case spec.TimeoutMs > 0 && m.fleet != nil:
		// Fleet mode arms the deadline at the first shard lease (see
		// runFleetJob), so fleet queue wait is not charged.
		fleetTimeout = time.Duration(spec.TimeoutMs) * time.Millisecond
	case spec.TimeoutMs > 0:
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(spec.TimeoutMs)*time.Millisecond)
	}
	j := &Job{
		Spec:       spec,
		bp:         bp,
		kind:       kind,
		ctx:        ctx,
		cancel:     cancel,
		timeout:    fleetTimeout,
		submitted:  time.Now(),
		finishedCh: make(chan struct{}),
	}
	j.total.Store(int64(spec.Runs)) // check jobs learn their total from the golden pass

	m.mu.Lock()
	m.nextID++
	j.ID = m.nextID
	m.mu.Unlock()

	select {
	case m.queue <- j:
	default:
		cancel()
		m.metrics.JobsRejected.Add(1)
		m.log.Warn("job rejected: queue full",
			"app", spec.App, "runtime", spec.Runtime, "mode", modeName(spec.Mode))
		return nil, ErrQueueFull
	}
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	m.metrics.JobsAccepted.Add(1)
	m.log.Info("job accepted", "job", j.ID, "app", spec.App,
		"runtime", spec.Runtime, "mode", modeName(spec.Mode), "runs", spec.Runs)
	return j, nil
}

// modeName normalizes JobSpec.Mode for logs and metric labels ("" is a
// sweep).
func modeName(mode string) string {
	if mode == "" {
		return "sweep"
	}
	return mode
}

// Get returns the job with the given ID.
func (m *Manager) Get(id uint64) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel cancels the job with the given ID.
func (m *Manager) Cancel(id uint64) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	if changed := j.Cancel(); changed && j.State() == Cancelled {
		// The job went straight from queued to cancelled; a worker that
		// later pops it will skip it.
		m.metrics.JobsCancelled.Add(1)
	}
	m.log.Info("job cancel requested", "job", id, "state", j.State().String())
	return true
}

// Shutdown stops accepting jobs, lets in-flight sweeps drain, and
// cancels jobs still queued. If ctx expires first, running jobs are
// cancelled too (they stop within one seed boundary) and Shutdown waits
// for the workers before returning ctx's error.
func (m *Manager) Shutdown(ctx context.Context) error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	m.log.Info("manager shutting down",
		"queued", m.QueueDepth(), "running", m.RunningJobs())
	close(m.quit)

	workersDone := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workersDone)
	}()

	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		err = ctx.Err()
		for _, j := range m.Jobs() {
			j.Cancel()
		}
		<-workersDone
	}

	// Workers are gone; fail over whatever is still queued.
	for {
		select {
		case j := <-m.queue:
			if j.state.CompareAndSwap(int32(Queued), int32(Cancelled)) {
				j.finalize(Cancelled, stats.Summary{}, "service shut down before the job started")
				m.metrics.JobsCancelled.Add(1)
			}
		default:
			return err
		}
	}
}

// worker drains the queue until shutdown. Checking quit only between
// jobs is what makes shutdown graceful: the job in flight finishes (or
// is cancelled through its own context) before the worker exits.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case j := <-m.queue:
			m.runJob(j)
		}
	}
}

// runJob executes one job with panic isolation: a panicking app or
// runtime fails its job, never the server.
func (m *Manager) runJob(j *Job) {
	if !j.state.CompareAndSwap(int32(Queued), int32(Running)) {
		return // cancelled while queued; already finalized
	}
	// Done closes last, after every deferred observation below: the
	// histograms, the finish log and the running gauge.
	defer close(j.finishedCh)
	j.mu.Lock()
	j.started = time.Now()
	queued := j.started.Sub(j.submitted)
	j.mu.Unlock()
	m.running.Add(1)
	defer m.running.Add(-1)

	mode := modeName(j.Spec.Mode)
	jl := m.log.With("job", j.ID)
	m.metrics.QueueWait.Observe(mode, queued.Seconds())
	jl.Info("job started", "app", j.Spec.App, "runtime", j.Spec.Runtime,
		"mode", mode, "queued_ms", queued.Milliseconds())
	// Registered before the recover barrier so it observes the settled
	// job even when the job panicked.
	defer m.observeFinished(j, jl)

	defer func() {
		if r := recover(); r != nil {
			m.metrics.JobsPanicked.Add(1)
			m.metrics.JobsFailed.Add(1)
			j.settle(Failed, stats.Summary{}, fmt.Sprintf("job panicked: %v", r))
		}
	}()

	if m.fleet != nil {
		m.runFleetJob(j)
		return
	}

	if j.Spec.Mode == "check" {
		m.runCheckJob(j)
		return
	}

	cfg := experiments.Config{
		Runs:     j.Spec.Runs,
		BaseSeed: j.Spec.BaseSeed,
		Workers:  j.Spec.Workers,
		Progress: func(done, total int) {
			j.done.Store(int64(done))
			m.metrics.RunsCompleted.Add(1)
		},
	}
	sum, err := experiments.RunManyCtx(j.ctx, cfg, j.bp.Factory, j.kind)
	m.metrics.NoteSummary(sum)
	switch {
	case j.ctx.Err() != nil:
		m.metrics.JobsCancelled.Add(1)
		j.settle(Cancelled, sum, j.ctx.Err().Error())
	case err != nil:
		var pe experiments.PanicError
		if errors.As(err, &pe) {
			m.metrics.JobsPanicked.Add(1)
		}
		m.metrics.JobsFailed.Add(1)
		j.settle(Failed, sum, err.Error())
	default:
		m.metrics.JobsCompleted.Add(1)
		j.settle(Succeeded, sum, "")
	}
}

// observeFinished folds a finished job into the latency and throughput
// histograms and logs its outcome. It runs after settle (the recover
// barrier included), so the terminal state and timestamps are set, and
// before Done closes.
func (m *Manager) observeFinished(j *Job, jl *slog.Logger) {
	st := j.State()
	mode := modeName(j.Spec.Mode)
	j.mu.Lock()
	ran := j.finished.Sub(j.started)
	errMsg := j.errMsg
	j.mu.Unlock()
	m.metrics.JobDuration.Observe(mode, ran.Seconds())
	done, total := j.Progress()
	if ran > 0 {
		rate := float64(done) / ran.Seconds()
		if mode == "check" {
			m.metrics.CheckRate.Observe(mode, rate)
		} else {
			m.metrics.SweepRate.Observe(mode, rate)
		}
	}
	attrs := []any{"state", st.String(), "ran_ms", ran.Milliseconds(),
		"done", done, "total", total}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	if st == Failed {
		jl.Error("job finished", attrs...)
		return
	}
	jl.Info("job finished", attrs...)
}

// runFleetJob delegates one job to the fleet coordinator and waits for
// the merged result — byte-identical to what the in-process path would
// have produced, so delegation changes scheduling, never results. That
// includes nested (k > 1) checks, which the coordinator shards at the
// level-1 frontier so the checkpoint tree's subtrees grow on fleet
// workers. While waiting, a watcher mirrors shard progress
// into the job (Progress counts shards, not seeds, in fleet mode) and
// arms the execution deadline when the first shard lease is granted.
func (m *Manager) runFleetJob(j *Job) {
	mode := modeName(j.Spec.Mode)
	fspec := fleet.Spec{
		Mode: fleet.ModeSweep, App: j.Spec.App, Runtime: j.Spec.Runtime,
		Runs: j.Spec.Runs, BaseSeed: j.Spec.BaseSeed, ShardWorkers: j.Spec.Workers,
	}
	if mode == "check" {
		fspec.Mode = fleet.ModeCheck
		fspec.Runs = 0
		fspec.BaseSeed = 0
		fspec.Seed = j.Spec.BaseSeed
		fspec.Grid = j.Spec.CheckGrid
		fspec.Exhaustive = j.Spec.CheckExhaustive
		fspec.Failures = j.Spec.Failures
	}
	fid, err := m.fleet.Submit(fspec)
	if err != nil {
		m.metrics.JobsFailed.Add(1)
		j.settle(Failed, stats.Summary{}, err.Error())
		return
	}

	watchDone := make(chan struct{})
	watchExited := make(chan struct{})
	go func() {
		defer close(watchExited)
		m.watchFleetJob(j, fid, mode, watchDone)
	}()
	res, err := m.fleet.Wait(j.ctx, fid)
	close(watchDone)
	// Join the watcher before settling: its exit path takes a last
	// progress/lease snapshot, which must land before Done() readers see
	// the terminal status.
	<-watchExited

	switch {
	case j.ctx.Err() != nil:
		// The fleet has no per-job cancel: the coordinator finishes the
		// job for whoever else may wait on it; this job just stops
		// waiting.
		m.metrics.JobsCancelled.Add(1)
		j.settle(Cancelled, stats.Summary{}, j.ctx.Err().Error())
	case err != nil:
		m.metrics.JobsFailed.Add(1)
		j.settle(Failed, stats.Summary{}, err.Error())
	case res.Mode == fleet.ModeCheck:
		m.metrics.CheckPoints.Add(int64(res.Report.Explored))
		m.metrics.CheckDivergences.Add(int64(len(res.Report.Divergences)))
		m.metrics.NoteCheckReport(res.Report)
		j.mu.Lock()
		j.report = res.Report
		j.mu.Unlock()
		m.metrics.JobsCompleted.Add(1)
		j.settle(Succeeded, stats.Summary{}, "")
	default:
		m.metrics.NoteSummary(res.Summary)
		m.metrics.RunsCompleted.Add(int64(res.Summary.Runs))
		if len(res.Errs) > 0 {
			// Mirror the in-process contract: per-run failures fail the
			// job but keep the partial summary.
			m.metrics.JobsFailed.Add(1)
			j.settle(Failed, res.Summary, strings.Join(res.Errs, "; "))
			return
		}
		m.metrics.JobsCompleted.Add(1)
		j.settle(Succeeded, res.Summary, "")
	}
}

// watchFleetJob mirrors a fleet job's shard progress into the service
// job and, once the first shard lease lands, records the lease wait and
// arms the execution deadline (j.timeout counts from here — the fix for
// charging fleet queue wait against the job's own budget).
func (m *Manager) watchFleetJob(j *Job, fid uint64, mode string, done <-chan struct{}) {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	var deadline *time.Timer
	defer func() {
		if deadline != nil {
			deadline.Stop()
		}
	}()
	leased := false
	observe := func() {
		if sdone, stotal, ok := m.fleet.Progress(fid); ok {
			j.done.Store(int64(sdone))
			j.total.Store(int64(stotal))
		}
		if leased {
			return
		}
		sub, first, ok := m.fleet.LeaseInfo(fid)
		if !ok || first.IsZero() {
			return
		}
		leased = true
		wait := first.Sub(sub)
		m.metrics.LeaseWait.Observe(mode, wait.Seconds())
		j.mu.Lock()
		j.leased = true
		j.leaseWait = wait
		j.mu.Unlock()
		if j.timeout > 0 {
			deadline = time.AfterFunc(j.timeout, j.cancel)
		}
	}
	for {
		select {
		case <-done:
			// A job can finish between ticks; take a final snapshot so
			// the progress counters and lease wait are never dropped.
			observe()
			return
		case <-t.C:
			observe()
		}
	}
}

// runCheckJob executes one failure-point check. A report with divergences
// is a successful job — the divergences are the result, surfaced through
// Status.Check and the divergence counter; only an engine error or
// cancellation is a non-success.
func (m *Manager) runCheckJob(j *Job) {
	cfg := check.Config{
		Seed:       j.Spec.BaseSeed,
		Failures:   j.Spec.Failures,
		Grid:       j.Spec.CheckGrid,
		Exhaustive: j.Spec.CheckExhaustive,
		Workers:    j.Spec.Workers,
		Progress: func(explored, planned int) {
			j.done.Store(int64(explored))
			j.total.Store(int64(planned))
			m.metrics.CheckPoints.Add(1)
		},
	}
	rep, err := check.Run(j.ctx, j.bp.Factory, j.kind, cfg)
	if rep != nil {
		m.metrics.CheckDivergences.Add(int64(len(rep.Divergences)))
		m.metrics.NoteCheckReport(rep)
		j.mu.Lock()
		j.report = rep
		j.mu.Unlock()
	}
	switch {
	case j.ctx.Err() != nil:
		m.metrics.JobsCancelled.Add(1)
		j.settle(Cancelled, stats.Summary{}, j.ctx.Err().Error())
	case err != nil:
		m.metrics.JobsFailed.Add(1)
		j.settle(Failed, stats.Summary{}, err.Error())
	default:
		m.metrics.JobsCompleted.Add(1)
		j.settle(Succeeded, stats.Summary{}, "")
	}
}

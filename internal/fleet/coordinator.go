// The coordinator: plans submitted jobs into shards, leases shards to
// pulling workers, retries failures with backoff, revokes expired
// leases, and merges completed shards into the job's final result. Every
// input a restart cannot reproduce — a job's spec and plan (one record),
// each shard result and each failed attempt — is WAL-logged before it
// takes effect (wal.go), and New replays the log so a restarted
// coordinator resumes mid-job: done shards stay done, leased-but-unfinished
// shards return to the pending queue (a lease is scheduling state, never
// journaled — losing one costs only recomputation), and every job
// outcome, success or failure, is derived again from the records. A job
// whose plan fails is Submit's error and never reaches the log, so
// recovery never plans.

package fleet

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/stats"
	"easeio/internal/wire"
)

// The coordinator's fixed scheduling policy.
const (
	// defaultShards is the shard count for specs that leave Shards zero.
	defaultShards = 4
	// maxAttempts failed attempts of any single shard fail the whole job.
	maxAttempts = 3
	// retryBackoff delays a failed shard's next lease, doubling per
	// attempt up to 8x.
	retryBackoff = 250 * time.Millisecond
)

// CoordinatorConfig configures New. Zero values take the defaults noted
// on each field.
type CoordinatorConfig struct {
	// WALPath is the job store's backing file (required).
	WALPath string
	// Source resolves app names when planning check jobs (required for
	// check jobs).
	Source BlueprintSource
	// LeaseTTL revokes a shard lease not completed in time (default 1m).
	LeaseTTL time.Duration
	// Metrics, when non-nil, collects the fleet metric set.
	Metrics *Metrics
	// Now overrides the coordinator clock (lease expiry, backoff) for
	// tests. WAL fsync and merge latencies always use the real clock:
	// they measure the host, not the job timeline.
	Now func() time.Time
}

// validate rejects config values that are not just "use the default":
// a negative LeaseTTL is a caller bug (a bad flag parse), and silently
// coercing it to the default would hide that. Zero still means
// "default".
func (c CoordinatorConfig) validate() error {
	if c.LeaseTTL < 0 {
		return fmt.Errorf("fleet: LeaseTTL %v is negative (0 means default)", c.LeaseTTL)
	}
	return nil
}

func (c CoordinatorConfig) fill() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = time.Minute
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Shard lifecycle. A failed attempt returns the shard to shardPending
// (with backoff) until maxAttempts, which fails the job.
type shardStatus int

const (
	shardPending shardStatus = iota
	shardLeased
	shardDone
)

// shardState is one shard's live state.
type shardState struct {
	// task is the shard's encoded task (wire.SweepShard or
	// wire.SubtreeShard), fixed at plan time and handed out verbatim on
	// every lease.
	task        []byte
	st          shardStatus
	attempts    int // failed attempts so far
	worker      string
	leaseExpiry time.Time
	notBefore   time.Time // backoff gate on the next lease
	payload     []byte    // the encoded shard result once done
}

// job is one submitted job's live state.
type job struct {
	id   uint64
	spec Spec
	kind experiments.RuntimeKind

	plan check.Header // check jobs: the golden pass's report header
	// level1 is a check job's coordinator-side level-1 exploration (an
	// encoded wire.SubtreeResult, empty for k=1) that the merge folds in
	// ahead of the shards' results.
	level1    []byte
	shards    []*shardState
	remaining int // shards not yet done

	submitted  time.Time
	firstLease time.Time // zero until the first shard lease of this process

	finished bool
	result   Result
	err      error
	done     chan struct{} // closed when finished
}

// Coordinator is the fleet's job manager. All methods are safe for
// concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig

	mu    sync.Mutex
	wal   *wal
	jobs  map[uint64]*job
	order []uint64 // unfinished jobs in submission order, the lease scan order
	next  uint64
	// wake is closed, and replaced, at every Submit of a job with shards
	// (see wakeup). Shards that become leasable with time — a backoff gate
	// running out, a lease expiring — wake nobody: idle workers find them
	// on their poll.
	wake chan struct{}
}

// New opens (or creates) the WAL at cfg.WALPath, replays it, and returns
// a coordinator resuming every unfinished job it finds there.
func New(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.fill()
	if cfg.WALPath == "" {
		return nil, fmt.Errorf("fleet: coordinator needs a WAL path")
	}
	var obsFsync func(time.Duration)
	if cfg.Metrics != nil {
		h := cfg.Metrics.WALFsync
		obsFsync = func(d time.Duration) { h.Observe("", d.Seconds()) }
	}
	w, recs, err := openWAL(cfg.WALPath, obsFsync)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, wal: w, jobs: make(map[uint64]*job), wake: make(chan struct{})}
	for _, r := range recs {
		c.replay(r)
	}
	c.recover()
	return c, nil
}

// Close releases the WAL. In-flight Wait calls are not interrupted.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal.close()
}

// replay folds one recovered WAL record into the in-memory state. It is
// idempotent over duplicate records and tolerant of records for unknown
// jobs (a torn log can only lose a suffix, so those cannot happen from a
// crash; they would mean a foreign log, and are ignored rather than
// trusted).
func (c *Coordinator) replay(r record) {
	if r.Type == recJob {
		if _, ok := c.jobs[r.Job]; !ok {
			c.install(r)
		}
		return
	}
	j, ok := c.jobs[r.Job]
	if !ok || j.finished {
		return
	}
	switch r.Type {
	case recShardDone:
		if r.Shard < 0 || r.Shard >= len(j.shards) {
			return
		}
		sh := j.shards[r.Shard]
		if sh.st == shardDone {
			return
		}
		sh.st = shardDone
		sh.payload = r.Payload
		j.remaining--
	case recShardFail:
		if r.Shard < 0 || r.Shard >= len(j.shards) || j.shards[r.Shard].st == shardDone {
			return
		}
		// The backoff gate survives the restart: it is derived from the
		// journaled failure time, not the replay clock, so a coordinator
		// that restarts immediately after a failure does not hand the
		// still-broken shard straight back out.
		c.shardFailed(j, r.Shard, r.Err, time.Unix(0, r.At))
	}
}

// recover completes the replay fold: every job whose shards all
// completed merges (same inputs, same bytes). The log journals no merged
// result and no job failure, so this is the only way a finished job is
// rebuilt.
func (c *Coordinator) recover() {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A copy: jobs that finish here leave c.order.
	for _, id := range slices.Clone(c.order) {
		if j := c.jobs[id]; !j.finished && j.remaining == 0 {
			c.mergeLocked(j)
		}
	}
}

// Submit plans a job (for check jobs this runs the golden
// continuous-power pass synchronously — one uninterrupted run, plus
// level 1 for k > 1), logs its spec and plan as one record, and returns
// the job id. The id exists only once that record has committed: a plan
// error or a WAL error is Submit's error, nothing is journaled and the id
// is not used up, so ids stay dense and a restart derives the same next
// id.
func (c *Coordinator) Submit(spec Spec) (uint64, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, err := c.planLocked(c.next, spec)
	if err != nil {
		return 0, err
	}
	if err := c.wal.append(rec); err != nil {
		return 0, err
	}
	j := c.install(rec)
	if j.remaining == 0 {
		// A plan with no shards (a check whose golden run never crossed a
		// charge-slice boundary) finishes at submit.
		c.mergeLocked(j)
	} else {
		close(c.wake)
		c.wake = make(chan struct{})
	}
	return j.id, nil
}

// wakeup returns a channel that is closed the next time a shard becomes
// leasable with no time gate — at the next Submit of a job with shards.
// An idle worker takes it before it calls Lease, so a Submit that lands
// between the two still wakes it.
func (c *Coordinator) wakeup() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wake
}

// planLocked computes job id's record: the spec and its shards, each as
// the encoded task every lease of it hands out. A sweep shard is a
// contiguous seed range, pure arithmetic over the spec; check plans run
// the checker's planning stage (planCheck). Planning is deterministic and
// reads only the spec, but it runs under the lock because the tasks embed
// the id the job will take.
func (c *Coordinator) planLocked(id uint64, spec Spec) (record, error) {
	parts := spec.Shards
	if parts <= 0 {
		parts = defaultShards
	}
	rec := record{Type: recJob, Job: id, Spec: spec}
	var work int
	switch spec.Mode {
	case ModeSweep:
		for i, r := range experiments.SplitRange(0, spec.Runs, parts) {
			rec.Tasks = append(rec.Tasks, wire.AppendSweepShard(nil, wire.SweepShard{
				Job: id, Shard: i, App: spec.App, Runtime: spec.Runtime,
				BaseSeed: spec.BaseSeed, Lo: r[0], Hi: r[1], Workers: spec.ShardWorkers,
			}))
		}
		work = spec.Runs
	case ModeCheck:
		var err error
		if work, err = c.planCheck(parts, &rec); err != nil {
			return record{}, err
		}
	}
	// Plan-time invariant: pending work must yield at least one shard. A
	// job planned with work but no shards has no completion path — it
	// would sit unfinished forever — so it is refused here instead.
	if work > 0 && len(rec.Tasks) == 0 {
		return record{}, fmt.Errorf("fleet: planned no shards over %d pending items (Shards=%d)",
			work, spec.Shards)
	}
	return rec, nil
}

// planCheck plans a check job through the checker's own pipeline:
// check.Plan runs the golden pass (for k > 1 also the whole level-1
// exploration, which is never sharded — representative selection is a
// function of outcomes across the whole golden range), and Split cuts the
// units into at most parts groups, each pre-encoded as one subtree shard
// task. The golden header and the level-1 result go into the job record
// for the merge. Work is counted in units: a job with none left — no
// candidates, or a level 1 with nothing to expand — legitimately plans
// zero shards and finishes at submit. check.Plan's error is returned as
// it is, the text check.Run would give; that includes an app factory's
// panic, which the checker turns into its own build error. The recover
// here is only a backstop: any other panic while planning becomes the
// error, so it never escapes Submit.
func (c *Coordinator) planCheck(parts int, rec *record) (work int, err error) {
	defer func() {
		if p := recover(); p != nil {
			work, err = 0, fmt.Errorf("fleet: plan check panicked: %v", p)
		}
	}()
	spec := rec.Spec
	if c.cfg.Source == nil {
		return 0, fmt.Errorf("fleet: check job needs a blueprint source")
	}
	factory, ok := c.cfg.Source.LookupFactory(spec.App)
	if !ok {
		return 0, fmt.Errorf("fleet: unknown app %q", spec.App)
	}
	kind, _ := experiments.ParseRuntimeKind(spec.Runtime)
	p, err := check.Plan(context.Background(), factory, kind, spec.Check)
	if err != nil {
		return 0, err
	}
	rec.Plan = p.Header
	rec.Level1 = wire.AppendSubtreeResult(nil, wire.SubtreeResult{
		Job: rec.Job, Depths: p.Level1.Depths, Divergences: p.Level1.Divergences,
	})
	cfg := spec.Check
	cfg.Workers = spec.ShardWorkers
	for i, units := range p.Split(parts) {
		rec.Tasks = append(rec.Tasks, wire.AppendSubtreeShard(nil, wire.SubtreeShard{
			Job: rec.Job, Shard: i, App: spec.App, Runtime: spec.Runtime,
			Check: cfg, Units: units,
		}))
	}
	return len(p.Units), nil
}

// install adds the job of a committed (or replayed) job record, one
// shard per task, and moves the next id past it. The journaled check
// header omits the fields the spec determines; they are filled from the
// spec under check's own defaults, as check.Plan filled them.
func (c *Coordinator) install(r record) *job {
	j := &job{id: r.Job, spec: r.Spec, submitted: c.cfg.Now(), done: make(chan struct{})}
	j.kind, _ = experiments.ParseRuntimeKind(r.Spec.Runtime)
	cfg := r.Spec.Check.Filled()
	j.plan = r.Plan
	j.plan.Runtime = j.kind.String()
	j.plan.Seed, j.plan.Off, j.plan.Failures = cfg.Seed, cfg.Off, cfg.Failures
	j.level1 = r.Level1
	for _, t := range r.Tasks {
		j.shards = append(j.shards, &shardState{task: t})
	}
	j.remaining = len(j.shards)
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.next = max(c.next, j.id+1)
	return j
}

// Lease hands the named worker one pending shard as an encoded task
// (wire.SweepShard or wire.SubtreeShard — dispatch on wire.PeekKind), or
// ok=false when nothing is pending. Jobs are scanned in submission order,
// shards in plan order, so a single worker drains jobs in the order a
// sequential engine would. A lease is scheduling state and never touches
// the WAL: a restart returns every leased shard to the queue.
func (c *Coordinator) Lease(worker string) (task []byte, ok bool) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	for _, id := range c.order {
		j := c.jobs[id]
		for _, sh := range j.shards {
			if sh.st != shardPending || now.Before(sh.notBefore) {
				continue
			}
			sh.st = shardLeased
			sh.worker = worker
			sh.leaseExpiry = now.Add(c.cfg.LeaseTTL)
			if j.firstLease.IsZero() {
				j.firstLease = now
			}
			if m := c.cfg.Metrics; m != nil {
				m.Leases.Inc(worker)
			}
			return sh.task, true
		}
	}
	return nil, false
}

// expireLocked revokes overdue leases. No WAL record: a revoked lease
// and a crashed one recover identically (the shard is simply pending
// again), and the stale worker's eventual Complete still lands if it
// beats the re-lease — first result wins, and both results would be
// byte-identical anyway.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, id := range c.order {
		for _, sh := range c.jobs[id].shards {
			if sh.st == shardLeased && now.After(sh.leaseExpiry) {
				sh.st = shardPending
				if m := c.cfg.Metrics; m != nil {
					m.Expirations.Inc(sh.worker)
				}
			}
		}
	}
}

// Complete accepts a worker's encoded shard result (wire.SweepResult or
// wire.SubtreeResult). Duplicate or stale completions are ignored: the
// first logged result for a shard is the result. A result that does not
// fit its shard's task (checkResult) is never journaled: it counts as a
// failed attempt carrying the validation message, and Complete reports
// the rejection. Completing the job's last shard merges and finishes the
// job.
func (c *Coordinator) Complete(worker string, payload []byte) error {
	jobID, shard, err := wire.PeekShard(payload)
	if err != nil {
		return fmt.Errorf("fleet: completion: %w", err)
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return fmt.Errorf("fleet: completion for unknown job %d", jobID)
	}
	if j.finished || shard < 0 || shard >= len(j.shards) {
		return nil
	}
	sh := j.shards[shard]
	if sh.st == shardDone {
		return nil
	}
	if err := checkResult(j, sh.task, payload); err != nil {
		msg := "rejected result: " + err.Error()
		if ferr := c.failShardLocked(worker, j, shard, msg, now); ferr != nil {
			return ferr
		}
		return fmt.Errorf("fleet: job %d shard %d: %s", jobID, shard, msg)
	}
	if err := c.wal.append(record{Type: recShardDone, Job: jobID, Shard: shard, Payload: payload}); err != nil {
		return err
	}
	sh.st = shardDone
	sh.payload = payload
	j.remaining--
	if m := c.cfg.Metrics; m != nil {
		m.ShardsDone.Inc(worker)
	}
	if j.remaining == 0 {
		c.mergeLocked(j)
	}
	return nil
}

// checkResult checks a shard result against the shard's task before it
// is journaled, so no worker — a remote one speaking the TCP protocol
// included — can make the merge panic, loop without bound or silently
// fold a result of the wrong size. A sweep result covers at most the
// task's seeds (failed seeds travel in Errs, and a panicking shard stops
// early), one run total and one outcome per run, under the job's
// runtime. A check result's depths lie in [1, k], its counts are
// non-negative and no divergence schedule is deeper than k.
func checkResult(j *job, task, payload []byte) error {
	switch j.spec.Mode {
	case ModeSweep:
		r, err := wire.DecodeSweepResult(payload)
		if err != nil {
			return err
		}
		t, err := wire.DecodeSweepShard(task)
		if err != nil {
			return err
		}
		a := r.Agg
		switch {
		case a.Runs < 0 || a.Runs > t.Hi-t.Lo:
			return fmt.Errorf("%d runs for a shard of %d seeds", a.Runs, t.Hi-t.Lo)
		case len(a.Totals) != a.Runs:
			return fmt.Errorf("%d run totals for %d runs", len(a.Totals), a.Runs)
		case min(a.Correct, a.Incorrect, a.Stuck) < 0 || a.Correct+a.Incorrect+a.Stuck != a.Runs:
			return fmt.Errorf("outcomes %d correct, %d incorrect, %d stuck for %d runs",
				a.Correct, a.Incorrect, a.Stuck, a.Runs)
		case a.Runs > 0 && a.Runtime != j.kind.String():
			return fmt.Errorf("runtime %q, want %q", a.Runtime, j.kind.String())
		}
	case ModeCheck:
		r, err := wire.DecodeSubtreeResult(payload)
		if err != nil {
			return err
		}
		k := j.plan.Failures
		for _, ds := range r.Depths {
			if ds.Depth < 1 || ds.Depth > k {
				return fmt.Errorf("depth %d outside [1, %d]", ds.Depth, k)
			}
			if min(ds.Expanded, ds.Collapsed, ds.Candidates, ds.Explored, ds.Pruned) < 0 {
				return fmt.Errorf("negative count at depth %d", ds.Depth)
			}
		}
		for _, dv := range r.Divergences {
			if len(dv.Schedule) > k {
				return fmt.Errorf("divergence schedule of %d failures exceeds depth %d", len(dv.Schedule), k)
			}
		}
	}
	return nil
}

// FailShard records one failed shard attempt. Under maxAttempts the
// shard returns to the queue after a doubling backoff; at maxAttempts
// the whole job fails (a shard that cannot run will not merge, and a
// partial merge would silently change the result).
func (c *Coordinator) FailShard(worker string, jobID uint64, shard int, msg string) error {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return fmt.Errorf("fleet: failure for unknown job %d", jobID)
	}
	if j.finished || shard < 0 || shard >= len(j.shards) || j.shards[shard].st == shardDone {
		return nil
	}
	return c.failShardLocked(worker, j, shard, msg, now)
}

// failShardLocked logs and applies one failed attempt of a shard that is
// not done: a worker-reported failure or a rejected result.
func (c *Coordinator) failShardLocked(worker string, j *job, shard int, msg string, now time.Time) error {
	if err := c.wal.append(record{Type: recShardFail, Job: j.id, Shard: shard, Err: msg, At: now.UnixNano()}); err != nil {
		return err
	}
	if m := c.cfg.Metrics; m != nil {
		m.Retries.Inc(worker)
	}
	c.shardFailed(j, shard, msg, now)
	return nil
}

// shardFailed applies one journaled failed attempt, live or replayed:
// under maxAttempts the shard returns to the queue behind a backoff gate
// counted from the failure time at, and the maxAttempts-th failure fails
// the job. The rule is the same on both paths, so the failure a record
// commits is exactly the failure a restart derives from it.
func (c *Coordinator) shardFailed(j *job, shard int, msg string, at time.Time) {
	sh := j.shards[shard]
	sh.attempts++
	if sh.attempts >= maxAttempts {
		c.finish(j, Result{}, fmt.Errorf("fleet: job %d: shard %d failed %d times, last: %s",
			j.id, shard, sh.attempts, msg))
		return
	}
	sh.st = shardPending
	sh.notBefore = at.Add(backoff(sh.attempts))
}

// backoff is the delay before a shard's next lease after its
// attempts-th failure: retryBackoff doubling per attempt, capped at 8x.
// Shared by the live path and WAL replay through shardFailed, so a
// restart reproduces the same gate the live coordinator set.
func backoff(attempts int) time.Duration {
	return retryBackoff << min(max(attempts-1, 0), 3)
}

// mergeLocked folds the job's shard results, in shard order, into the
// final Result and finishes the job. The fold mirrors the in-process
// engines exactly — this is where the byte-identity contract is
// discharged. Shard results that cannot merge (undecodable, or sweep
// shards that ran different apps) fail the job instead. Either way it
// logs nothing: the outcome is a function of the journaled results, and
// recover merges them again after a restart.
func (c *Coordinator) mergeLocked(j *job) {
	start := time.Now()
	var res Result
	switch j.spec.Mode {
	case ModeSweep:
		agg := stats.NewAggregator()
		var errs []string
		for i, sh := range j.shards {
			sr, err := wire.DecodeSweepResult(sh.payload)
			if err == nil && sr.Agg.Runs > 0 && agg.Runs > 0 &&
				(sr.Agg.App != agg.App || sr.Agg.Runtime != agg.Runtime) {
				err = fmt.Errorf("shard ran %s/%s, earlier shards %s/%s",
					sr.Agg.App, sr.Agg.Runtime, agg.App, agg.Runtime)
			}
			if err != nil {
				c.finish(j, Result{}, fmt.Errorf("fleet: job %d: merge shard %d: %v", j.id, i, err))
				return
			}
			agg.Merge(&sr.Agg)
			errs = append(errs, sr.Errs...)
		}
		res = Result{Mode: ModeSweep, Summary: agg.Summary(), Errs: errs}
	case ModeCheck:
		// The coordinator's level-1 result first, then the shards in plan
		// order: the part order check.Merge folds into check.Run's report.
		parts := make([]check.UnitReport, 0, 1+len(j.shards))
		for i, b := range append([][]byte{j.level1}, payloads(j.shards)...) {
			r, err := wire.DecodeSubtreeResult(b)
			if err != nil {
				c.finish(j, Result{}, fmt.Errorf("fleet: job %d: merge part %d: %v", j.id, i, err))
				return
			}
			parts = append(parts, check.UnitReport{Depths: r.Depths, Divergences: r.Divergences})
		}
		res = Result{Mode: ModeCheck, Report: check.Merge(j.plan, parts)}
	}
	if m := c.cfg.Metrics; m != nil {
		m.MergeTime.Observe(j.spec.Mode, time.Since(start).Seconds())
	}
	c.finish(j, res, nil)
}

// payloads lists the shards' result payloads in plan order.
func payloads(shards []*shardState) [][]byte {
	out := make([][]byte, len(shards))
	for i, sh := range shards {
		out[i] = sh.payload
	}
	return out
}

// finish applies a terminal state and wakes waiters. A finished job
// leaves the lease scan order, so Lease and lease expiry walk unfinished
// jobs only, and releases its tasks, shard results and level-1 result:
// nothing reads them again, and the WAL keeps them for recovery. Wait,
// Progress and LeaseInfo still find it in c.jobs.
func (c *Coordinator) finish(j *job, res Result, err error) {
	if j.finished {
		return
	}
	if i := slices.Index(c.order, j.id); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
	j.finished = true
	j.result = res
	j.err = err
	j.remaining = 0
	j.level1 = nil
	for _, sh := range j.shards {
		sh.task, sh.payload = nil, nil
	}
	close(j.done)
}

// Wait blocks until the job finishes or ctx is done. It expires no
// leases: only the next Lease can hand out an expired shard, and Lease
// expires overdue leases itself.
func (c *Coordinator) Wait(ctx context.Context, id uint64) (Result, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return Result{}, fmt.Errorf("fleet: wait on unknown job %d", id)
	}
	select {
	case <-j.done:
		// finish sets the outcome once, before it closes done.
		return j.result, j.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Progress reports how many of the job's shards have completed.
func (c *Coordinator) Progress(id uint64) (done, total int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, found := c.jobs[id]
	if !found {
		return 0, 0, false
	}
	return len(j.shards) - j.remaining, len(j.shards), true
}

// LeaseInfo reports when the job was submitted and when its first shard
// lease was granted (zero until then). The gap is queue wait, not
// execution — the delay an execution deadline should not charge. Neither
// is journaled: a job replayed from the WAL counts both from the restart.
func (c *Coordinator) LeaseInfo(id uint64) (submitted, firstLease time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, found := c.jobs[id]
	if !found {
		return time.Time{}, time.Time{}, false
	}
	return j.submitted, j.firstLease, true
}

// The coordinator: plans submitted jobs into shards, leases shards to
// pulling workers, retries failures with backoff, revokes expired
// leases, and merges completed shards into the job's final result. Every
// state transition is WAL-logged before it takes effect (wal.go), and
// New replays the log so a restarted coordinator resumes mid-job: done
// shards stay done, leased-but-unfinished shards return to the pending
// queue (a lease is a hint, not a commitment — losing one costs only
// recomputation), and jobs whose shards all finished re-merge
// deterministically.

package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/stats"
	"easeio/internal/wire"
)

// CoordinatorConfig configures New. Zero values take the defaults noted
// on each field.
type CoordinatorConfig struct {
	// WALPath is the job store's backing file (required).
	WALPath string
	// Source resolves app names when planning check jobs and when
	// re-planning after recovery (required for check jobs).
	Source BlueprintSource
	// LeaseTTL revokes a shard lease not completed in time (default 1m).
	LeaseTTL time.Duration
	// MaxAttempts fails the whole job after this many failed attempts of
	// any single shard (default 3).
	MaxAttempts int
	// RetryBackoff delays a failed shard's next lease, doubling per
	// attempt up to 8x (default 250ms).
	RetryBackoff time.Duration
	// DefaultShards is the shard count for specs that leave Shards zero
	// (default 4).
	DefaultShards int
	// Metrics, when non-nil, collects the fleet metric set.
	Metrics *Metrics
	// Now overrides the coordinator clock (lease expiry, backoff) for
	// tests. WAL fsync and merge latencies always use the real clock:
	// they measure the host, not the job timeline.
	Now func() time.Time
}

// validate rejects config values that are not just "use the default":
// a negative knob is a caller bug (a miscomputed worker count, a bad
// flag parse), and silently coercing it to the default would hide that
// until a job hangs with no shards. Zero still means "default".
func (c CoordinatorConfig) validate() error {
	if c.DefaultShards < 0 {
		return fmt.Errorf("fleet: DefaultShards %d is negative (0 means default)", c.DefaultShards)
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("fleet: MaxAttempts %d is negative (0 means default)", c.MaxAttempts)
	}
	if c.LeaseTTL < 0 {
		return fmt.Errorf("fleet: LeaseTTL %v is negative (0 means default)", c.LeaseTTL)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("fleet: RetryBackoff %v is negative (0 means default)", c.RetryBackoff)
	}
	return nil
}

func (c CoordinatorConfig) fill() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.DefaultShards <= 0 {
		c.DefaultShards = 4
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Shard lifecycle. A failed attempt returns the shard to shardPending
// (with backoff) until MaxAttempts, which fails the job.
type shardStatus int

const (
	shardPending shardStatus = iota
	shardLeased
	shardDone
)

// shardState is one shard's live state. lo/hi is a sweep shard's
// seed-index range; a check shard is its pre-encoded task.
type shardState struct {
	lo, hi      int
	st          shardStatus
	attempts    int // failed attempts so far
	worker      string
	leaseExpiry time.Time
	notBefore   time.Time // backoff gate on the next lease
	payload     []byte    // the encoded shard result once done
	// task is a check shard's pre-encoded wire.SubtreeShard: its units
	// cannot be derived from the spec at lease time (checkpoint roots are
	// recorded at plan time). Nil for sweep shards.
	task []byte
}

// job is one submitted job's live state.
type job struct {
	id   uint64
	spec Spec
	kind experiments.RuntimeKind

	planned bool
	plan    check.Header // check jobs: the golden pass's report header
	// level1 is a check job's coordinator-side level-1 exploration (an
	// encoded wire.SubtreeResult, empty for k=1) that the merge folds in
	// ahead of the shards' results.
	level1    []byte
	shards    []*shardState
	remaining int // shards not yet done

	submitted  time.Time
	firstLease time.Time // zero until the first shard lease

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
	order []uint64 // submission order, the lease scan order
	next  uint64
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
	c := &Coordinator{cfg: cfg, wal: w, jobs: make(map[uint64]*job)}
	for _, r := range recs {
		c.replay(r)
	}
	if err := c.recover(); err != nil {
		w.close()
		return nil, err
	}
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
	if r.Type == recSubmit {
		if _, ok := c.jobs[r.Job]; ok {
			return
		}
		j := &job{id: r.Job, spec: r.Spec, submitted: c.cfg.Now(), done: make(chan struct{})}
		j.kind, _ = experiments.ParseRuntimeKind(r.Spec.Runtime)
		c.jobs[r.Job] = j
		c.order = append(c.order, r.Job)
		if r.Job >= c.next {
			c.next = r.Job + 1
		}
		return
	}
	j, ok := c.jobs[r.Job]
	if !ok || j.finished {
		return
	}
	switch r.Type {
	case recPlan:
		if j.planned {
			return
		}
		c.installPlan(j, r)
	case recLease:
		// Leases do not survive a restart — the shard stays pending and
		// will be re-leased without an attempt increment. The record
		// still matters: the job's first-lease time is durable, so the
		// execution-deadline clock does not restart with the coordinator.
		if j.firstLease.IsZero() {
			j.firstLease = time.Unix(0, r.At)
		}
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
		if r.Shard < 0 || r.Shard >= len(j.shards) {
			return
		}
		sh := j.shards[r.Shard]
		sh.attempts++
		// The backoff gate survives the restart: it is derived from the
		// journaled failure time, not the replay clock, so a coordinator
		// that restarts immediately after a failure does not hand the
		// still-broken shard straight back out. Records written before the
		// failure time was journaled (At == 0) decode to an epoch-based
		// gate in the past — an immediate re-lease, exactly the old
		// behavior.
		sh.notBefore = time.Unix(0, r.At).Add(c.retryBackoff(sh.attempts))
	case recJobDone:
		res, err := decodeResultPayload(j.spec.Mode, r.Payload)
		if err != nil {
			// The payload was CRC-checked and decoded at merge time; a
			// failure here means the format changed underneath the log.
			c.finish(j, Result{}, fmt.Errorf("fleet: recovering job %d result: %w", r.Job, err))
			return
		}
		res.Errs = r.Errs
		c.finish(j, res, nil)
	case recJobFail:
		c.finish(j, Result{}, fmt.Errorf("fleet: job %d: %s", r.Job, r.Err))
	}
}

// recover completes the replay fold: jobs that crashed before their plan
// record re-plan now, and jobs whose last shard completed but whose
// merge record was lost re-merge (same inputs, same bytes).
func (c *Coordinator) recover() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		j := c.jobs[id]
		if j.finished {
			continue
		}
		if !j.planned {
			if err := c.planLocked(j); err != nil {
				if ferr := c.failJobLocked(j, err.Error()); ferr != nil {
					return ferr
				}
				continue
			}
		}
		if j.planned && j.remaining == 0 && !j.finished {
			if err := c.mergeLocked(j); err != nil {
				return err
			}
		}
	}
	return nil
}

// Submit accepts a job, plans its shards (for check jobs this runs the
// golden continuous-power pass synchronously — one uninterrupted run),
// logs both transitions, and returns the job id.
func (c *Coordinator) Submit(spec Spec) (uint64, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next
	c.next++
	j := &job{id: id, spec: spec, submitted: c.cfg.Now(), done: make(chan struct{})}
	j.kind, _ = experiments.ParseRuntimeKind(spec.Runtime)
	if err := c.wal.append(record{Type: recSubmit, Job: id, Spec: spec}); err != nil {
		return 0, err
	}
	c.jobs[id] = j
	c.order = append(c.order, id)
	if err := c.planLocked(j); err != nil {
		if ferr := c.failJobLocked(j, err.Error()); ferr != nil {
			return 0, ferr
		}
		return id, nil
	}
	if j.remaining == 0 {
		// A plan with no shards (a check whose golden run never crossed a
		// charge-slice boundary) finishes at submit.
		if err := c.mergeLocked(j); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// planLocked computes and logs the job's shards. Sweep plans are pure
// arithmetic over the spec; check plans run the checker's planning stage
// (planCheck).
func (c *Coordinator) planLocked(j *job) error {
	parts := j.spec.Shards
	if parts <= 0 {
		parts = c.cfg.DefaultShards
	}
	rec := record{Type: recPlan, Job: j.id}
	var work int
	switch j.spec.Mode {
	case ModeSweep:
		rec.Shards = splitRange(0, j.spec.Runs, parts)
		work = j.spec.Runs
	case ModeCheck:
		var err error
		if work, err = c.planCheck(j, parts, &rec); err != nil {
			return err
		}
	}
	// Plan-time invariant: pending work must yield at least one shard. A
	// job planned with work but no shards has no completion path — it
	// would sit unfinished forever — so fail fast here instead.
	if work > 0 && len(rec.Shards)+len(rec.Tasks) == 0 {
		return fmt.Errorf("fleet: job %d planned no shards over %d pending items (Shards=%d, DefaultShards=%d)",
			j.id, work, j.spec.Shards, c.cfg.DefaultShards)
	}
	if err := c.wal.append(rec); err != nil {
		return err
	}
	c.installPlan(j, rec)
	return nil
}

// planCheck plans a check job through the checker's own pipeline:
// check.Plan runs the golden pass (for k > 1 also the whole level-1
// exploration, which is never sharded — representative selection is a
// function of outcomes across the whole golden range), and Split cuts the
// units into at most parts groups, each pre-encoded as one subtree shard
// task. The level-1 result (empty for k = 1) is journaled with the plan
// for the merge. Work is counted in units: a job with none left — no
// candidates, or a level 1 with nothing to expand — legitimately plans
// zero shards and finishes at submit.
func (c *Coordinator) planCheck(j *job, parts int, rec *record) (work int, err error) {
	if c.cfg.Source == nil {
		return 0, fmt.Errorf("fleet: check job %d needs a blueprint source", j.id)
	}
	factory, ok := c.cfg.Source.LookupFactory(j.spec.App)
	if !ok {
		return 0, fmt.Errorf("fleet: unknown app %q", j.spec.App)
	}
	p, err := check.Plan(context.Background(), factory, j.kind, check.Config{
		Seed: j.spec.Seed, Off: j.spec.Off, Grid: j.spec.Grid,
		Failures: j.spec.Failures, Exhaustive: j.spec.Exhaustive,
	})
	if err != nil {
		return 0, fmt.Errorf("fleet: plan check job %d: %w", j.id, err)
	}
	rec.HasPlan, rec.Plan = true, p.Header
	rec.Level1 = wire.AppendSubtreeResult(nil, wire.SubtreeResult{
		Job: j.id, Depths: p.Level1.Depths, Divergences: p.Level1.Divergences,
	})
	for i, units := range p.Split(parts) {
		rec.Tasks = append(rec.Tasks, wire.AppendSubtreeShard(nil, wire.SubtreeShard{
			Job: j.id, Shard: i, App: j.spec.App, Runtime: j.spec.Runtime,
			Seed: j.spec.Seed, Off: p.Off, Failures: j.spec.Failures,
			Exhaustive: j.spec.Exhaustive, Grid: j.spec.Grid, Workers: j.spec.ShardWorkers,
			Units: units,
		}))
	}
	return len(p.Units), nil
}

// installPlan applies a planned (or replayed) plan record: one shard per
// sweep range or check task. The journaled check header omits the fields
// the spec determines, so they are restored from the spec here.
func (c *Coordinator) installPlan(j *job, r record) {
	j.planned = true
	j.plan = r.Plan
	j.plan.Seed, j.plan.Failures = j.spec.Seed, max(j.spec.Failures, 1)
	j.level1 = r.Level1
	j.shards = nil
	for _, rg := range r.Shards {
		j.shards = append(j.shards, &shardState{lo: rg[0], hi: rg[1]})
	}
	for _, t := range r.Tasks {
		j.shards = append(j.shards, &shardState{task: t})
	}
	j.remaining = len(j.shards)
}

// splitRange splits [lo, hi) into at most parts contiguous near-equal
// pieces, mirroring the sweep engine's internal sharding. parts < 1 with
// work remaining degrades to one shard covering everything: returning an
// empty split would plan a job with no shards and no completion path.
func splitRange(lo, hi, parts int) [][2]int {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	cur := lo
	for p := 0; p < parts; p++ {
		size := n / parts
		if p < n%parts {
			size++
		}
		out = append(out, [2]int{cur, cur + size})
		cur += size
	}
	return out
}

// Lease hands the named worker one pending shard as an encoded task
// (wire.SweepShard or wire.SubtreeShard — dispatch on wire.PeekKind), or
// ok=false when nothing is pending. Jobs are scanned in submission order,
// shards in plan order, so a single worker drains jobs in the order a
// sequential engine would.
func (c *Coordinator) Lease(worker string) (task []byte, ok bool, err error) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	for _, id := range c.order {
		j := c.jobs[id]
		if j.finished || !j.planned {
			continue
		}
		for idx, sh := range j.shards {
			if sh.st != shardPending || now.Before(sh.notBefore) {
				continue
			}
			if err := c.wal.append(record{
				Type: recLease, Job: j.id, Shard: idx, Worker: worker, At: now.UnixNano(),
			}); err != nil {
				return nil, false, err
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
			return c.encodeTask(j, idx, sh), true, nil
		}
	}
	return nil, false, nil
}

// encodeTask renders one shard as its wire task message. Check shards
// were encoded at plan time (their root checkpoints exist only then) and
// are handed out verbatim.
func (c *Coordinator) encodeTask(j *job, idx int, sh *shardState) []byte {
	if sh.task != nil {
		return sh.task
	}
	s := j.spec
	return wire.AppendSweepShard(nil, wire.SweepShard{
		Job: j.id, Shard: idx, App: s.App, Runtime: s.Runtime,
		BaseSeed: s.BaseSeed, Lo: sh.lo, Hi: sh.hi, Workers: s.ShardWorkers,
	})
}

// expireLocked revokes overdue leases. No WAL record: a revoked lease
// and a crashed one recover identically (the shard is simply pending
// again), and the stale worker's eventual Complete still lands if it
// beats the re-lease — first result wins, and both results would be
// byte-identical anyway.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, id := range c.order {
		j := c.jobs[id]
		if j.finished {
			continue
		}
		for _, sh := range j.shards {
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
// first logged result for a shard is the result. Completing the job's
// last shard merges and finishes the job.
func (c *Coordinator) Complete(worker string, payload []byte) error {
	jobID, shard, err := resultIDs(payload)
	if err != nil {
		return err
	}
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
		return c.mergeLocked(j)
	}
	return nil
}

// resultIDs peeks a shard result's job and shard without a full decode.
func resultIDs(payload []byte) (uint64, int, error) {
	switch wire.PeekKind(payload) {
	case wire.KindSweepResult:
		r, err := wire.DecodeSweepResult(payload)
		if err != nil {
			return 0, 0, err
		}
		return r.Job, r.Shard, nil
	case wire.KindSubtreeResult:
		r, err := wire.DecodeSubtreeResult(payload)
		if err != nil {
			return 0, 0, err
		}
		return r.Job, r.Shard, nil
	}
	return 0, 0, fmt.Errorf("fleet: completion payload is %v, want a shard result", wire.PeekKind(payload))
}

// FailShard records one failed shard attempt. Under MaxAttempts the
// shard returns to the queue after a doubling backoff; at MaxAttempts
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
	if j.finished || shard < 0 || shard >= len(j.shards) {
		return nil
	}
	sh := j.shards[shard]
	if sh.st == shardDone {
		return nil
	}
	if err := c.wal.append(record{Type: recShardFail, Job: jobID, Shard: shard, Err: msg, At: now.UnixNano()}); err != nil {
		return err
	}
	sh.attempts++
	if m := c.cfg.Metrics; m != nil {
		m.Retries.Inc(worker)
	}
	if sh.attempts >= c.cfg.MaxAttempts {
		return c.failJobLocked(j, fmt.Sprintf("shard %d failed %d times, last: %s", shard, sh.attempts, msg))
	}
	sh.st = shardPending
	sh.notBefore = now.Add(c.retryBackoff(sh.attempts))
	return nil
}

// retryBackoff is the delay before a shard's next lease after its
// attempts-th failure: RetryBackoff doubling per attempt, capped at 8x.
// Shared by FailShard and WAL replay so a restart reproduces the same
// gate the live coordinator set.
func (c *Coordinator) retryBackoff(attempts int) time.Duration {
	shift := attempts - 1
	if shift > 3 {
		shift = 3
	}
	if shift < 0 {
		shift = 0
	}
	return c.cfg.RetryBackoff << shift
}

// failJobLocked logs and applies a terminal job failure.
func (c *Coordinator) failJobLocked(j *job, msg string) error {
	if err := c.wal.append(record{Type: recJobFail, Job: j.id, Err: msg}); err != nil {
		return err
	}
	c.finish(j, Result{}, fmt.Errorf("fleet: job %d: %s", j.id, msg))
	return nil
}

// mergeLocked folds the job's shard results, in shard order, into the
// final Result, logs it, and finishes the job. The fold mirrors the
// in-process engines exactly — this is where the byte-identity contract
// is discharged.
func (c *Coordinator) mergeLocked(j *job) error {
	start := time.Now()
	var res Result
	switch j.spec.Mode {
	case ModeSweep:
		agg := stats.NewAggregator()
		var errs []string
		for _, sh := range j.shards {
			sr, err := wire.DecodeSweepResult(sh.payload)
			if err != nil {
				return fmt.Errorf("fleet: merge job %d: %w", j.id, err)
			}
			agg.Merge(stats.ImportAggregator(sr.Agg))
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
				return fmt.Errorf("fleet: merge job %d part %d: %w", j.id, i, err)
			}
			parts = append(parts, check.UnitReport{Depths: r.Depths, Divergences: r.Divergences})
		}
		res = Result{Mode: ModeCheck, Report: check.Merge(j.plan, parts)}
	}
	if err := c.wal.append(record{Type: recJobDone, Job: j.id, Payload: encodeResultPayload(res), Errs: res.Errs}); err != nil {
		return err
	}
	if m := c.cfg.Metrics; m != nil {
		m.MergeTime.Observe(j.spec.Mode, time.Since(start).Seconds())
	}
	c.finish(j, res, nil)
	return nil
}

// payloads lists the shards' result payloads in plan order.
func payloads(shards []*shardState) [][]byte {
	out := make([][]byte, len(shards))
	for i, sh := range shards {
		out[i] = sh.payload
	}
	return out
}

// finish applies a terminal state and wakes waiters.
func (c *Coordinator) finish(j *job, res Result, err error) {
	if j.finished {
		return
	}
	j.finished = true
	j.result = res
	j.err = err
	j.remaining = 0
	close(j.done)
}

// Wait blocks until the job finishes or ctx is done. While waiting it
// ticks the lease-expiry clock, so a dead worker's shards return to the
// queue even when no other worker is polling Lease.
func (c *Coordinator) Wait(ctx context.Context, id uint64) (Result, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return Result{}, fmt.Errorf("fleet: wait on unknown job %d", id)
	}
	tick := c.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-j.done:
			c.mu.Lock()
			res, err := j.result, j.err
			c.mu.Unlock()
			return res, err
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-t.C:
			c.mu.Lock()
			c.expireLocked(c.cfg.Now())
			c.mu.Unlock()
		}
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
// execution — the delay an execution deadline should not charge.
func (c *Coordinator) LeaseInfo(id uint64) (submitted, firstLease time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, found := c.jobs[id]
	if !found {
		return time.Time{}, time.Time{}, false
	}
	return j.submitted, j.firstLease, true
}

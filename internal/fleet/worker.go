// The worker side: ExecuteShard turns one encoded shard task into one
// encoded shard result using the in-process engines, and the loopback
// worker leases from a coordinator in the same process — the testing and
// single-host deployment mode (cmd/easeio-worker drives the same
// ExecuteShard over TCP).

package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/wire"
)

// ExecuteShard runs one shard task (a wire.SweepShard or
// wire.SubtreeShard message, dispatched on wire.PeekKind) and returns the
// encoded shard result. Per-run failures inside a sweep shard are not
// errors here — they travel inside the SweepResult exactly as the
// in-process engine folds them into its joined error. An error return
// means the shard itself could not run and should be failed back to the
// coordinator.
func ExecuteShard(ctx context.Context, src BlueprintSource, task []byte) ([]byte, error) {
	switch kind := wire.PeekKind(task); kind {
	case wire.KindSweepShard:
		s, err := wire.DecodeSweepShard(task)
		if err != nil {
			return nil, err
		}
		factory, rt, err := resolve(src, s.App, s.Runtime)
		if err != nil {
			return nil, err
		}
		cfg := experiments.Config{Runs: s.Hi, BaseSeed: s.BaseSeed, Workers: s.Workers}
		agg, runErr := experiments.RunRangeAgg(ctx, cfg, factory, rt, s.Lo, s.Hi)
		if err := ctx.Err(); err != nil {
			// A partial fold must not ship: merged with full shards it
			// would silently change the job's result.
			return nil, err
		}
		if agg == nil {
			return nil, runErr
		}
		return wire.AppendSweepResult(nil, wire.SweepResult{
			Job: s.Job, Shard: s.Shard, Agg: *agg, Errs: flattenErr(runErr),
		}), nil
	case wire.KindSubtreeShard:
		s, err := wire.DecodeSubtreeShard(task)
		if err != nil {
			return nil, err
		}
		factory, rt, err := resolve(src, s.App, s.Runtime)
		if err != nil {
			return nil, err
		}
		rep, err := check.RunUnits(ctx, factory, rt, s.Check, s.Units)
		if err != nil {
			return nil, err
		}
		return wire.AppendSubtreeResult(nil, wire.SubtreeResult{
			Job: s.Job, Shard: s.Shard,
			Depths: rep.Depths, Divergences: rep.Divergences,
		}), nil
	default:
		return nil, fmt.Errorf("fleet: task is %v, want a shard", wire.PeekKind(task))
	}
}

// resolve maps a task's app and runtime names onto a factory and kind.
func resolve(src BlueprintSource, app, runtime string) (experiments.AppFactory, experiments.RuntimeKind, error) {
	if src == nil {
		return nil, 0, errors.New("fleet: worker has no blueprint source")
	}
	factory, ok := src.LookupFactory(app)
	if !ok {
		return nil, 0, fmt.Errorf("fleet: worker does not know app %q", app)
	}
	kind, err := experiments.ParseRuntimeKind(runtime)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: %w", err)
	}
	return factory, kind, nil
}

// flattenErr splits a joined sweep error back into per-run strings, the
// form the SweepResult carries over the wire.
func flattenErr(err error) []string {
	if err == nil {
		return nil
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		var out []string
		for _, e := range u.Unwrap() {
			out = append(out, flattenErr(e)...)
		}
		return out
	}
	return []string{err.Error()}
}

// RunLoopback leases shards from the coordinator, executes them, and
// reports results until ctx is cancelled. An idle loopback worker wakes
// the moment a job is submitted; poll (default 20ms) only bounds how
// long it takes to notice a shard that became leasable with time — a
// failed shard's retry backoff running out, or an expired lease. It
// returns nil on cancellation; any other return is a coordinator-side
// failure (WAL write errors and the rejection of a result surface here).
func RunLoopback(ctx context.Context, c *Coordinator, name string, src BlueprintSource, poll time.Duration) error {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	return workLoop(ctx, loopback{c, name}, src, poll)
}

// leaser is the coordinator surface a worker's lease loop drives: the
// in-process Coordinator under one worker name, or one TCP connection.
type leaser interface {
	// wake returns a channel closed when new work may be leasable, or
	// nil when the leaser cannot tell (the idle worker then just polls).
	wake() <-chan struct{}
	lease() (task []byte, ok bool, err error)
	complete(result []byte) error
	fail(job uint64, shard int, msg string) error
}

// loopback is the in-process leaser.
type loopback struct {
	c    *Coordinator
	name string
}

func (l loopback) wake() <-chan struct{} { return l.c.wakeup() }
func (l loopback) lease() ([]byte, bool, error) {
	task, ok := l.c.Lease(l.name)
	return task, ok, nil
}
func (l loopback) complete(result []byte) error { return l.c.Complete(l.name, result) }
func (l loopback) fail(job uint64, shard int, msg string) error {
	return l.c.FailShard(l.name, job, shard, msg)
}

// workLoop leases shards from l, executes them and reports each result
// or shard failure. While there is no work it waits for l's wake channel
// or poll, whichever comes first; poll is what finds time-gated shards
// (retry backoff, lease expiry), and for a leaser without a wake channel
// every new shard. It returns nil once ctx is cancelled and the first
// error of l otherwise.
func workLoop(ctx context.Context, l leaser, src BlueprintSource, poll time.Duration) error {
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		// Taken before the lease: a submit between the two closes this
		// channel, so the wait below cannot miss it.
		wake := l.wake()
		task, ok, err := l.lease()
		if err != nil {
			return err
		}
		if !ok {
			select {
			case <-ctx.Done():
				return nil
			case <-wake:
			case <-time.After(poll):
			}
			continue
		}
		result, execErr := ExecuteShard(ctx, src, task)
		switch {
		case execErr == nil:
			err = l.complete(result)
		case ctx.Err() != nil:
			// A cancellation mid-shard is not a shard failure: drop the
			// lease and let the TTL recycle it.
			return nil
		default:
			job, shard, idErr := wire.PeekShard(task)
			if idErr != nil {
				return idErr
			}
			err = l.fail(job, shard, execErr.Error())
		}
		if err != nil {
			return err
		}
	}
}

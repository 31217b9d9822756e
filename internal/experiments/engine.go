// The sweep engine: runs a configuration's seeds on a pool of workers,
// each owning one pooled device + runtime + app instance (the
// blueprint/instance split — see kernel.Session). Seeds are split into
// contiguous shards, one per worker; each worker folds its shard into a
// private aggregator and the shards merge in worker order, so the final
// Summary is byte-identical to a sequential sweep regardless of Workers.

package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"easeio/internal/kernel"
	"easeio/internal/stats"
)

// RunMany executes cfg.Runs seeded runs and aggregates them. Runs are
// sharded over cfg.Workers pooled workers. Failed runs do not abort the
// sweep: the Summary covers every run that completed, and the error
// joins all per-run failures (each carrying its app, runtime and seed).
func RunMany(cfg Config, newApp AppFactory, kind RuntimeKind) (stats.Summary, error) {
	return RunManyCtx(context.Background(), cfg, newApp, kind)
}

// RunManyCtx is RunMany with cooperative cancellation: every worker
// observes ctx between seeds, so a cancelled or deadline-expired sweep
// stops within one seed boundary per worker. The returned Summary covers
// the runs that finished before the cancellation took effect (still
// merged in shard order, so it equals the prefix a sequential sweep would
// have produced per shard), and ctx's error is joined into the returned
// error so callers can errors.Is it against context.Canceled or
// context.DeadlineExceeded.
func RunManyCtx(ctx context.Context, cfg Config, newApp AppFactory, kind RuntimeKind) (stats.Summary, error) {
	cfg = cfg.fill()
	agg, err := RunRangeAgg(ctx, cfg, newApp, kind, 0, cfg.Runs)
	return agg.Summary(), err
}

// PanicError wraps a panic recovered from a sweep worker goroutine, so a
// broken app or runtime fails its shard instead of crashing the process
// hosting the sweep. Callers can errors.As for it to distinguish panics
// from ordinary run failures.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// What identifies the work that panicked: the runtime kind, so a
	// sweep reads the same however its seeds were split.
	What string
}

// Error renders the panic with its provenance.
func (e PanicError) Error() string {
	return fmt.Sprintf("experiments: %s panicked: %v", e.What, e.Value)
}

// SplitRange splits [lo, hi) into at most parts contiguous near-equal
// pieces, the larger pieces first. It is the one range splitter: the
// sweep engine's worker shards, the fleet's sweep shards and the
// checker's unit groups all cut with it. parts < 1 with work remaining
// degrades to one piece covering everything (an empty split would leave
// a fleet job with no shards and no completion path); an empty range
// splits into no pieces.
func SplitRange(lo, hi, parts int) [][2]int {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	parts = min(max(parts, 1), n)
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

// RunRangeAgg executes the contiguous run-index slice [lo, hi) of the
// sweep cfg describes and returns the raw aggregator fold state instead
// of a finished Summary. This is the distributed sweep's work unit: a
// fleet worker executes its shard with RunRangeAgg, ships the state over
// the wire, and the coordinator merges shard states in range order.
// Because every fold in stats.Aggregator is a sum or an append, merging
// any contiguous partition of [0, Runs) in order reproduces the
// sequential fold — and therefore RunMany's Summary — byte for byte,
// whatever the shard count or each shard's inner Workers setting.
//
// cfg.Runs should still name the full sweep's run count (it only feeds
// Progress totals and defaulting); the executed range is [lo, hi).
func RunRangeAgg(ctx context.Context, cfg Config, newApp AppFactory, kind RuntimeKind, lo, hi int) (*stats.Aggregator, error) {
	cfg = cfg.fill()
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("experiments: invalid run range [%d, %d)", lo, hi)
	}
	agg, errs := runRangePooled(ctx, cfg, newApp, kind, lo, hi)
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return agg, errors.Join(errs...)
}

// runRangePooled is the sharded worker-pool engine behind both RunMany
// (full range) and RunRangeAgg (fleet shards): split [lo, hi) over
// cfg.Workers sessions, fold per worker, merge in shard order. Each
// worker builds its own app instance and reuses one device and runtime
// for every seed in its shard. An analyzed registry app could be shared
// (TestConcurrentSessionsShareBuiltApp runs two sessions on one), but a
// caller's factory may close its task bodies over mutable state, and
// only a per-worker instance keeps such an app race-free.
func runRangePooled(ctx context.Context, cfg Config, newApp AppFactory, kind RuntimeKind, lo, hi int) (*stats.Aggregator, []error) {
	start := time.Now()
	sh := SplitRange(lo, hi, cfg.Workers)
	aggs := make([]*stats.Aggregator, len(sh))
	errss := make([][]error, len(sh))
	var done atomic.Int64
	var timing shardTimings
	var wg sync.WaitGroup
	for w, s := range sh {
		wg.Add(1)
		go func(w int, s [2]int) {
			defer wg.Done()
			// A panicking app factory or session setup fails its shard, not
			// the process: sweeps run inside long-lived servers
			// (internal/service). A panic inside a run is already that
			// run's error (kernel.Session).
			defer func() {
				if r := recover(); r != nil {
					errss[w] = append(errss[w], PanicError{Value: r, What: kind.String()})
				}
			}()
			aggs[w], errss[w] = sweepShard(ctx, cfg, newApp, kind, s, &done, &timing)
		}(w, s)
	}
	wg.Wait()
	if cfg.Timings != nil {
		cfg.Timings.Build += time.Duration(timing.build.Load())
		cfg.Timings.Run += time.Duration(timing.run.Load())
		cfg.Timings.Wall += time.Since(start)
	}

	agg := stats.NewAggregator()
	var errs []error
	for w := range sh {
		if aggs[w] != nil {
			agg.Merge(aggs[w])
		}
		errs = append(errs, errss[w]...)
	}
	return agg, errs
}

// shardTimings accumulates worker stage durations (in nanoseconds) for
// Config.Timings.
type shardTimings struct {
	build, run atomic.Int64
}

// sweepShard runs one worker's contiguous seed range on a single session.
// done is the sweep-wide finished-run counter feeding cfg.Progress.
func sweepShard(ctx context.Context, cfg Config, newApp AppFactory, kind RuntimeKind, s [2]int, done *atomic.Int64, timing *shardTimings) (*stats.Aggregator, []error) {
	agg := stats.NewAggregator()
	if ctx.Err() != nil {
		return agg, nil
	}
	buildStart := time.Now()
	bench, err := newApp()
	if err != nil {
		for range s[1] - s[0] {
			notifyProgress(cfg, done) // every seed of the shard finishes failed
		}
		return agg, []error{fmt.Errorf("experiments: build app for %s: %w", kind, err)}
	}
	sess := kernel.NewSession(NewRuntime(kind), bench.App, cfg.Supply())
	timing.build.Add(int64(time.Since(buildStart)))
	runStart := time.Now()
	defer func() { timing.run.Add(int64(time.Since(runStart))) }()
	var errs []error
	for i := s[0]; i < s[1]; i++ {
		if ctx.Err() != nil {
			break
		}
		seed := cfg.BaseSeed + int64(i)
		run, err := sess.Run(seed)
		if err != nil {
			errs = append(errs, fmt.Errorf("experiments: %s on %s (seed %d): %w",
				bench.App.Name, kind, seed, err))
			notifyProgress(cfg, done)
			continue
		}
		agg.Add(run)
		notifyProgress(cfg, done)
	}
	return agg, errs
}

// notifyProgress bumps the sweep-wide finished-run counter and invokes
// the progress hook, if any. Failed seeds count too, the seeds of a shard
// whose app failed to build included, so done reaches the total even for
// sweeps with broken seeds.
func notifyProgress(cfg Config, done *atomic.Int64) {
	if cfg.Progress == nil {
		done.Add(1)
		return
	}
	cfg.Progress(int(done.Add(1)), cfg.Runs)
}

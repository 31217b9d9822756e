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
	// What identifies the work that panicked (runtime kind plus seeds).
	What string
}

// Error renders the panic with its provenance.
func (e PanicError) Error() string {
	return fmt.Sprintf("experiments: %s panicked: %v", e.What, e.Value)
}

// shard is a contiguous range of run indices, [lo, hi).
type shard struct{ lo, hi int }

// shardRange splits the run-index range [lo, hi) into at most workers
// contiguous shards of near-equal size.
func shardRange(lo, hi, workers int) []shard {
	n := hi - lo
	if workers > n {
		workers = n
	}
	out := make([]shard, 0, workers)
	cur := lo
	for w := 0; w < workers; w++ {
		size := n / workers
		if w < n%workers {
			size++
		}
		out = append(out, shard{cur, cur + size})
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
// worker builds its own app instance (peripheral models carry mutable
// per-run state, so instances cannot be shared across goroutines) and
// reuses one device and runtime for every seed in its shard.
func runRangePooled(ctx context.Context, cfg Config, newApp AppFactory, kind RuntimeKind, lo, hi int) (*stats.Aggregator, []error) {
	start := time.Now()
	sh := shardRange(lo, hi, cfg.Workers)
	aggs := make([]*stats.Aggregator, len(sh))
	errss := make([][]error, len(sh))
	var done atomic.Int64
	var timing shardTimings
	var wg sync.WaitGroup
	for w, s := range sh {
		wg.Add(1)
		go func(w int, s shard) {
			defer wg.Done()
			// A panicking app or runtime fails its shard, not the process:
			// sweeps run inside long-lived servers (internal/service).
			defer func() {
				if r := recover(); r != nil {
					errss[w] = append(errss[w], PanicError{Value: r,
						What: fmt.Sprintf("%s runs %d-%d", kind, s.lo, s.hi-1)})
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

// sweepSink adapts a sweep-wide trace sink for per-seed device reuse: it
// exposes only Event, so Device.Reset's tracer-Reset hook cannot reach a
// Reset method on the underlying sink.
type sweepSink struct{ kernel.Tracer }

// sweepShard runs one worker's contiguous seed range on a single session.
// done is the sweep-wide finished-run counter feeding cfg.Progress.
func sweepShard(ctx context.Context, cfg Config, newApp AppFactory, kind RuntimeKind, s shard, done *atomic.Int64, timing *shardTimings) (*stats.Aggregator, []error) {
	agg := stats.NewAggregator()
	if ctx.Err() != nil {
		return agg, nil
	}
	buildStart := time.Now()
	bench, err := newApp()
	if err != nil {
		return agg, []error{fmt.Errorf("experiments: build app for %s runs %d-%d: %w",
			kind, s.lo, s.hi-1, err)}
	}
	sess := kernel.NewSession(NewRuntime(kind), bench.App, cfg.Supply())
	if cfg.TraceSink != nil {
		// The wrapper hides any Reset method on the sink: device reuse
		// between seeds must not clear events other runs already emitted.
		sess.Tracer = sweepSink{cfg.TraceSink}
	}
	timing.build.Add(int64(time.Since(buildStart)))
	runStart := time.Now()
	defer func() { timing.run.Add(int64(time.Since(runStart))) }()
	var errs []error
	for i := s.lo; i < s.hi; i++ {
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
		run.Runtime = kind.String() // distinguish EaseIO/Op. in reports
		agg.Add(run)
		notifyProgress(cfg, done)
	}
	return agg, errs
}

// notifyProgress bumps the sweep-wide finished-run counter and invokes
// the progress hook, if any. Failed seeds count too, so done reaches the
// total even for sweeps with broken seeds.
func notifyProgress(cfg Config, done *atomic.Int64) {
	if cfg.Progress == nil {
		done.Add(1)
		return
	}
	cfg.Progress(int(done.Add(1)), cfg.Runs)
}

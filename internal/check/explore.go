// The adaptive exploration: which candidate cut points get replayed.
//
// Exhaustive mode evaluates every candidate. Otherwise a coarse grid
// (Config.Grid points, always including the first and last candidate) is
// evaluated first; then, in deterministic rounds, every interval between
// adjacent explored points whose outcome hashes differ is bisected, until
// no interval changes hands. Intervals whose endpoints agree are pruned:
// the checker assumes the failure points between two hash-identical
// outcomes behave identically. That assumption is what buys the speedup —
// Exhaustive is the sound setting, and the small scenario apps use it.
//
// The same loop explores every level of the nested-failure checkpoint
// tree (see nested.go): a subtree's candidate list is the recovery
// trajectory's cut points, its schedules share the subtree's failure
// prefix, and its recording passes resume from the subtree's root
// checkpoint instead of re-running the golden pass.
//
// Each round's point set is a pure function of the previously evaluated
// outcomes, and every replay is independent and deterministic, so the
// explored set — and therefore the Report — does not depend on Workers.

package check

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"easeio/internal/experiments"
	"easeio/internal/kernel"
)

// recordFn captures one checkpoint per requested candidate index of a
// cut list — recorder.record along the golden run at level 1,
// replayer.recordSuffix along a recovery trajectory deeper in the tree.
// nil in from-boot mode.
type recordFn func(cuts []time.Duration, idxs []int) (map[int]*kernel.Checkpoint, error)

// explorer is one checker job's exploration state: the golden reference
// and candidates from the plan's golden pass, the recorder, and the
// replayer pool every unit of the job runs on.
type explorer struct {
	cfg    Config
	newApp experiments.AppFactory
	kind   experiments.RuntimeKind
	golden *golden
	cuts   []time.Duration // the golden run's cuts: the boot root's candidates
	rec    *recorder       // nil in from-boot mode

	reps    []*replayer  // worker pool, grown lazily by round demand
	tracer  *replayer    // suffix tracing + recording passes below level 1
	done    atomic.Int64 // evaluated points, feeds Config.Progress
	planned atomic.Int64 // points scheduled so far, feeds Config.Progress
}

// exploreRange runs the adaptive loop over one node's cut list: the
// golden candidates or one subtree's recovery-trajectory cuts. Every
// evaluated schedule is prefix + cuts[i]. In checkpointed mode each round
// is recorded first: a recording pass captures one checkpoint per pending
// point (in batches of checkpointBatch to bound memory), and the workers
// restore and resume instead of re-running from boot. The replayer pool
// is sized lazily by actual round demand — a round with fewer points
// than Workers never pays for app builds it cannot use. On cancellation
// it returns what was evaluated so far plus ctx's error.
func (e *explorer) exploreRange(ctx context.Context, cuts []time.Duration, lo, hi int,
	prefix []time.Duration, record recordFn) ([]outcome, error) {
	out := make([]outcome, len(cuts))

	pending := seedPoints(e.cfg, lo, hi)
	for len(pending) > 0 {
		e.planned.Add(int64(len(pending)))
		batch := len(pending)
		if record != nil && batch > checkpointBatch {
			batch = checkpointBatch
		}
		for start := 0; start < len(pending); start += batch {
			end := start + batch
			if end > len(pending) {
				end = len(pending)
			}
			idxs := pending[start:end]
			var cps map[int]*kernel.Checkpoint
			if record != nil {
				if err := ctx.Err(); err != nil {
					return out, err
				}
				var err error
				if cps, err = record(cuts, idxs); err != nil {
					return out, err
				}
			}
			if err := e.growPool(len(idxs)); err != nil {
				return out, err
			}
			if err := e.evalRound(ctx, out, cuts, idxs, cps, prefix); err != nil {
				return out, err
			}
			// evalRound is a barrier: every replay of this batch has
			// finished, so its checkpoints can back the next batch.
			ckptRecycle(cps)
		}
		pending = nextRound(out)
	}
	return out, nil
}

// growPool ensures the pool covers min(Workers, demand) replayers.
func (e *explorer) growPool(demand int) error {
	want := e.cfg.Workers
	if demand < want {
		want = demand
	}
	for len(e.reps) < want {
		r, err := e.newReplayer()
		if err != nil {
			return err
		}
		e.reps = append(e.reps, r)
	}
	return nil
}

// seedPoints returns the initial candidate indices within the explored
// range [lo, hi): everything in exhaustive mode or for small ranges,
// else Grid evenly spaced indices including both ends. Later bisection
// rounds stay in range by construction: midpoints of in-range intervals
// are in range.
func seedPoints(cfg Config, lo, hi int) []int {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if cfg.Exhaustive || n <= cfg.Grid {
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = lo + i
		}
		return idxs
	}
	idxs := make([]int, 0, cfg.Grid)
	last := -1
	for g := 0; g < cfg.Grid; g++ {
		i := lo + g*(n-1)/(cfg.Grid-1)
		if i != last {
			idxs = append(idxs, i)
			last = i
		}
	}
	return idxs
}

// nextRound bisects every interval between adjacent evaluated points
// whose outcome hashes differ. The scan walks the full outcome slice, so
// it is independent of the order the previous round finished in.
func nextRound(out []outcome) []int {
	var next []int
	prev := -1
	for i := range out {
		if !out[i].evaluated {
			continue
		}
		if prev >= 0 && i-prev > 1 && out[prev].hash != out[i].hash {
			next = append(next, prev+(i-prev)/2)
		}
		prev = i
	}
	return next
}

// evalRound evaluates the given candidate indices on the worker pool.
// Results land in out by index, so completion order is irrelevant. cps
// is nil in from-boot mode; in checkpointed mode it holds one checkpoint
// per index. prefix is the failure schedule shared by every point of the
// round (nil at level 1).
func (e *explorer) evalRound(ctx context.Context, out []outcome, cuts []time.Duration, idxs []int, cps map[int]*kernel.Checkpoint, prefix []time.Duration) error {
	evalOne := func(r *replayer, i int) outcome {
		r.sched = append(append(r.sched[:0], prefix...), cuts[i])
		if cps != nil {
			return r.evalFrom(cps[i], r.sched)
		}
		return r.eval(r.sched)
	}
	reps := e.reps
	if len(reps) > len(idxs) {
		reps = reps[:len(idxs)]
	}
	if len(reps) == 1 {
		for _, i := range idxs {
			if err := ctx.Err(); err != nil {
				return err
			}
			out[i] = evalOne(reps[0], i)
			e.progress()
		}
		return nil
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for _, r := range reps {
		wg.Add(1)
		go func(r *replayer) {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					continue // drain without evaluating
				}
				out[i] = evalOne(r, i)
				e.progress()
			}
		}(r)
	}
	for _, i := range idxs {
		work <- i
	}
	close(work)
	wg.Wait()
	return ctx.Err()
}

func (e *explorer) progress() {
	done := e.done.Add(1)
	if e.cfg.Progress != nil {
		e.cfg.Progress(int(done), int(e.planned.Load()))
	}
}

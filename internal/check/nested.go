// The checkpoint tree: one exploration routine for every depth.
//
// A k-failure schedule is built level by level: the first failure lands
// on a golden-run charge-slice boundary, and every further failure lands
// on a boundary of the *previous* failure's recovery trajectory. The
// tree's root is boot, whose candidates are the golden cuts; every other
// node is a passing schedule, and expanding it means tracing its
// recovery trajectory once to enumerate the next level's candidates,
// then replaying each candidate from a checkpoint captured along that
// trajectory (the node's subtree shares the trajectory the way level-1
// replays share the golden prefix).
//
// Two pruning rules keep the exponential space tractable:
//
//   - Diverging nodes are never expanded. A schedule whose prefix
//     already diverges adds no information — the prefix is a shorter
//     failing schedule, and the report's Minimal field wants the
//     shortest one.
//
//   - Identical outcomes collapse their subtrees. Within a level, each
//     maximal run of consecutive evaluated passing points with equal
//     outcome hashes is expanded through its first member only; the
//     outcome hash covers every non-time-sensitive memory word, the
//     verdict, the failure count and the staleness record, so
//     hash-equal siblings resume from observably equivalent states and
//     their subtrees are explored once. This is the same equivalence
//     the level-1 bisection prunes with, applied across levels.
//
// Node selection (nestedPlan) is a pure function of the level's
// outcomes, and outcomes are worker-invariant, so the tree — and the
// report — remains byte-identical across worker counts.

package check

import (
	"context"
	"fmt"
	"time"

	"easeio/internal/kernel"
)

// nestedRep is one node selected for expansion: the first index of a
// maximal run of consecutive evaluated passing points with equal
// outcome hashes, plus how many evaluated siblings it stands for.
type nestedRep struct {
	idx       int
	collapsed int
}

// nestedPlan selects the expansion representatives among a level's
// outcomes over the candidate-index range [lo, hi). It is a pure
// function of the outcomes — the property FuzzNestedScheduleEnumeration
// pins — and returns representatives in ascending index order.
func nestedPlan(out []outcome, lo, hi int) []nestedRep {
	if lo < 0 {
		lo = 0
	}
	if hi > len(out) {
		hi = len(out)
	}
	var reps []nestedRep
	open := false   // a run of equal-hash passing points is open
	var hash uint64 // its outcome hash
	for i := lo; i < hi; i++ {
		o := out[i]
		if !o.evaluated {
			continue // pruned points belong to the enclosing run
		}
		if o.div != nil {
			open = false // diverging points break runs and never expand
			continue
		}
		if open && o.hash == hash {
			reps[len(reps)-1].collapsed++
			continue
		}
		reps = append(reps, nestedRep{idx: i})
		open, hash = true, o.hash
	}
	return reps
}

// checkUnits validates same-depth units before they are grown and
// returns the units the explorer grows. In checkpointed mode every
// non-boot unit must carry its root checkpoint, and each root is checked
// once, against the tracer replayer's own attached device and runtime
// (every replayer is built from the same blueprint): a root taken under
// another blueprint fails the unit here instead of crashing a restore.
// In from-boot mode roots are dropped and suffixes are traced from boot.
func (e *explorer) checkUnits(units []Unit) ([]Unit, error) {
	out := make([]Unit, len(units))
	for i, u := range units {
		if len(u.Schedule) != len(units[0].Schedule) {
			return nil, fmt.Errorf("check: unit %d has a %d-failure prefix, unit 0 a %d-failure one; a group must share one depth",
				i, len(u.Schedule), len(units[0].Schedule))
		}
		if len(u.Schedule) == 0 || e.rec == nil {
			u.Root = nil
		} else {
			if u.Root == nil {
				return nil, fmt.Errorf("check: unit %d has a failure prefix but no root checkpoint", i)
			}
			t, err := e.tracerReplayer()
			if err != nil {
				return nil, err
			}
			if err := t.sess.Attach(t.seed); err != nil {
				return nil, err
			}
			if err := u.Root.Fits(t.sess.Device(), t.sess.Runtime()); err != nil {
				return nil, fmt.Errorf("check: unit %d: %w", i, err)
			}
		}
		out[i] = u
	}
	return out, nil
}

// tracerReplayer returns the replayer that traces and records suffixes
// below level 1, building it on first use.
func (e *explorer) tracerReplayer() (*replayer, error) {
	if e.tracer == nil {
		t, err := e.newReplayer()
		if err != nil {
			return nil, err
		}
		e.tracer = t
	}
	return e.tracer, nil
}

// grow explores a frontier of same-depth nodes breadth-first, level by
// level, through depth last, and returns the results plus the frontier
// below last (empty once last reaches Config.Failures). Because it books
// stats and divergences strictly in (depth, node, candidate) order, a
// frontier split into contiguous groups grown separately reproduces, per
// depth and in group order, exactly what the whole frontier produces. On
// cancellation or a hard replay error it returns what was found so far
// plus the error.
func (e *explorer) grow(ctx context.Context, frontier []Unit, last int) (UnitReport, []Unit, error) {
	var res UnitReport
	for len(frontier) > 0 {
		depth := len(frontier[0].Schedule) + 1
		if depth > last {
			return res, frontier, nil
		}
		if depth > 1 {
			if _, err := e.tracerReplayer(); err != nil {
				return res, nil, err
			}
		}
		ds := DepthStats{Depth: depth}
		var next []Unit
		for _, node := range frontier {
			if err := ctx.Err(); err != nil {
				res.Depths = append(res.Depths, ds)
				return res, nil, err
			}
			ds.Expanded++
			ds.Collapsed += node.Collapsed
			children, err := e.expand(ctx, node, &ds, &res)
			if err != nil {
				res.Depths = append(res.Depths, ds)
				return res, nil, err
			}
			next = append(next, children...)
			ckptRecycle(node.Root)
		}
		res.Depths = append(res.Depths, ds)
		frontier = next
	}
	return res, nil, nil
}

// candidates enumerates the failure points below a node: the golden cuts
// for the boot root, the recovery trajectory's cuts otherwise.
func (e *explorer) candidates(n Unit) ([]time.Duration, error) {
	switch {
	case len(n.Schedule) == 0:
		return e.cuts, nil
	case n.Root != nil:
		return e.tracer.traceFrom(n.Root, n.Schedule)
	default:
		return e.tracer.traceBoot(n.Schedule)
	}
}

// recordFor returns the recording pass for a node's candidates: along
// the golden run for the boot root, along the recovery trajectory from
// the node's root checkpoint otherwise, and none in from-boot mode.
func (e *explorer) recordFor(n Unit) recordFn {
	switch {
	case e.rec == nil:
		return nil
	case len(n.Schedule) == 0:
		return e.rec.record
	default:
		return func(cuts []time.Duration, idxs []int) ([]*kernel.Checkpoint, error) {
			return e.tracer.recordSuffix(n.Root, n.Schedule, cuts, idxs)
		}
	}
}

// expand explores one node: it enumerates the node's candidates, runs the
// adaptive loop over its range, books the accounting and divergences
// into ds/res, and returns the node's own expansion representatives for
// the level below, rooted at checkpoints re-recorded along the same
// trajectory (the eval rounds' checkpoints are already recycled).
func (e *explorer) expand(ctx context.Context, node Unit, ds *DepthStats, res *UnitReport) ([]Unit, error) {
	cands, err := e.candidates(node)
	if err != nil {
		return nil, err
	}
	lo, hi := clampRange(node.CutLo, node.CutHi, len(cands))
	ds.Candidates += hi - lo
	if hi == lo {
		return nil, nil
	}

	record := e.recordFor(node)
	out, err := e.exploreRange(ctx, cands, lo, hi, node.Schedule, record)
	explored := 0
	for i, o := range out {
		if !o.evaluated {
			continue
		}
		explored++
		if o.div != nil {
			d := *o.div
			d.Index = i
			d.At = cands[i]
			if len(node.Schedule) > 0 {
				// Single-failure divergences carry their schedule in At.
				d.Schedule = append(append([]time.Duration(nil), node.Schedule...), cands[i])
			}
			res.Divergences = append(res.Divergences, d)
		}
	}
	ds.Explored += explored
	ds.Pruned += (hi - lo) - explored
	if err != nil {
		return nil, err
	}
	if len(node.Schedule)+1 >= e.cfg.Failures {
		return nil, nil
	}

	reps := nestedPlan(out, lo, hi)
	if len(reps) == 0 {
		return nil, nil
	}
	var roots []*kernel.Checkpoint // parallel to reps; nil in from-boot mode
	if record != nil {
		idxs := make([]int, len(reps))
		for i, rp := range reps {
			idxs[i] = rp.idx
		}
		if roots, err = record(cands, idxs); err != nil {
			return nil, err
		}
	}
	children := make([]Unit, len(reps))
	for i, rp := range reps {
		children[i] = Unit{
			Schedule:  append(append([]time.Duration(nil), node.Schedule...), cands[rp.idx]),
			Collapsed: rp.collapsed,
		}
		if roots != nil {
			children[i].Root = roots[i]
		}
	}
	return children, nil
}

// clampRange clamps a unit's candidate-index range [lo, hi) against the
// candidate count; hi <= 0 means "through the last candidate".
func clampRange(lo, hi, candidates int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi <= 0 || hi > candidates {
		hi = candidates
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

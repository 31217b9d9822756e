// The checker pipeline: plan → units → merge. Plan runs the golden pass
// and returns the report header plus a list of work units; one
// exploration routine grows the units' subtrees (on the plan's own
// explorer in process, after a fresh golden pass in RunUnits on a fleet
// worker); Merge folds the units' results into the Report. Run is the
// three stages in one process, and the distributed checker ships the same
// units to fleet workers, so there is one pipeline however a job is
// executed.
//
// A unit is a root plus the slice of its candidates to explore. The root
// is either boot — no checkpoint and an empty failure prefix, whose
// candidates are the golden run's cuts — or a checkpoint at the last cut
// of a passing failure prefix, whose candidates are the recovery
// trajectory's cuts. A k=1 plan is one boot unit covering every golden
// cut. A k>1 plan runs level 1 itself (representative selection is a
// function of outcomes across the whole golden range) and returns the
// level-1 representatives as checkpoint-rooted units.
//
// Splitting is sound because the tree growth is breadth-first and
// subtrees never share state: the global depth-d frontier is the
// concatenation, in unit order, of each group's own depth-d frontier, so
// a group explored on its own produces the global (depth, node,
// candidate) order restricted to the group, and Merge concatenates
// groups per depth. Collapse run-lengths travel with the units — a node's
// collapsed siblings are booked when the node is expanded, which may
// happen on a worker that never saw the level-above outcomes. An
// exhaustive boot unit splits by cut range too: every candidate is
// evaluated whatever the range, so ranges concatenate in cut order. An
// adaptive boot unit cannot, because its bisection prunes against
// outcomes across the whole range.

package check

import (
	"context"
	"time"

	"easeio/internal/experiments"
	"easeio/internal/kernel"
)

// Header is a checker job's report header: everything the golden pass
// determines before any failure point is explored.
type Header struct {
	App     string
	Runtime string
	Seed    int64
	Off     time.Duration
	// Failures is the explored schedule depth k (1 = the single-failure
	// checker).
	Failures int

	// GoldenOnTime and GoldenCorrect describe the continuous-power
	// reference run.
	GoldenOnTime  time.Duration
	GoldenCorrect bool

	// Candidates is the number of charge-slice boundaries the golden pass
	// enumerated.
	Candidates int

	// Note carries the zero-candidate explanation when Candidates == 0.
	Note string
}

// Unit is one checker work unit. A boot unit has an empty Schedule and a
// nil Root; a checkpoint unit's Root is the checkpoint (device and
// runtime halves) at the last cut of Schedule. CutLo/CutHi select the
// root's candidate-index range [CutLo, CutHi); CutHi == 0 means "through
// the last candidate", and out-of-range bounds clamp. Running a unit
// consumes its checkpoint (it is recycled into the recording pool).
type Unit struct {
	Schedule     []time.Duration
	Collapsed    int
	Root         *kernel.Checkpoint
	CutLo, CutHi int
}

// UnitReport is the result of exploring a group of same-depth units: the
// per-depth stats (from the units' own depth down) and the divergences,
// in (depth, unit, candidate) order.
type UnitReport struct {
	Depths      []DepthStats
	Divergences []Divergence
}

// Planned is Plan's result: the report header, the results planning
// already produced, and the units whose exploration remains.
type Planned struct {
	Header

	// Level1 is the level-1 exploration a k>1 plan runs itself (empty for
	// k=1 plans, whose level 1 is the boot unit).
	Level1 UnitReport

	// Units are the work units still to run, in candidate order. Empty
	// means the job is complete.
	Units []Unit

	e *explorer
}

// Plan runs the first stage of a checker job: the golden pass and, for
// Failures > 1, the level-1 exploration with its representatives' root
// checkpoints recorded. A k=1 plan has one boot unit covering every
// candidate. On cancellation or a replay error during level 1 it returns
// the partial plan alongside the error.
func Plan(ctx context.Context, newApp experiments.AppFactory, kind experiments.RuntimeKind, cfg Config) (*Planned, error) {
	cfg = cfg.Filled()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := goldenPass(newApp, kind, cfg)
	if err != nil {
		return nil, err
	}
	if p.Candidates == 0 {
		return p, nil
	}
	p.Units = []Unit{{}}
	if cfg.Failures == 1 {
		return p, nil
	}
	// The level-2 roots leave the recording pool for good: they belong to
	// the caller until their subtrees are grown.
	p.Level1, p.Units, err = p.e.grow(ctx, p.Units, 1)
	return p, err
}

// run grows the given units on the plan's own explorer — no second golden
// pass or app build. The units must be same-depth units of this plan (or
// of a plan with the same configuration).
func (p *Planned) run(ctx context.Context, units []Unit) (UnitReport, error) {
	units, err := p.e.checkUnits(units)
	if err != nil {
		return UnitReport{}, err
	}
	res, _, err := p.e.grow(ctx, units, p.Failures)
	return res, err
}

// Split cuts the plan's units into at most n contiguous groups, one per
// shard: an exhaustive boot unit splits its cut range, an adaptive boot
// unit stays whole, and checkpoint units split the unit list. The groups'
// UnitReports, merged in group order after Level1, reproduce Run.
func (p *Planned) Split(n int) [][]Unit {
	if len(p.Units) == 1 && len(p.Units[0].Schedule) == 0 {
		if !p.e.cfg.Exhaustive {
			return [][]Unit{p.Units}
		}
		var groups [][]Unit
		for _, r := range experiments.SplitRange(0, p.Candidates, n) {
			groups = append(groups, []Unit{{CutLo: r[0], CutHi: r[1]}})
		}
		return groups
	}
	var groups [][]Unit
	for _, r := range experiments.SplitRange(0, len(p.Units), n) {
		groups = append(groups, p.Units[r[0]:r[1]])
	}
	return groups
}

// RunUnits is the worker half of a distributed check: it recomputes the
// golden reference locally (the golden pass is deterministic, so only
// the units need shipping), then grows the units' subtrees down to
// cfg.Failures. cfg must match the planning configuration. An empty unit
// list is a complete, empty result.
func RunUnits(ctx context.Context, newApp experiments.AppFactory, kind experiments.RuntimeKind, cfg Config, units []Unit) (UnitReport, error) {
	cfg = cfg.Filled()
	if err := cfg.Validate(); err != nil {
		return UnitReport{}, err
	}
	if len(units) == 0 {
		return UnitReport{}, nil
	}
	p, err := goldenPass(newApp, kind, cfg)
	if err != nil {
		return UnitReport{}, err
	}
	return p.run(ctx, units)
}

// Run model-checks one app×runtime blueprint: it enumerates the candidate
// failure points with a golden pass, explores them with single-failure
// replays (and, when Config.Failures > 1, grows a checkpoint tree of
// failure-during-recovery schedules below every passing point), and
// reports every divergence found. Cancelling ctx stops the exploration at
// the next point boundary and returns the partial report alongside ctx's
// error.
func Run(ctx context.Context, newApp experiments.AppFactory, kind experiments.RuntimeKind, cfg Config) (*Report, error) {
	p, err := Plan(ctx, newApp, kind, cfg)
	if p == nil {
		return nil, err
	}
	var res UnitReport
	if err == nil {
		res, err = p.run(ctx, p.Units)
	}
	return Merge(p.Header, []UnitReport{p.Level1, res}), err
}

// Merge folds unit results — the plan's Level1 first, then the groups in
// group order — into the Report: per-depth stats are summed and
// divergences are concatenated depth by depth in part order, so the
// report reads level 1 in candidate order, then each deeper level in
// (subtree, candidate) order, exactly as one process books them. Depth 1
// maps onto Report.Explored/Pruned; deeper levels onto Report.Depths.
func Merge(h Header, parts []UnitReport) *Report {
	rep := &Report{Header: h}
	byDepth := make(map[int]*DepthStats)
	maxDepth := 0
	for _, p := range parts {
		for _, ds := range p.Depths {
			agg := byDepth[ds.Depth]
			if agg == nil {
				agg = &DepthStats{Depth: ds.Depth}
				byDepth[ds.Depth] = agg
			}
			agg.Expanded += ds.Expanded
			agg.Collapsed += ds.Collapsed
			agg.Candidates += ds.Candidates
			agg.Explored += ds.Explored
			agg.Pruned += ds.Pruned
			maxDepth = max(maxDepth, ds.Depth)
		}
	}
	for d := 1; d <= maxDepth; d++ {
		agg := byDepth[d]
		if agg == nil {
			continue
		}
		if d == 1 {
			rep.Explored, rep.Pruned = agg.Explored, agg.Pruned
		} else {
			rep.Depths = append(rep.Depths, *agg)
		}
		for _, p := range parts {
			for _, dv := range p.Divergences {
				if max(len(dv.Schedule), 1) == d {
					rep.Divergences = append(rep.Divergences, dv)
				}
			}
		}
	}
	rep.Minimal = minimalSchedule(rep.Divergences)
	return rep
}

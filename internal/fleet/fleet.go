// Package fleet is the distributed sweep/check subsystem: a coordinator
// that shards jobs across N workers — sweep jobs by contiguous seed
// range, check jobs as groups of the checker's work units — and merges
// shard results back into exactly the Summary or Report a single process
// would have produced. Every shard has one shape: an encoded task
// (wire.SweepShard or wire.SubtreeShard) fixed at plan time, journaled in
// the job record and handed out verbatim on every lease. Every result
// is checked against its task before it is journaled, so a malformed
// result from a remote worker is a failed attempt, never a coordinator
// panic or a skewed merge.
//
// Durability: every input a restart cannot reproduce (a job with its
// plan → shard complete or shard failed) is a record in a
// crash-consistent write-ahead log (wal.go): appended, CRC-framed and
// fsynced before the transition takes effect. Submit journals a job's
// spec and plan as one record once planning has succeeded, so a job
// whose plan fails is Submit's error and never journaled. A job commits
// with its last shard result; a lease, the merged Summary or Report and a
// job failure are never journaled. A coordinator that dies mid-job
// replays the WAL on restart: completed shards keep their results,
// leased-but-unfinished shards revert to pending, the job resumes where
// it stopped, a job whose shards all completed merges again, and a job
// whose shard failed three times fails again. Replay is a pure fold over
// the records, so replaying a prefix twice is idempotent.
//
// Determinism: the merged results are byte-identical to the in-process
// engines (experiments.RunMany, check.Run) because both engines fold
// order-dependent state only — a sweep shard ships its
// stats.Aggregator as-is and shards merge in seed order. A check job runs
// the checker's own pipeline: check.Plan in the coordinator (the golden
// pass, plus level 1 for k > 1), Planned.Split into unit groups shipped
// as wire.SubtreeShard tasks that stateless workers grow with
// check.RunUnits, and check.Merge over the journaled level-1 result and
// the shard results in shard order. The split policy — an exhaustive
// k=1 job's boot unit by cut range, an adaptive k=1 job as one unit, any
// k > 1 job by its level-1 roots — keeps every merge exact (see DESIGN.md
// on the check work unit).
//
// Transports: workers pull work — Lease/Complete/Fail — either
// in-process (loopback workers, the testing and single-host mode) or
// over TCP with the internal/wire framing (cmd/easeio-worker).
package fleet

import (
	"fmt"
	"reflect"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/stats"
)

// BlueprintSource resolves app names to factories. service.Registry
// satisfies it structurally; tests use small fixed maps.
type BlueprintSource interface {
	LookupFactory(name string) (experiments.AppFactory, bool)
}

// The two job modes.
const (
	ModeSweep = "sweep"
	ModeCheck = "check"
)

// Spec describes one distributed job. The unused mode's fields must be
// zero.
type Spec struct {
	Mode    string // ModeSweep or ModeCheck
	App     string
	Runtime string // experiments.RuntimeKind name

	// Sweep: the seeded-run count and base seed.
	Runs     int
	BaseSeed int64

	// Check: the checker's parameters. Check.Off, FromBoot, Workers and
	// Progress must stay zero (a shipped check runs at the default
	// off-time, checkpointed; ShardWorkers is its worker knob). Every
	// k > 1 job shards at the level-1 frontier; a k=1 job shards its cut
	// range when exhaustive and stays one shard when adaptive, because
	// bisection prunes across the whole range.
	Check check.Config

	// Shards is the desired shard count (0 means 4; clamped to the
	// available work).
	Shards int

	// ShardWorkers bounds each worker's inner parallelism per shard
	// (0 = the worker's default).
	ShardWorkers int
}

// validate rejects specs the planner cannot shard.
func (s Spec) validate() error {
	if s.App == "" {
		return fmt.Errorf("fleet: spec has no app")
	}
	if _, err := experiments.ParseRuntimeKind(s.Runtime); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	switch s.Mode {
	case ModeSweep:
		if s.Runs <= 0 {
			return fmt.Errorf("fleet: sweep spec needs Runs > 0")
		}
		if !reflect.ValueOf(s.Check).IsZero() {
			return fmt.Errorf("fleet: sweep spec must not set Check")
		}
	case ModeCheck:
		if s.Runs != 0 {
			return fmt.Errorf("fleet: check spec must not set Runs")
		}
		if c := s.Check; c.Off != 0 || c.FromBoot || c.Workers != 0 || c.Progress != nil {
			return fmt.Errorf("fleet: check spec must not set Check.Off, FromBoot, Workers or Progress")
		}
		if err := s.Check.Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	default:
		return fmt.Errorf("fleet: unknown mode %q", s.Mode)
	}
	if s.Shards < 0 || s.ShardWorkers < 0 {
		return fmt.Errorf("fleet: negative shard parameters")
	}
	return nil
}

// Result is a merged job outcome.
type Result struct {
	Mode string

	// Summary is the sweep outcome (Mode == ModeSweep), byte-identical
	// to experiments.RunMany over the same spec.
	Summary stats.Summary

	// Report is the check outcome (Mode == ModeCheck), byte-identical to
	// check.Run over the same spec.
	Report *check.Report

	// Errs carries per-run failures from sweep shards (the flattened
	// form of the error experiments.RunMany would have joined).
	Errs []string
}

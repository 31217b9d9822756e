// Device checkpointing: a full mid-run snapshot of the hardware model,
// restorable into the same device or any device with the same blueprint
// attached. The failure-point checker uses checkpoints taken at
// charge-slice boundaries to replay only the post-failure suffix of a
// run instead of re-simulating from boot (DESIGN.md §13).

package kernel

import (
	"math/rand"

	"easeio/internal/lazyrand"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/timekeeper"
)

// countingSource wraps math/rand's default source and counts draws, so
// the peripheral randomness position can be checkpointed as (seed,
// draws) and re-established by rewinding to the same position. Every
// rand.Rand method maps to one or more Int63/Uint64 draws, each
// advancing the underlying generator by exactly one step, so the count
// pins the stream position exactly.
//
// Draws of the current seed are memoized, which makes a same-seed seek
// O(1) instead of paying math/rand's ~µs reseed per restore — the
// checker restores thousands of checkpoints into the same device, all
// on one seed, and the reseed would otherwise dominate suffix replay
// (it profiled at over half the checker's total time). The memo is
// bounded by the longest run's draw count and is dropped on a real
// reseed.
type countingSource struct {
	// src is created on the first unmemoized draw: many simulated runs
	// never sample peripheral randomness at all. src == nil implies the
	// memo is empty (entries only ever come from src), so a fresh
	// source is at the right position; once created, src always sits at
	// len(hist) draws past seed. The source is a lazyrand.Source —
	// bit-identical to rand.NewSource but with O(1) reseeding, so the
	// per-run Seed on the pooled path costs ten word-stores instead of
	// math/rand's ~µs eager state fill.
	src   rand.Source64
	seed  int64
	draws uint64   // position in the stream
	hist  []uint64 // memoized raw draws for seed
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed}
}

// next returns the draw at the current position, from the memo when the
// position has been visited before.
func (c *countingSource) next() uint64 {
	if c.draws < uint64(len(c.hist)) {
		v := c.hist[c.draws]
		c.draws++
		return v
	}
	if c.src == nil {
		c.src = lazyrand.New(c.seed)
	}
	v := c.src.Uint64()
	c.hist = append(c.hist, v)
	c.draws++
	return v
}

// Int63 derives the signed draw exactly like math/rand's rngSource does
// (mask the top bit of the same raw uint64), so the stream is identical
// to calling src.Int63 directly.
func (c *countingSource) Int63() int64 { return int64(c.next() & (1<<63 - 1)) }

func (c *countingSource) Uint64() uint64 { return c.next() }

func (c *countingSource) Seed(seed int64) {
	if seed == c.seed {
		c.draws = 0 // rewind within the memoized stream
		return
	}
	c.seed, c.draws, c.hist = seed, 0, c.hist[:0]
	if c.src != nil {
		c.src.Seed(seed)
	}
}

// seek positions the source exactly n draws past the seed.
func (c *countingSource) seek(seed int64, n uint64) {
	c.Seed(seed)
	if uint64(len(c.hist)) < n && c.src == nil {
		c.src = lazyrand.New(c.seed)
	}
	for uint64(len(c.hist)) < n {
		c.hist = append(c.hist, c.src.Uint64())
	}
	c.draws = n
}

// Checkpoint is a full copy of a device's mid-run state: all memory
// banks (used prefixes), the clock, the work ledger, the run statistics,
// the peripheral randomness position, and the supply's mutable state.
// Observation-only state (Tracer, Cuts) is deliberately excluded: sinks
// describe who is watching a device, not what the device is, and
// restoring one device's observers into another would cross-wire
// recordings.
//
// A checkpoint is immutable after Snapshot and safe to restore any
// number of times, into the snapshotted device or into a different
// device with the same blueprint attached (same allocation layout —
// mem.Memory.RestoreAll verifies this).
type Checkpoint struct {
	mem        *mem.DeviceSnapshot
	clock      timekeeper.State
	ledger     Ledger
	run        *stats.Run
	randSeed   int64
	randDraws  uint64
	supplyName string
	supply     power.SupplyState
}

// Snapshot captures the device's full current state. Call it only at
// rest points — between charge slices (e.g. from a CutSink) or outside
// a run — never from inside a memory or supply operation.
func (d *Device) Snapshot() *Checkpoint { return d.SnapshotInto(nil) }

// SnapshotInto is Snapshot reusing cp's buffers when cp is non-nil — the
// recycling path for callers that take and discard checkpoints in bulk
// (one per candidate failure point in the checker). The reused cp must
// no longer be needed; its previous contents are overwritten.
func (d *Device) SnapshotInto(cp *Checkpoint) *Checkpoint {
	if cp == nil {
		cp = &Checkpoint{}
	}
	cp.mem = d.Mem.SnapshotAllInto(cp.mem)
	cp.clock = d.Clock.State()
	cp.ledger = *d.Ledger
	cp.run = d.Run.CloneInto(cp.run)
	cp.randSeed = d.randSrc.seed
	cp.randDraws = d.randSrc.draws
	cp.supplyName = d.Supply.Name()
	// Reusing the previous state's box (when it came from the same supply
	// type) keeps recycled snapshots free of the per-call interface-boxing
	// allocation.
	cp.supply = d.Supply.SnapshotState(cp.supply)
	return cp
}

// Restore rewinds the device to the checkpointed state. The supply's
// state is restored only when the checkpoint carries one (an imported
// checkpoint may not) and the device currently carries the same supply
// (matched by Name) the checkpoint captured; otherwise the current
// supply is left untouched for the caller to configure — this is how the
// checker restores continuous-power checkpoints into schedule-driven
// replay devices. Tracer and Cuts are never touched.
func (d *Device) Restore(cp *Checkpoint) {
	d.Mem.RestoreAll(cp.mem)
	d.Clock.Restore(cp.clock)
	*d.Ledger = cp.ledger
	d.Run = cp.run.CloneInto(d.Run)
	d.randSrc.seek(cp.randSeed, cp.randDraws)
	if cp.supply != nil && d.Supply.Name() == cp.supplyName {
		d.Supply.RestoreState(cp.supply)
	}
}

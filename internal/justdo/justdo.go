// Package justdo implements a JustDo-style logging runtime (Izraelevitz,
// Kelly, Kolli — ASPLOS 2016), the checkpointing-family comparator the
// paper discusses in §2 and §7.2.
//
// Where task-based systems re-execute an interrupted task from its start,
// JustDo logging resumes from the interrupted operation: every store to
// non-volatile memory is logged together with a progress counter, and all
// program state lives in non-volatile memory ("it does not allow volatile
// memory usage"). After a power failure, execution fast-forwards through
// already-completed operations — replaying recorded I/O results instead
// of re-performing them — and continues from the exact interruption
// point.
//
// The trade-off this package exists to demonstrate: JustDo wastes almost
// no work under power failures and never repeats I/O, but pays for it
// with per-operation logging overhead on *every* execution — the reason
// the paper's §2 dismisses checkpointing for energy-scarce devices and
// §7.2 notes JustDo "increases runtime overhead by keeping track of every
// STORE instruction".
//
// Modeling notes. Our task bodies are Go closures that cannot resume
// mid-function, so resumption is modeled as deterministic fast-forward:
// the body re-runs, but every operation whose sequence number is below
// the persisted progress counter is skipped at a small sequence-check
// cost, with recorded results (I/O return values) restored from the log.
// This reproduces JustDo's observable behaviour — time, energy, I/O
// counts, and memory state — under the same deterministic-replay
// assumption the real system makes (stores are re-applied idempotently).
// Control flow that consumes I/O results stays on its original path
// because the recorded values are restored. The engine still calls the
// attempt a "task" for accounting, but there is no all-or-nothing
// boundary: progress persists operation by operation.
package justdo

import (
	"fmt"

	"easeio/internal/kernel"
	"easeio/internal/mcu"
	"easeio/internal/mem"
	"easeio/internal/rtbase"
	"easeio/internal/task"
)

// logSlots bounds the per-task-instance value log (one slot per
// value-producing operation). 4096 words = 8 KB of FRAM — the log
// footprint is itself part of JustDo's cost (compare Table 6's runtime
// metadata sizes).
const logSlots = 4096

// Runtime is one per-run JustDo instance.
type Runtime struct {
	rtbase.Base

	// progress is the persisted per-task operation counter.
	progress mem.Addr
	// valueLog records I/O return values by operation sequence.
	valueLog mem.Addr

	// seq is the volatile operation counter of the current attempt,
	// reset at boot and compared against the persisted progress.
	seq int
}

// New returns a fresh JustDo runtime.
func New() *Runtime { return &Runtime{} }

var _ kernel.Hooks = (*Runtime)(nil)

// Name implements kernel.Hooks.
func (r *Runtime) Name() string { return "JustDo" }

// Attach implements kernel.Hooks.
func (r *Runtime) Attach(dev *kernel.Device, app *task.App) error {
	if err := r.Init(dev, app); err != nil {
		return err
	}
	r.progress = dev.Mem.Alloc(mem.FRAM, 1)
	r.valueLog = dev.Mem.Alloc(mem.FRAM, logSlots)
	return nil
}

// OnBoot implements kernel.Hooks: the progress counter and value log are
// durable FRAM words, which a reset or restore brings back with the
// device, and the volatile sequence counter is rebuilt here.
func (r *Runtime) OnBoot(c *kernel.Ctx) {
	r.LoadBoot(c)
	c.ChargeMemAccess(mem.FRAM, false, true) // progress counter
	r.seq = 0
}

// BeginTask implements kernel.Hooks.
func (r *Runtime) BeginTask(c *kernel.Ctx, t *task.Task) { r.seq = 0 }

// Transition implements kernel.Hooks: reset the progress counter for the
// next task alongside the pointer update.
func (r *Runtime) Transition(c *kernel.Ctx, next *task.Task) {
	c.ChargeMemAccess(mem.FRAM, true, true)
	r.CommitTransition(c, next, func() {
		r.Dev.Mem.Write(r.progress, 0)
	})
}

// step numbers one operation and reports whether it was already completed
// (fast-forward). It opens a ledger span: completed operations are
// durable the moment the progress counter advances, so their work commits
// immediately rather than waiting for a task boundary.
func (r *Runtime) step(c *kernel.Ctx) (seq int, done bool, mark kernel.SpanMark) {
	seq = r.seq
	r.seq++
	done = uint16(seq) < r.Dev.Mem.Read(r.progress)
	if done {
		// Fast-forward: a sequence comparison only.
		c.ChargeOverheadCycles(2)
	}
	return seq, done, r.Dev.Ledger.Mark()
}

// complete persists the operation's completion and commits its span —
// the per-operation log write that is JustDo's overhead.
func (r *Runtime) complete(c *kernel.Ctx, seq int, mark kernel.SpanMark) {
	c.ChargeOverheadCycles(mcu.FlagSetCycles)
	r.Dev.Mem.Write(r.progress, uint16(seq+1))
	r.Dev.Ledger.CommitSince(mark)
}

// recordValue persists an operation result for replay.
func (r *Runtime) recordValue(c *kernel.Ctx, seq int, v uint16) {
	if seq >= logSlots {
		panic(fmt.Sprintf("justdo: task exceeds %d logged operations", logSlots))
	}
	c.ChargeMemAccess(mem.FRAM, true, true)
	r.Dev.Mem.Write(r.valueLog.Add(seq), v)
}

// replayValue restores a recorded result.
func (r *Runtime) replayValue(c *kernel.Ctx, seq int) uint16 {
	c.ChargeMemAccess(mem.FRAM, false, true)
	return r.Dev.Mem.Read(r.valueLog.Add(seq))
}

// Compute implements kernel.Hooks: compute is sequenced like every other
// operation — resume-from-instruction means completed computation is
// never re-paid. The completion write per compute block is part of
// JustDo's per-operation logging overhead.
func (r *Runtime) Compute(c *kernel.Ctx, n int64) {
	seq, done, mark := r.step(c)
	if done {
		return
	}
	c.ChargeCycles(n)
	r.complete(c, seq, mark)
}

// Load implements kernel.Hooks: loads are sequenced and their values
// logged. Real JustDo resumes at the exact interrupted instruction and
// never re-runs a load; this fast-forward model reproduces that property
// by replaying the logged value, so downstream computation is pinned to
// what the original execution observed even when later stores have
// already modified the location (the read-modify-write idempotence
// hazard). The per-load log write is part of the overhead story: JustDo
// pays for resumability on every operation of every execution.
func (r *Runtime) Load(c *kernel.Ctx, v *task.NVVar, i int) uint16 {
	seq, done, mark := r.step(c)
	if done {
		return r.replayValue(c, seq)
	}
	c.ChargeMemAccess(mem.FRAM, false, false)
	val := r.Dev.Mem.Read(r.MasterAddr(v).Add(i))
	r.recordValue(c, seq, val)
	r.complete(c, seq, mark)
	return val
}

// LoadRun implements kernel.Hooks as n sequenced Loads: every word is
// its own logged step, so there is no run-wide prefix to batch.
func (r *Runtime) LoadRun(c *kernel.Ctx, v *task.NVVar, off, n int) uint16 {
	var s uint16
	for j := 0; j < n; j++ {
		s += r.Load(c, v, off+j)
	}
	return s
}

// Store implements kernel.Hooks: every store is sequenced and logged —
// JustDo's defining overhead. Completed stores are skipped on replay so
// the memory image never regresses.
func (r *Runtime) Store(c *kernel.Ctx, v *task.NVVar, i int, val uint16) {
	seq, done, mark := r.step(c)
	if done {
		return
	}
	c.ChargeMemAccess(mem.FRAM, true, false)
	r.Dev.Mem.Write(r.MasterAddr(v).Add(i), val)
	r.complete(c, seq, mark)
}

// CallIO implements kernel.Hooks: completed value-returning operations
// replay their recorded value instead of re-executing (semantics
// annotations are ignored — everything completed is final). Void
// operations re-execute: their effects live outside the value log —
// volatile accelerator state, external transmissions — and JustDo's
// no-volatile-state model has nothing to restore them from.
func (r *Runtime) CallIO(c *kernel.Ctx, s *task.IOSite, idx int) uint16 {
	if !s.Returns {
		return r.ExecIO(c, s, idx)
	}
	seq, done, mark := r.step(c)
	if done {
		r.NoteIOSkip(s)
		return r.replayValue(c, seq)
	}
	v := r.ExecIO(c, s, idx)
	r.recordValue(c, seq, v)
	r.complete(c, seq, mark)
	return v
}

// DMACopy implements kernel.Hooks: a completed transfer to non-volatile
// memory is skipped. A transfer into volatile memory can never be skipped
// — JustDo's no-volatile-state rule, relaxed here only by re-executing
// the refill (idempotent: any mutation of the source would be a later,
// not-yet-executed sequenced store).
func (r *Runtime) DMACopy(c *kernel.Ctx, d *task.DMASite, src, dst task.Loc, words int) {
	srcA, dstA := c.ResolveLoc(src), c.ResolveLoc(dst)
	if dstA.Bank.Volatile() {
		r.ExecDMA(c, d, srcA, dstA, words)
		return
	}
	seq, done, mark := r.step(c)
	if done {
		r.NoteDMASkip(d)
		return
	}
	r.ExecDMA(c, d, srcA, dstA, words)
	r.complete(c, seq, mark)
}

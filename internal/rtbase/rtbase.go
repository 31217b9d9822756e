// Package rtbase carries the machinery every task-based runtime in this
// repository shares: master copies of task-shared variables in FRAM, the
// persistent task pointer, pseudo-atomic commit application, and the
// measurement-side bookkeeping of I/O executions, repeats and skips.
// Runtimes read the compiler front-end's output where frontend.Analyze
// left it, on the blueprint (Task.Meta, IOSite.DependsOn, IOBlock.Members,
// DMASite.Exclude). The only layout Base derives from the blueprint is
// the I/O slot numbering Init computes.
//
// Commit protocol note: real runtimes make their commit step
// failure-atomic with redo logs (Alpaca) or buffer-index flips (InK). We
// model that correctness property — not the log structure — by charging a
// commit's full cost first (interruptible) and applying its state changes
// only after the charge survives. A power failure mid-commit therefore
// leaves masters untouched and the task re-executes cleanly, which is the
// behaviour the real protocols guarantee.
package rtbase

import (
	"fmt"

	"easeio/internal/kernel"
	"easeio/internal/mcu"
	"easeio/internal/mem"
	"easeio/internal/task"
)

// Base is embedded by each runtime implementation. It reads the
// front-end's output straight off the analyzed blueprint (Task.Meta and
// the sites' annotations); all per-run state is held in flat slices
// indexed by the dense IDs the builder assigned at declaration and sized
// once at Init (variable count, task count, I/O slot count). Reset clears
// those prefixes in place and never reallocates. Base implements the
// kernel.Hooks lifecycle trio — Reset, SnapshotState, RestoreState — for
// every runtime that embeds it, and the hooks whose behaviour no shipped
// runtime varies or only one overrides: CurrentTask, TaskPointer,
// Compute, AddrOf (InK overrides it) and IOBlock (EaseIO overrides it).
type Base struct {
	Dev *kernel.Device
	App *task.App

	addrs   []mem.Addr // master copy addresses, by variable ID
	taskPtr mem.Addr
	// siteSlot maps an I/O site ID to its first bookkeeping slot; dmaSlot
	// is the slot of DMA site 0 (see Init for the numbering).
	siteSlot []int
	dmaSlot  int

	// cur caches the persistent task pointer (a task ID, or
	// kernel.TaskDone). It is volatile: LoadBoot re-reads it at every
	// boot, so a checkpoint does not carry it.
	cur int

	// st is the checkpointable bookkeeping: the measurement-world
	// records (never charged). Slots are held in a flat array indexed by
	// the slot numbering Init computes; a task must commit (bumping its
	// instance counter) before any other task can run, so a slot whose
	// version tag is stale can never be read again — it is reset in place
	// on the next touch. This makes the fixed-size array observationally
	// equivalent to an unbounded (site, idx, task, instance)-keyed map.
	st kernel.RuntimeState
}

// Device returns the device the runtime is attached to, or nil before
// Attach. Every runtime embedding Base therefore satisfies the facade's
// DeviceHolder interface for post-run memory inspection.
func (b *Base) Device() *kernel.Device { return b.Dev }

// Init allocates the master copies and the persistent task pointer, and
// numbers the I/O bookkeeping slots: dynamic instance idx of a site uses
// slot base+idx, where a site's base is the running total of Instances
// over the sites declared before it, and the DMA sites (one slot each)
// follow all I/O slots in declaration order. The numbering depends only
// on the blueprint, so a kernel.RuntimeState captured from one instance
// restores into any instance of an equivalently built app.
func (b *Base) Init(dev *kernel.Device, app *task.App) error {
	if err := app.Validate(); err != nil {
		return err
	}
	if !app.Analyzed() {
		return fmt.Errorf("rtbase: app %q not analyzed; run frontend.Analyze first", app.Name)
	}
	b.Dev = dev
	b.App = app
	b.addrs = make([]mem.Addr, len(app.Vars))
	b.siteSlot = make([]int, len(app.Sites))
	slots := 0
	for i, s := range app.Sites {
		b.siteSlot[i] = slots
		slots += s.Instances
	}
	b.dmaSlot = slots
	b.st.Slots = make([]kernel.IOSlot, slots+len(app.DMAs))
	b.st.TaskInst = make([]int32, len(app.Tasks))
	for i, v := range app.Vars {
		b.addrs[i] = dev.Mem.Alloc(mem.FRAM, v.Words)
	}
	b.taskPtr = dev.Mem.Alloc(mem.FRAM, 1)
	b.writeInitial()
	return nil
}

// writeInitial writes the durable words the attach path owns: variable
// initial values and the task pointer at the entry task.
func (b *Base) writeInitial() {
	for i, v := range b.App.Vars {
		b.Dev.Mem.WriteBlock(b.addrs[i], v.Init, len(v.Init))
	}
	entry := b.App.Entry()
	b.Dev.Mem.Write(b.taskPtr, uint16(entry.ID))
	b.cur = entry.ID
}

// Reset implements kernel.Hooks: it returns the base to its post-Init
// state on a device whose memory was just cleared by Device.Reset. The
// watermarked bookkeeping prefixes (sized once at Init) are cleared in
// place and the initial durable words are rewritten at their existing
// addresses. Runtime-specific attempt state needs no clearing: the run
// starts through OnBoot, which re-derives it.
func (b *Base) Reset(dev *kernel.Device) error {
	b.Dev = dev
	clear(b.st.Slots)
	clear(b.st.TaskInst)
	b.writeInitial()
	return nil
}

// SnapshotState implements kernel.Hooks: it copies the base's
// bookkeeping into into, reusing its slices — a reused state captured
// from the same app is a pure slice copy with no allocation (the
// failure-point checker takes thousands of these per run). Addresses
// (addrs, taskPtr) are layout, not state: each instance's own attach
// established them identically.
func (b *Base) SnapshotState(into *kernel.RuntimeState) {
	into.Slots = append(into.Slots[:0], b.st.Slots...)
	into.TaskInst = append(into.TaskInst[:0], b.st.TaskInst...)
}

// RestoreState implements kernel.Hooks: it re-establishes a captured
// state on a device whose memory has been restored to the matching
// checkpoint. The state is copied, never aliased, so one checkpoint
// restores any number of times. The task pointer comes back with the
// memory, and the reboot that follows every restore re-reads it.
func (b *Base) RestoreState(dev *kernel.Device, s *kernel.RuntimeState) {
	b.Dev = dev
	b.st.Slots = append(b.st.Slots[:0], s.Slots...)
	b.st.TaskInst = append(b.st.TaskInst[:0], s.TaskInst...)
}

// Compute charges application CPU work straight through — the default
// for task-based runtimes, whose recovery granularity is the task.
func (b *Base) Compute(c *kernel.Ctx, n int64) { c.ChargeCycles(n) }

// AddrOf implements kernel.Hooks: DMA sees the master copy. A runtime
// whose committed copy moves (InK's double buffers) overrides it.
func (b *Base) AddrOf(v *task.NVVar) mem.Addr { return b.MasterAddr(v) }

// IOBlock implements kernel.Hooks: no block semantics, the body just
// runs. EaseIO, whose blocks skip as a unit, overrides it.
func (b *Base) IOBlock(_ *kernel.Ctx, _ *task.IOBlock, body func()) { body() }

// MasterAddr returns the FRAM address of a variable's master copy. The
// identity check catches variables of a different blueprint whose dense
// ID happens to be in range.
func (b *Base) MasterAddr(v *task.NVVar) mem.Addr {
	if uint(v.ID) >= uint(len(b.addrs)) || b.App.Vars[v.ID] != v {
		panic(fmt.Sprintf("rtbase: variable %q not attached", v.Name))
	}
	return b.addrs[v.ID]
}

// TaskPointer implements kernel.Hooks.
func (b *Base) TaskPointer() mem.Addr { return b.taskPtr }

// LoadBoot re-reads the persistent task pointer after a (re)boot.
func (b *Base) LoadBoot(c *kernel.Ctx) {
	c.ChargeMemAccess(mem.FRAM, false, true)
	b.cur = int(b.Dev.Mem.Read(b.taskPtr))
}

// CurrentTask implements kernel.Hooks: the task the pointer designates,
// or nil when done.
func (b *Base) CurrentTask() *task.Task {
	if b.cur == kernel.TaskDone {
		return nil
	}
	return b.App.Tasks[b.cur]
}

// CommitTransition finalizes the running task: extra carries the runtime's
// own commit writes (applied pseudo-atomically with the pointer update).
// next == nil ends the application.
func (b *Base) CommitTransition(c *kernel.Ctx, next *task.Task, extra func()) {
	c.ChargeOverheadCycles(mcu.TaskTransitionCycles)
	c.ChargeMemAccess(mem.FRAM, true, true)
	if extra != nil {
		extra()
	}
	b.st.TaskInst[b.cur]++
	id := kernel.TaskDone
	if next != nil {
		id = next.ID
	}
	b.Dev.Mem.Write(b.taskPtr, uint16(id))
	b.cur = id
	b.Dev.Ledger.CommitAttempt()
}

// noteIO records an execution attempt of site s (instance idx) in the
// current task instance. It reports whether the execution is redundant —
// the operation already completed in a previous energy cycle. Any
// re-execution (completed or not) counts toward the Table 4 "Re-exe."
// statistic.
func (b *Base) noteIO(s *task.IOSite, idx int) (slot int, redundant bool) {
	slot = b.siteSlot[s.ID] + idx
	sl := &b.st.Slots[slot]
	cur, inst := int32(b.cur), b.st.TaskInst[b.cur]
	if sl.TaskID != cur || sl.TaskInst != inst {
		*sl = kernel.IOSlot{TaskID: cur, TaskInst: inst}
	}
	sl.ExecCount++
	b.Dev.Run.IOExecs++
	if sl.ExecCount > 1 {
		b.Dev.Run.IORepeats++
	}
	return slot, sl.Completed
}

// NoteIOSkip records that the runtime avoided re-executing site s.
func (b *Base) NoteIOSkip(s *task.IOSite) {
	b.Dev.Run.IOSkips++
	if b.Dev.TraceOn() {
		b.Dev.Trace(kernel.EvIOSkip, "%s sem=%s", s.Name, s.Sem)
	}
}

// noteDMA records a DMA execution attempt (see noteIO).
func (b *Base) noteDMA(d *task.DMASite) (slot int, redundant bool) {
	slot = b.dmaSlot + d.ID
	sl := &b.st.Slots[slot]
	cur, inst := int32(b.cur), b.st.TaskInst[b.cur]
	if sl.TaskID != cur || sl.TaskInst != inst {
		*sl = kernel.IOSlot{TaskID: cur, TaskInst: inst}
	}
	sl.ExecCount++
	b.Dev.Run.DMAExecs++
	if sl.ExecCount > 1 {
		b.Dev.Run.DMARepeats++
	}
	return slot, sl.Completed
}

// NoteDMASkip records an avoided DMA re-execution.
func (b *Base) NoteDMASkip(d *task.DMASite) {
	b.Dev.Run.DMASkips++
	if b.Dev.TraceOn() {
		b.Dev.Trace(kernel.EvDMASkip, "%s", d.Name)
	}
}

// ExecIO runs the site's operation with redundancy accounting: executions
// of an operation that already completed charge directly to the Wasted
// bucket (work a continuous-power execution would not perform).
func (b *Base) ExecIO(c *kernel.Ctx, s *task.IOSite, idx int) uint16 {
	slot, redundant := b.noteIO(s, idx)
	if redundant {
		c.PushWasted()
	}
	if b.Dev.TraceOn() {
		b.Dev.Trace(kernel.EvIOExec, "%s[%d] sem=%s (redundant=%v)", s.Name, idx, s.Sem, redundant)
	}
	v := s.Exec(c, idx)
	if redundant {
		c.PopWasted()
	}
	b.st.Slots[slot].Completed = true
	// A physical execution refreshes the site's sample clock; skipped
	// re-executions (which never reach ExecIO) keep the old timestamp —
	// exactly the staleness the freshness oracle measures.
	if s.Freshness > 0 {
		c.Dev.Run.NoteSample(s.ID, c.Now())
	}
	return v
}

// ExecDMA performs the raw transfer with redundancy accounting.
func (b *Base) ExecDMA(c *kernel.Ctx, d *task.DMASite, src, dst mem.Addr, words int) {
	slot, redundant := b.noteDMA(d)
	if redundant {
		c.PushWasted()
	}
	if b.Dev.TraceOn() {
		b.Dev.Trace(kernel.EvDMAExec, "%s %v->%v %dw (redundant=%v)", d.Name, src, dst, words, redundant)
	}
	c.RawDMA(src, dst, words, false)
	if redundant {
		c.PopWasted()
	}
	b.st.Slots[slot].Completed = true
}

// Package rtbase carries the machinery every task-based runtime in this
// repository shares: master copies of task-shared variables in FRAM, the
// persistent task pointer, pseudo-atomic commit application, and the
// measurement-side bookkeeping of I/O executions, repeats and skips.
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

// doneSentinel is the task-pointer value meaning "application finished".
const doneSentinel = 0xFFFF

// ioSlot is the per-run bookkeeping of one dynamic I/O or DMA site
// instance, held in a flat array indexed by the program's frozen slot
// numbering (task.Program.IOSlots). taskID/taskInst version the slot:
// bookkeeping is only ever consulted for the currently running task
// instance, and a task must commit (bumping its instance counter) before
// any other task can run, so a slot whose version tag is stale can never
// be read again — it is reset in place on the next touch. This makes the
// fixed-size array observationally equivalent to the unbounded
// (site, idx, task, instance)-keyed map it replaced.
type ioSlot struct {
	taskID   int32
	taskInst int32
	// execCount counts execution attempts of this instance (Table 4's
	// "Re-exe." counts every re-execution, completed or not).
	execCount int32
	// completed marks instances whose operation finished at least once
	// (re-executing those is truly redundant work, charged to Wasted).
	completed bool
}

// Base is embedded by each runtime implementation. All per-run state is
// held in flat slices sized once at Init from the frozen program tables
// (variable count, task count, I/O slot count); Reset clears those
// prefixes in place and never reallocates. Base implements the
// kernel.Hooks lifecycle trio — Reset, SnapshotState, RestoreState — for
// every runtime that embeds it.
type Base struct {
	Dev *kernel.Device
	App *task.App

	// Prog is the frozen front-end output the runtime reads task metadata
	// through; it never changes after Init.
	Prog *task.Program

	// RTName attributes metadata allocations in the memory report.
	RTName string

	addrs   []mem.Addr // master copy addresses, by variable ID
	taskPtr mem.Addr
	cur     int // volatile cache of the task pointer

	// Measurement-world bookkeeping (never charged), by program slot
	// resp. task ID.
	slots    []ioSlot
	taskInst []int32
}

// Device returns the device the runtime is attached to, or nil before
// Attach. Every runtime embedding Base therefore satisfies the facade's
// DeviceHolder interface for post-run memory inspection.
func (b *Base) Device() *kernel.Device { return b.Dev }

// Init allocates the master copies and the persistent task pointer.
func (b *Base) Init(dev *kernel.Device, app *task.App, rtName string) error {
	if err := app.Validate(); err != nil {
		return err
	}
	prog := app.Program()
	if prog == nil {
		// Apps whose metadata was set up by hand (tests) rather than by
		// frontend.Analyze get a read-only view over their Task.Meta.
		var err error
		if prog, err = task.ViewProgram(app); err != nil {
			return fmt.Errorf("rtbase: %w", err)
		}
	}
	b.Dev = dev
	b.App = app
	b.Prog = prog
	b.RTName = rtName
	b.addrs = make([]mem.Addr, len(app.Vars))
	b.slots = make([]ioSlot, prog.IOSlots())
	b.taskInst = make([]int32, len(app.Tasks))
	for i, v := range app.Vars {
		b.addrs[i] = dev.Mem.Alloc(mem.FRAM, "app", v.Name, v.Words)
	}
	b.taskPtr = dev.Mem.Alloc(mem.FRAM, rtName, "taskptr", 1)
	b.writeInitial()
	return nil
}

// Meta returns the frozen front-end metadata of t.
func (b *Base) Meta(t *task.Task) *task.TaskMeta { return b.Prog.MetaOf(t) }

// writeInitial writes the durable words the attach path owns: variable
// initial values and the task pointer at the entry task.
func (b *Base) writeInitial() {
	for i, v := range b.App.Vars {
		if len(v.Init) > 0 {
			b.Dev.Mem.WriteBlock(b.addrs[i], v.Init, len(v.Init))
		}
	}
	entry := b.App.Entry()
	b.Dev.Mem.Write(b.taskPtr, uint16(entry.ID))
	b.cur = entry.ID
}

// Reset implements kernel.Hooks: it returns the base to its post-Init
// state on a device whose memory was just cleared by Device.Reset. The
// watermarked bookkeeping prefixes (sized once at Init from the frozen
// tables) are cleared in place and the initial durable words are
// rewritten at their existing addresses. Runtime-specific attempt state
// needs no clearing: the run starts through OnBoot, which re-derives it.
func (b *Base) Reset(dev *kernel.Device) error {
	b.Dev = dev
	clear(b.slots)
	clear(b.taskInst)
	b.writeInitial()
	return nil
}

// BaseState is the checkpointable part of a Base: the task-pointer cache
// and the measurement-side bookkeeping that survives reboots. Everything
// is indexed by value types (program slot numbers, task IDs), so a state
// captured from one runtime instance restores exactly into another
// instance attached to an equivalently built app — attach order and slot
// numbering are deterministic. Addresses (addrs, taskPtr) are layout,
// not state: each instance's own attach established them identically.
//
// It is every shipped runtime's whole snapshot: their other durable
// bookkeeping (flags, generations, index words, progress counters) lives
// in FRAM and is captured by the device checkpoint, and their volatile
// attempt state is rebuilt by OnBoot.
type BaseState struct {
	cur      int
	slots    []ioSlot
	taskInst []int32
}

// SnapshotState implements kernel.Hooks: it deep-copies the base's
// checkpointable state into a *BaseState, reusing prev's slices when
// prev is one (its previous contents are overwritten); nil allocates. A
// reused prev captured from the same program is a pure slice copy with
// no allocation — the failure-point checker takes thousands of these
// per run.
func (b *Base) SnapshotState(prev any) any {
	p, _ := prev.(*BaseState)
	if p == nil {
		p = &BaseState{}
	}
	p.cur = b.cur
	p.slots = append(p.slots[:0], b.slots...)
	p.taskInst = append(p.taskInst[:0], b.taskInst...)
	return p
}

// RestoreState implements kernel.Hooks: it re-establishes a *BaseState
// on a device whose memory has been restored to the matching checkpoint.
// The state is copied, never aliased, so one checkpoint restores any
// number of times.
func (b *Base) RestoreState(dev *kernel.Device, state any) {
	s := state.(*BaseState)
	b.Dev = dev
	b.cur = s.cur
	b.slots = append(b.slots[:0], s.slots...)
	b.taskInst = append(b.taskInst[:0], s.taskInst...)
}

// IOSlotState is the exported mirror of one ioSlot, the unit of
// BaseWireState. See ioSlot for field semantics.
type IOSlotState struct {
	TaskID    int32
	TaskInst  int32
	ExecCount int32
	Completed bool
}

// BaseWireState is the exported, serializable mirror of BaseState: what
// a fleet subtree shard ships so a remote worker can restore a runtime
// into the exact bookkeeping state a checkpoint was taken at. The
// indices are value types (program slot numbers, task IDs) — the same
// property that lets BaseState restore across instances makes it safe
// to restore across processes, as long as both sides built the app from
// the same blueprint.
type BaseWireState struct {
	Cur      int
	Slots    []IOSlotState
	TaskInst []int32
}

// Export deep-copies a BaseState into its wire mirror.
func (s *BaseState) Export() BaseWireState {
	w := BaseWireState{
		Cur:      s.cur,
		Slots:    make([]IOSlotState, len(s.slots)),
		TaskInst: append([]int32(nil), s.taskInst...),
	}
	for i, sl := range s.slots {
		w.Slots[i] = IOSlotState{
			TaskID: sl.taskID, TaskInst: sl.taskInst,
			ExecCount: sl.execCount, Completed: sl.completed,
		}
	}
	return w
}

// ImportBaseState rebuilds the BaseState a wire mirror describes, in the
// form Base.RestoreState accepts.
func ImportBaseState(w BaseWireState) *BaseState {
	s := &BaseState{
		cur:      w.Cur,
		slots:    make([]ioSlot, len(w.Slots)),
		taskInst: append([]int32(nil), w.TaskInst...),
	}
	for i, sl := range w.Slots {
		s.slots[i] = ioSlot{
			taskID: sl.TaskID, taskInst: sl.TaskInst,
			execCount: sl.ExecCount, completed: sl.Completed,
		}
	}
	return s
}

// Compute charges application CPU work straight through — the default
// for task-based runtimes, whose recovery granularity is the task.
func (b *Base) Compute(c *kernel.Ctx, n int64) { c.ChargeCycles(n) }

// MasterAddr returns the FRAM address of a variable's master copy. The
// identity check catches variables of a different blueprint whose dense
// ID happens to be in range.
func (b *Base) MasterAddr(v *task.NVVar) mem.Addr {
	if uint(v.ID) >= uint(len(b.addrs)) || b.App.Vars[v.ID] != v {
		panic(fmt.Sprintf("rtbase: variable %q not attached", v.Name))
	}
	return b.addrs[v.ID]
}

// LoadBoot re-reads the persistent task pointer after a (re)boot.
func (b *Base) LoadBoot(c *kernel.Ctx) {
	c.ChargeMemAccess(mem.FRAM, false, true)
	b.cur = int(b.Dev.Mem.Read(b.taskPtr))
}

// Current returns the task the pointer designates, or nil when done.
func (b *Base) Current() *task.Task {
	if b.cur == doneSentinel {
		return nil
	}
	return b.App.Tasks[b.cur]
}

// CurrentID returns the raw task pointer value.
func (b *Base) CurrentID() int { return b.cur }

// CommitTransition finalizes the running task: extra carries the runtime's
// own commit writes (applied pseudo-atomically with the pointer update).
// next == nil ends the application.
func (b *Base) CommitTransition(c *kernel.Ctx, next *task.Task, extra func()) {
	c.ChargeOverheadCycles(mcu.TaskTransitionCycles)
	c.ChargeMemAccess(mem.FRAM, true, true)
	if extra != nil {
		extra()
	}
	b.taskInst[b.cur]++
	id := doneSentinel
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
	slot = b.Prog.SiteSlot(s, idx)
	sl := &b.slots[slot]
	cur, inst := int32(b.cur), b.taskInst[b.cur]
	if sl.taskID != cur || sl.taskInst != inst {
		*sl = ioSlot{taskID: cur, taskInst: inst}
	}
	sl.execCount++
	b.Dev.Run.IOExecs++
	b.Dev.Run.CountIO(s.Name)
	if sl.execCount > 1 {
		b.Dev.Run.IORepeats++
	}
	return slot, sl.completed
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
	slot = b.Prog.DMASlot(d)
	sl := &b.slots[slot]
	cur, inst := int32(b.cur), b.taskInst[b.cur]
	if sl.taskID != cur || sl.taskInst != inst {
		*sl = ioSlot{taskID: cur, taskInst: inst}
	}
	sl.execCount++
	b.Dev.Run.DMAExecs++
	if sl.execCount > 1 {
		b.Dev.Run.DMARepeats++
	}
	return slot, sl.completed
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
		defer c.PopWasted()
	}
	if b.Dev.TraceOn() {
		b.Dev.Trace(kernel.EvIOExec, "%s[%d] sem=%s (redundant=%v)", s.Name, idx, s.Sem, redundant)
	}
	v := s.Exec(c, idx)
	b.slots[slot].completed = true
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
		defer c.PopWasted()
	}
	if b.Dev.TraceOn() {
		b.Dev.Trace(kernel.EvDMAExec, "%s %v->%v %dw (redundant=%v)", d.Name, src, dst, words, redundant)
	}
	c.RawDMA(src, dst, words, false)
	b.slots[slot].completed = true
}

// Package kernel is the execution engine of the simulator: it owns the
// device (memory, clock, energy supply), charges every operation's time
// and energy, injects power failures as non-local exits, and drives
// task-based runtimes through boot/attempt/commit cycles.
//
// The central invariant: costs are charged *before* the state change they
// pay for, and big operations are charged in slices. A power failure can
// therefore land between the energy being spent and the effect becoming
// durable — the window in which all of the paper's problems (wasted I/O,
// idempotence bugs, unsafe execution) live.
package kernel

import (
	"fmt"
	"math/rand"
	"time"

	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
	"easeio/internal/timekeeper"
)

// Device aggregates the hardware model for one simulated run.
type Device struct {
	Mem    *mem.Memory
	Clock  *timekeeper.Clock
	Supply power.Supply
	Ledger *Ledger
	// Rand drives the physical-value processes of peripherals. It is
	// measurement-world state: sampling it costs nothing.
	Rand *rand.Rand
	// Run accumulates the run's statistics.
	Run *stats.Run
	// Tracer, when non-nil, receives the execution timeline (see trace.go).
	Tracer Tracer
	// Cuts, when non-nil, receives every charge-slice boundary (see
	// CutSink). Like Tracer it is observation-only state and survives
	// Reset.
	Cuts CutSink
	// NoCompile forces every task to run its interpreted Body even when
	// the program carries compiled kernels — the differential tests'
	// handle for pinning compiled execution byte-identical to
	// interpreted. Like Tracer and Cuts it is configuration, not per-run
	// state, and survives Reset.
	NoCompile bool

	// randSrc is the reseedable source behind Rand, kept so Reset can
	// rewind the peripheral randomness without reallocating it and so
	// Snapshot can record the stream position (see checkpoint.go).
	randSrc *countingSource

	// ctx is the engine's reusable execution context (see runLoop) and
	// checker the reusable output-check surface (see finish) — per-run
	// scratch kept on the device so steady-state pooled runs allocate
	// nothing.
	ctx     Ctx
	checker checkMem
}

// checkMem implements task.CheckMem over a run's final memory: the
// surface finish hands to App.CheckOutput. Equal compares a whole range
// in one call (checking is outside the simulation's cost model, so the
// comparison itself is uncounted — like EqualRange's other harness
// uses); Read goes through the embedded checkReader.
type checkMem struct {
	checkReader
}

// checkReader memoizes a direct read view of the variable last read:
// checkers read variables word by word, thousands of words per run. The
// repository benchmark's profile attribution (benchmark/layers.go) names
// (*checkReader).read as an output-check stage function.
type checkReader struct {
	dev   *Device
	rt    Hooks
	lastV *task.NVVar
	view  mem.ReadView
}

func (r *checkReader) read(v *task.NVVar, i int) uint16 {
	if v != r.lastV {
		r.lastV = v
		r.view = r.dev.Mem.View(r.rt.AddrOf(v), v.Words)
	}
	return r.view.At(i)
}

func (m *checkMem) Read(v *task.NVVar, i int) uint16 { return m.read(v, i) }

func (m *checkMem) Equal(v *task.NVVar, off int, want []uint16) bool {
	return m.dev.Mem.EqualRange(m.rt.AddrOf(v).Add(off), want)
}

// NewDevice assembles a fresh device around the given supply, seeding both
// the supply and the peripheral randomness.
func NewDevice(supply power.Supply, seed int64) *Device {
	supply.Reset(seed)
	src := newCountingSource(seed ^ 0x5ea10)
	return &Device{
		Mem:     mem.New(),
		Clock:   timekeeper.New(),
		Supply:  supply,
		Ledger:  &Ledger{},
		Rand:    rand.New(src),
		Run:     &stats.Run{Seed: seed},
		randSrc: src,
	}
}

// Reset rewinds the device to the state NewDevice(supply, seed) would
// produce, reusing the existing memory, clock, ledger and randomness
// allocations. Memory contents are cleared but the allocator and
// allocation records survive, so a runtime attached to this device keeps
// its addresses valid: re-running an app only requires the runtime to
// rewrite its initial durable state (see Hooks.Reset).
func (d *Device) Reset(supply power.Supply, seed int64) {
	supply.Reset(seed)
	d.Supply = supply
	d.Mem.Reset()
	d.Clock.Reset()
	d.Ledger.Reset()
	// Reseeding the source puts Rand in exactly the state rand.New would:
	// Rand buffers nothing outside its Read method, which nothing uses.
	d.randSrc.Seed(seed ^ 0x5ea10)
	// Reset the run record in place: the previous run's record is
	// invalidated (Session.Run documents that the returned statistics are
	// only valid until the next reset; clone to retain).
	d.Run.ResetForRun(seed)
	if r, ok := d.Tracer.(interface{ Reset() }); ok && r != nil {
		r.Reset()
	}
}

// CutSink receives the on-time of every charge-slice boundary — exactly
// the points at which the supply is consulted and a power failure can
// land. A golden continuous-power pass with a recording sink therefore
// enumerates every distinct failure point of a run: the candidate set the
// failure-point model checker (internal/check) replays against. The sink
// is called from the hot charging path after the slice's time and energy
// have been charged but before the supply is stepped, so the device
// state it observes is byte-identical to the state a replay sees at the
// instant a failure fires at that boundary — which is what lets a sink
// take checkpoints (Device.Snapshot) that a suffix replay can restore.
// Implementations must be cheap and must not mutate the device.
type CutSink interface {
	NoteCut(onTime time.Duration)
}

// powerFailure is the panic sentinel that unwinds an interrupted attempt.
type powerFailure struct{}

// Hooks is the interface a task-based runtime implements. The kernel
// calls lifecycle hooks; task bodies reach the data hooks through Ctx.
//
// Reset, SnapshotState and RestoreState rest on one contract: every
// reset or restore is followed by the reboot path, and OnBoot re-derives
// all attempt-local state (the current task, privatization maps, dirty
// sets) from durable state. So a reset must only rewrite what Attach
// wrote, a snapshot must only capture the volatile bookkeeping a reboot
// does not clear, and a restored checkpoint plus the reboot path is
// equivalent to a from-boot run.
type Hooks interface {
	// Name identifies the runtime ("Alpaca", "InK", "EaseIO").
	Name() string

	// Attach instantiates the app on the device: allocate master copies
	// of task-shared variables and runtime metadata. Called once per
	// instance, before its first run.
	Attach(dev *Device, app *task.App) error

	// Reset returns the attached instance to its post-Attach state on a
	// device whose memory Device.Reset just cleared: rewrite every
	// durable word the attach path wrote (variable initial values,
	// instance counters, the task pointer) and clear the per-run
	// bookkeeping. Sessions call it between runs instead of re-attaching.
	Reset(dev *Device) error

	// SnapshotState captures the volatile bookkeeping that survives
	// reboots (execution counters, completion records). It reuses the
	// storage of prev — a state this runtime type returned earlier that
	// is no longer needed — and allocates when prev is nil. The state is
	// independent of the instance: restoring it into another instance
	// attached to an equivalently laid-out device is exact.
	SnapshotState(prev any) any

	// RestoreState re-establishes a captured state on a device whose
	// memory was restored to the matching checkpoint. The state is copied,
	// never aliased, so one state restores any number of times.
	RestoreState(dev *Device, state any)

	// OnBoot runs the runtime's recovery path after (re)boot.
	OnBoot(c *Ctx)

	// CurrentTask returns the task to execute next, or nil when the app
	// has finished.
	CurrentTask() *task.Task

	// BeginTask runs the runtime's task-entry work (privatization).
	BeginTask(c *Ctx, t *task.Task)

	// Transition commits the current task and installs next (nil = app
	// done).
	Transition(c *Ctx, next *task.Task)

	// Compute charges n cycles of application CPU work; runtimes that
	// track fine-grained progress (JustDo logging) interpose here, the
	// task-based ones charge it straight through.
	Compute(c *Ctx, n int64)

	// Load and Store access word i of a task-shared variable through the
	// runtime's consistency machinery.
	Load(c *Ctx, v *task.NVVar, i int) uint16
	Store(c *Ctx, v *task.NVVar, i int, val uint16)

	// LoadRun returns the sum of words [off, off+n) of v — a compiled
	// kernel's fused load run. It must behave exactly like n successive
	// Load(c, v, off+j) calls: same charges in the same buckets, same
	// failure word if the supply gives out mid-run, same sum. Runtimes
	// whose Load resolves one address for the whole run build it on
	// Ctx.LoadPrefix followed by a per-word Load tail.
	LoadRun(c *Ctx, v *task.NVVar, off, n int) uint16

	// AddrOf resolves a variable to its master (committed) non-volatile
	// address — the address DMA transfers use, bypassing privatization.
	AddrOf(v *task.NVVar) mem.Addr

	// CallIO executes or skips the I/O site instance idx.
	CallIO(c *Ctx, s *task.IOSite, idx int) uint16

	// IOBlock wraps body in the block's atomic scope.
	IOBlock(c *Ctx, b *task.IOBlock, body func())

	// DMACopy performs the transfer with the runtime's safety machinery.
	DMACopy(c *Ctx, d *task.DMASite, src, dst task.Loc, words int)
}

// ReadVar reads word i of v directly from its master address, outside the
// simulation's cost model. Experiment harnesses use it to inspect final
// memory (the "logic analyzer" view).
func ReadVar(dev *Device, rt Hooks, v *task.NVVar, i int) uint16 {
	a := rt.AddrOf(v)
	return dev.Mem.Read(a.Add(i))
}

// String summarizes the device.
func (d *Device) String() string {
	return fmt.Sprintf("device{t=%v on=%v boots=%d}",
		d.Clock.Now(), d.Clock.OnTime(), d.Clock.Boots())
}

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
//
// Session is the engine's only entry point: it builds the device,
// attaches the runtime, keeps the device's attach image, rewinds the
// device to it between runs and resumes restored checkpoints. A runtime
// never resets or snapshots itself: everything of it that outlives a
// reboot is the device's — durable words in FRAM, and the
// measurement-side bookkeeping in Device.Runtime.
package kernel

import (
	"fmt"
	"math/rand"
	"time"

	"easeio/internal/lazyrand"
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
	// Runtime is the attached runtime's measurement-side bookkeeping (see
	// RuntimeState). The runtime sizes its tables at Attach
	// (rtbase.Base.Init); Reset clears them and checkpoints carry them.
	Runtime RuntimeState

	// image is the FRAM prefix the runtime's Attach left below the
	// high-water mark (see Session.Attach): the durable state every run
	// starts from, which Reset rewinds memory to.
	image []uint16

	// randSrc is the reseedable source behind Rand, kept so Reset can
	// rewind the peripheral randomness without reallocating it and so
	// SnapshotInto can record the stream position (see checkpoint.go).
	randSrc *lazyrand.Counting

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
// comparison charges nothing); Read goes through the embedded
// checkReader.
type checkMem struct {
	checkReader
}

// checkReader memoizes the live words of the variable last read:
// checkers read variables word by word, thousands of words per run. The
// repository benchmark's profile attribution (benchmark/layers.go) names
// (*checkReader).read as an output-check stage function.
type checkReader struct {
	dev   *Device
	rt    Hooks
	lastV *task.NVVar
	words []uint16
}

func (r *checkReader) read(v *task.NVVar, i int) uint16 {
	if v != r.lastV {
		r.lastV = v
		r.words = r.dev.Mem.Span(r.rt.AddrOf(v), v.Words)
	}
	return r.words[i]
}

func (m *checkMem) Read(v *task.NVVar, i int) uint16 { return m.read(v, i) }

func (m *checkMem) Equal(v *task.NVVar, off int, want []uint16) bool {
	return m.dev.Mem.EqualRange(m.rt.AddrOf(v).Add(off), want)
}

// NewDevice assembles a fresh device around the given supply, seeding both
// the supply and the peripheral randomness.
func NewDevice(supply power.Supply, seed int64) *Device {
	supply.Reset(seed)
	src := lazyrand.NewCounting(seed ^ 0x5ea10)
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

// Reset rewinds the device to the state it had right after the runtime
// attached, for a run with the given supply and seed, reusing the
// existing memory, clock, ledger and randomness allocations. Memory
// comes back as the attach image (FRAM) and zero (the volatile banks),
// the runtime's bookkeeping tables are cleared, and the allocator
// watermarks survive, so every address the runtime took at Attach stays
// valid and the next run equals a fresh device's first run.
func (d *Device) Reset(supply power.Supply, seed int64) {
	supply.Reset(seed)
	d.Supply = supply
	d.Mem.Reset(d.image)
	clear(d.Runtime.Slots)
	clear(d.Runtime.TaskInst)
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
// take checkpoints (Device.SnapshotInto) that a suffix replay can restore.
// Implementations must be cheap and must not mutate the device.
type CutSink interface {
	NoteCut(onTime time.Duration)
}

// powerFailure is the panic sentinel that unwinds an interrupted attempt.
type powerFailure struct{}

// Hooks is the interface a task-based runtime implements. The kernel
// calls lifecycle hooks; task bodies reach the data hooks through Ctx.
//
// Attach and OnBoot are the only lifecycle hooks. Everything a runtime
// keeps across a reboot is device state — durable words in FRAM and the
// bookkeeping in Device.Runtime — so the kernel rewinds it (Device.Reset
// to the attach image) and checkpoints it (Device.SnapshotInto and
// Restore) without the runtime's help. Every reset or restore is
// followed by the reboot path, and OnBoot re-derives all attempt-local
// state (the current task, privatization maps, dirty sets) from that
// device state.
type Hooks interface {
	// Name identifies the runtime ("Alpaca", "InK", "EaseIO").
	Name() string

	// Attach instantiates the app on the device: allocate master copies
	// of task-shared variables and runtime metadata, write their initial
	// FRAM words and size Device.Runtime. Called once per instance,
	// before its first run; the FRAM it leaves is the image every later
	// run of the session starts from. It writes no volatile memory.
	Attach(dev *Device, app *task.App) error

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

	// LoadRun returns the sum of words [off, off+n) of v — the fused
	// load run a task body reaches through Exec.LoadSum. It must behave
	// exactly like n successive Load(c, v, off+j) calls: same charges in
	// the same buckets, same failure word if the supply gives out
	// mid-run, same sum. Runtimes whose Load resolves one address for
	// the whole run build it on Ctx.LoadPrefix followed by a per-word
	// Load tail.
	LoadRun(c *Ctx, v *task.NVVar, off, n int) uint16

	// AddrOf resolves a variable to its master (committed) non-volatile
	// address — the address DMA transfers use, bypassing privatization.
	AddrOf(v *task.NVVar) mem.Addr

	// TaskPointer returns the FRAM address of the persistent task
	// pointer that OnBoot re-reads; Checkpoint.Fits range-checks its
	// word before a root is adopted.
	TaskPointer() mem.Addr

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

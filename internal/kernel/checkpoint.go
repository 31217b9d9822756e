// Device checkpointing: a full mid-run snapshot of the hardware model
// and the runtime's bookkeeping, restorable into the same device or any
// device with the same blueprint attached. The failure-point checker
// uses checkpoints taken at charge-slice boundaries to replay only the
// post-failure suffix of a run instead of re-simulating from boot
// (DESIGN.md §13), and ships them to fleet workers as they are
// (internal/wire).

package kernel

import (
	"fmt"

	"easeio/internal/lazyrand"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/timekeeper"
)

// TaskDone is the RuntimeState.Cur value of an application that has
// finished.
const TaskDone = 0xFFFF

// IOSlot is the bookkeeping of one dynamic I/O or DMA site instance, by
// the slot numbering rtbase.Base.Init computes from the blueprint's
// declaration order (I/O site instances first, then one slot per DMA
// site). TaskID and
// TaskInst version the slot: it describes the current task instance only
// when both match, and is reset in place on the next touch otherwise.
type IOSlot struct {
	TaskID   int32
	TaskInst int32
	// ExecCount counts execution attempts of this instance (Table 4's
	// "Re-exe." counts every re-execution, completed or not).
	ExecCount int32
	// Completed marks instances whose operation finished at least once
	// (re-executing those is truly redundant work, charged to Wasted).
	Completed bool
}

// RuntimeState is the runtime half of a checkpoint: the volatile
// bookkeeping that survives reboots. Cur caches the task pointer (a task
// ID, or TaskDone); Slots and TaskInst are the measurement-side I/O
// records by I/O slot and the instance counters by task ID. Every
// index is a value type, so a state captured from one runtime instance
// restores exactly into another attached to an equivalently built app —
// across processes too, which is how fleet workers receive it.
//
// It is every shipped runtime's whole snapshot: their other durable
// bookkeeping (flags, generations, index words, progress counters)
// lives in FRAM and is captured by the device half, and their volatile
// attempt state is rebuilt by OnBoot.
type RuntimeState struct {
	Cur      int
	Slots    []IOSlot
	TaskInst []int32
}

// Checkpoint is a full copy of a device's mid-run state: all memory
// banks (used prefixes), the clock, the work ledger, the run statistics,
// the peripheral randomness position, the supply's mutable state, and
// the runtime's bookkeeping. Observation-only state (Tracer, Cuts) is
// deliberately excluded: sinks describe who is watching a device, not
// what the device is, and restoring one device's observers into another
// would cross-wire recordings.
//
// A checkpoint is immutable after SnapshotInto and safe to restore any
// number of times, into the snapshotted device or into a different
// device with the same blueprint attached (same allocation layout —
// mem.Memory.RestoreAll verifies this; Fits checks it without
// panicking). The fields are exported so internal/wire encodes the value
// itself; Validate is the check a decoder runs on untrusted state.
type Checkpoint struct {
	Mem    mem.DeviceSnapshot
	Clock  timekeeper.State
	Ledger Ledger
	Run    *stats.Run

	// The peripheral randomness position.
	RandSeed  int64
	RandDraws uint64

	// SupplyName and Supply are the captured supply's Name and state. A
	// zero Supply (empty Kind) carries none: Restore then leaves the
	// device's supply untouched.
	SupplyName string
	Supply     power.State

	Runtime RuntimeState
}

// SnapshotInto captures the device's full current state together with
// rt's bookkeeping into cp and returns it. Call it only at rest points —
// between charge slices (e.g. from a CutSink) or outside a run — never
// from inside a memory or supply operation. cp's buffers are reused, so
// recycling checkpoints keeps bulk snapshotting (one per candidate
// failure point in the checker) allocation-free; its previous contents
// are overwritten.
func (d *Device) SnapshotInto(cp *Checkpoint, rt Hooks) *Checkpoint {
	d.Mem.SnapshotAllInto(&cp.Mem)
	cp.Clock = d.Clock.State()
	cp.Ledger = *d.Ledger
	cp.Run = d.Run.CloneInto(cp.Run)
	cp.RandSeed, cp.RandDraws = d.randSrc.Pos()
	cp.SupplyName = d.Supply.Name()
	cp.Supply = d.Supply.SnapshotState()
	rt.SnapshotState(&cp.Runtime)
	return cp
}

// Restore rewinds the device and rt's bookkeeping to the checkpointed
// state. The supply's state is restored only when the checkpoint carries
// one and the device currently carries the same supply (matched by Name)
// the checkpoint captured; otherwise the current supply is left
// untouched for the caller to configure — this is how the checker
// restores continuous-power checkpoints into schedule-driven replay
// devices. Tracer and Cuts are never touched.
func (d *Device) Restore(cp *Checkpoint, rt Hooks) {
	d.Mem.RestoreAll(&cp.Mem)
	d.Clock.Restore(cp.Clock)
	*d.Ledger = cp.Ledger
	d.Run = cp.Run.CloneInto(d.Run)
	d.randSrc.SetPos(cp.RandSeed, cp.RandDraws)
	if cp.Supply.Kind != "" && d.Supply.Name() == cp.SupplyName {
		d.Supply.RestoreState(cp.Supply)
	}
	rt.RestoreState(d, &cp.Runtime)
}

// Validate rejects a checkpoint whose state no device can have produced:
// a malformed memory snapshot, a missing run record, a supply state of
// an unknown kind, or a randomness position beyond lazyrand.MaxDraws.
// It does not know the blueprint; Fits compares a valid checkpoint with
// the device and runtime it is about to be restored into.
func (cp *Checkpoint) Validate() error {
	if err := cp.Mem.Validate(); err != nil {
		return err
	}
	if cp.Run == nil {
		return fmt.Errorf("kernel: checkpoint has no run record")
	}
	if cp.RandDraws > lazyrand.MaxDraws {
		return fmt.Errorf("kernel: checkpoint randomness position %d exceeds %d draws",
			cp.RandDraws, lazyrand.MaxDraws)
	}
	if cp.Supply != (power.State{}) || cp.SupplyName != "" {
		if err := cp.Supply.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Fits reports whether cp can be restored into dev with rt attached: the
// allocation watermarks must match dev's memory, the runtime tables must
// have rt's own lengths, and the task pointer must name one of its tasks
// (or TaskDone) — both the cached Cur and the FRAM word the next boot
// re-reads, which agree at every charge-slice boundary. A mismatch means
// the checkpoint was not taken under this blueprint; Restore or the
// first reboot would panic or index out of range.
func (cp *Checkpoint) Fits(dev *Device, rt Hooks) error {
	for b := mem.Bank(0); b < mem.Bank(mem.NumBanks); b++ {
		if got, want := cp.Mem.Alloc[b], dev.Mem.Allocated(b); got != want {
			return fmt.Errorf("kernel: checkpoint %s watermark %d, device has %d", b, got, want)
		}
	}
	var own RuntimeState
	rt.SnapshotState(&own)
	rs := &cp.Runtime
	if len(rs.Slots) != len(own.Slots) || len(rs.TaskInst) != len(own.TaskInst) {
		return fmt.Errorf("kernel: checkpoint runtime has %d slots and %d tasks, %s has %d and %d",
			len(rs.Slots), len(rs.TaskInst), rt.Name(), len(own.Slots), len(own.TaskInst))
	}
	if rs.Cur != TaskDone && (rs.Cur < 0 || rs.Cur >= len(rs.TaskInst)) {
		return fmt.Errorf("kernel: checkpoint task pointer %d out of range [0,%d)", rs.Cur, len(rs.TaskInst))
	}
	// Words past the snapshot's prefix restore as zero.
	ptr, word := rt.TaskPointer(), 0
	if used := cp.Mem.Used[ptr.Bank]; ptr.Word < len(used) {
		word = int(used[ptr.Word])
	}
	if word != rs.Cur {
		return fmt.Errorf("kernel: checkpoint FRAM task pointer %d disagrees with the runtime's task pointer %d",
			word, rs.Cur)
	}
	return nil
}

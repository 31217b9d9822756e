// The exported, serializable view of a device Checkpoint. A Checkpoint's
// fields are opaque on purpose — restore paths depend on invariants the
// kernel owns — so shipping one to a remote worker goes through this
// explicit flattening instead of reflection. The byte layout lives in
// internal/wire; this file defines what a checkpoint *is* on the wire
// and validates imports so a decoder can feed it untrusted data.
//
// Runtime hook state (Hooks.SnapshotState's opaque `any`) is not part of
// the device checkpoint and therefore not part of this view: it ships
// alongside it as rtbase.BaseWireState (see internal/wire's subtree
// shards).

package kernel

import (
	"fmt"
	"time"

	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/timekeeper"
)

// CheckpointState is the flattened form of a Checkpoint. HasSupply
// distinguishes "no supply state shipped" — which imports as a
// checkpoint whose Restore leaves the supply untouched — from a
// zero-valued supply state.
type CheckpointState struct {
	Mem mem.SnapshotState

	// The clock position (timekeeper.State's components).
	Wall, Uptime, OnTime time.Duration
	Boots                int

	// The work ledger: committed buckets plus the pending attempt pools.
	Committed [stats.NumBuckets]stats.Totals
	Pending   [2]stats.Totals

	// Run is the run-statistics record at the checkpoint.
	Run *stats.Run

	// The peripheral randomness position.
	RandSeed  int64
	RandDraws uint64

	// The supply's state, when shipped.
	HasSupply  bool
	SupplyName string
	Supply     power.WireState
}

// ExportState flattens the checkpoint. Slices in the result alias the
// checkpoint's storage — treat them as read-only and do not retain them
// past the checkpoint's next reuse. It fails only when the supply state
// is of a type power.ExportState does not know.
func (cp *Checkpoint) ExportState() (CheckpointState, error) {
	wall, uptime, onTime, boots := cp.clock.Parts()
	committed, pending := cp.ledger.Parts()
	st := CheckpointState{
		Mem:       cp.mem.Export(),
		Wall:      wall,
		Uptime:    uptime,
		OnTime:    onTime,
		Boots:     boots,
		Committed: committed,
		Pending:   pending,
		Run:       cp.run,
		RandSeed:  cp.randSeed,
		RandDraws: cp.randDraws,
	}
	if cp.supply != nil {
		ws, ok := power.ExportState(cp.supply)
		if !ok {
			return CheckpointState{}, fmt.Errorf("kernel: checkpoint supply state %T is not serializable", cp.supply)
		}
		st.HasSupply = true
		st.SupplyName = cp.supplyName
		st.Supply = ws
	}
	return st, nil
}

// ImportCheckpoint rebuilds a restorable Checkpoint from its flattened
// form, taking ownership of the state's slices and Run record. The
// result behaves exactly like a locally snapshotted checkpoint: Restore
// it into any device with the same blueprint attached.
func ImportCheckpoint(st CheckpointState) (*Checkpoint, error) {
	ms, err := mem.ImportSnapshot(st.Mem)
	if err != nil {
		return nil, err
	}
	if st.Run == nil {
		return nil, fmt.Errorf("kernel: checkpoint state has no run record")
	}
	cp := &Checkpoint{
		mem:       ms,
		clock:     timekeeper.MakeState(st.Wall, st.Uptime, st.OnTime, st.Boots),
		ledger:    MakeLedger(st.Committed, st.Pending),
		run:       st.Run,
		randSeed:  st.RandSeed,
		randDraws: st.RandDraws,
	}
	if st.HasSupply {
		ss, err := power.ImportState(st.Supply)
		if err != nil {
			return nil, err
		}
		cp.supplyName, cp.supply = st.SupplyName, ss
	}
	return cp, nil
}

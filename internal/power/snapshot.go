// Supply checkpointing. A device checkpoint must capture the supply's
// mutable state alongside memory and clocks, or a restored run would see
// a supply that has drifted ahead (a capacitor drained past the restore
// point, a timer whose random stream has advanced). Every Supply
// implements SnapshotState/RestoreState over one State value, which a
// checkpoint stores inline and internal/wire ships as is.

package power

import (
	"fmt"
	"time"

	"easeio/internal/lazyrand"
	"easeio/internal/units"
)

// Kind names of the concrete supplies' states. They are part of the wire
// format: renaming one breaks decoding of previously encoded
// checkpoints.
const (
	KindContinuous = "continuous"
	KindSchedule   = "schedule"
	KindTimer      = "timer"
	KindHarvested  = "harvested"
)

// State is a supply's mutable state. Kind names the supply type that
// produced it; only that type's fields are meaningful, the rest stay
// zero. The zero State (empty Kind) is "no supply state".
type State struct {
	Kind string
	// Schedule: how many configured failures have fired.
	Fired int
	// Timer: the next firing point and the random stream position.
	NextAt time.Duration
	Seed   int64
	Draws  uint64
	// Harvested: stored energy, per-run channel gain, and the dead flag.
	Stored units.Energy
	Gain   float64
	Dead   bool
}

// Validate rejects a state no supply can have produced: an unknown kind,
// negative schedule progress, or a timer stream position beyond
// lazyrand.MaxDraws (restoring it would replay that many draws).
func (s State) Validate() error {
	switch s.Kind {
	case KindContinuous, KindHarvested:
	case KindSchedule:
		if s.Fired < 0 {
			return fmt.Errorf("power: negative schedule progress %d", s.Fired)
		}
	case KindTimer:
		if s.Draws > lazyrand.MaxDraws {
			return fmt.Errorf("power: timer stream position %d exceeds %d draws", s.Draws, lazyrand.MaxDraws)
		}
	default:
		return fmt.Errorf("power: unknown supply state kind %q", s.Kind)
	}
	return nil
}

// want panics unless s was produced by a supply of the given kind —
// mixing supplies across a checkpoint boundary is a harness bug.
func (s State) want(kind string) {
	if s.Kind != kind {
		panic(fmt.Sprintf("power: %s restore from a %q state", kind, s.Kind))
	}
}

// SnapshotState implements Supply: a Continuous supply is stateless.
func (Continuous) SnapshotState() State { return State{Kind: KindContinuous} }

// RestoreState implements Supply.
func (Continuous) RestoreState(s State) { s.want(KindContinuous) }

// SnapshotState implements Supply: how many failures have fired. FailAt
// and Off are caller-owned configuration, not state.
func (s *Schedule) SnapshotState() State { return State{Kind: KindSchedule, Fired: s.next} }

// RestoreState implements Supply.
func (s *Schedule) RestoreState(st State) {
	st.want(KindSchedule)
	s.next = st.Fired
}

// SnapshotState implements Supply: the next firing point and the random
// stream position.
func (t *Timer) SnapshotState() State {
	seed, draws := t.src.Pos()
	return State{Kind: KindTimer, NextAt: t.next, Seed: seed, Draws: draws}
}

// RestoreState implements Supply.
func (t *Timer) RestoreState(st State) {
	st.want(KindTimer)
	t.src.SetPos(st.Seed, st.Draws)
	t.next = st.NextAt
}

// SnapshotState implements Supply: the stored energy, the per-run
// channel gain, and the dead flag.
func (s *Harvested) SnapshotState() State {
	return State{Kind: KindHarvested, Stored: s.Cap.Stored(), Gain: s.gain, Dead: s.dead}
}

// RestoreState implements Supply.
func (s *Harvested) RestoreState(st State) {
	st.want(KindHarvested)
	s.Cap.SetStored(st.Stored)
	s.gain = st.Gain
	s.dead = st.Dead
}

package power

import (
	"testing"
	"time"

	"easeio/internal/energy"
	"easeio/internal/units"
)

// walkTimer advances the timer in fixed steps from the given on-time,
// collecting every failure point until horizon.
func walkTimer(s *Timer, from, horizon time.Duration) []time.Duration {
	var fails []time.Duration
	for on := from; on < horizon; on += 50 * time.Microsecond {
		if s.Step(on, on, 0, 0) {
			fails = append(fails, on)
			s.Recharge(on)
		}
	}
	return fails
}

func TestTimerSnapshotRestore(t *testing.T) {
	s := NewTimer(DefaultTimerConfig())
	s.Reset(11)
	mid := 60 * time.Millisecond
	walkTimer(s, 0, mid)
	st := s.SnapshotState(nil)

	want := walkTimer(s, mid, 300*time.Millisecond)
	s.RestoreState(st)
	got := walkTimer(s, mid, 300*time.Millisecond)

	if len(got) != len(want) {
		t.Fatalf("restored continuation: %d failures, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("failure %d at %v after restore, want %v", i, got[i], want[i])
		}
	}

	// The restore must also survive an intervening Reset (reseed).
	s.Reset(99)
	s.RestoreState(st)
	if again := walkTimer(s, mid, 300*time.Millisecond); len(again) != len(want) || again[0] != want[0] {
		t.Fatalf("restore after reseed diverged: %v vs %v", again, want)
	}
}

func TestScheduleSnapshotRestore(t *testing.T) {
	s := NewSchedule(2*time.Millisecond, 5*time.Millisecond, 9*time.Millisecond)
	if !s.Step(0, 2*time.Millisecond, 0, 0) {
		t.Fatal("no failure at first point")
	}
	s.Recharge(0)
	st := s.SnapshotState(nil)
	s.Recharge(0)
	s.Recharge(0)
	if s.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", s.Remaining())
	}
	s.RestoreState(st)
	if s.Remaining() != 2 {
		t.Fatalf("remaining after restore = %d, want 2", s.Remaining())
	}
	if !s.Step(0, 5*time.Millisecond, 0, 0) {
		t.Error("restored schedule must fire at its next point")
	}
}

func TestHarvestedSnapshotRestore(t *testing.T) {
	s := NewHarvested(energy.Constant{P: 100 * units.Microwatt})
	s.StartAtVon = true
	s.Jitter = 0.2
	s.Reset(5)

	// Drain part of the budget, snapshot, drain to brown-out.
	drain := units.EnergyOver(2*units.Milliwatt, 50*time.Microsecond)
	var wall time.Duration
	for i := 0; i < 200; i++ {
		wall += 50 * time.Microsecond
		s.Step(wall, wall, 50*time.Microsecond, drain)
	}
	st := s.SnapshotState(nil)
	stored, gain := s.Cap.Stored(), s.gain

	for !s.Step(wall, wall, 50*time.Microsecond, drain) {
		wall += 50 * time.Microsecond
	}
	s.Recharge(wall)

	s.RestoreState(st)
	if s.Cap.Stored() != stored {
		t.Errorf("stored = %v after restore, want %v", s.Cap.Stored(), stored)
	}
	if s.gain != gain {
		t.Errorf("gain = %v after restore, want %v", s.gain, gain)
	}
	if s.Dead() {
		t.Error("restored supply wrongly dead")
	}
}

func TestContinuousSnapshotRestore(t *testing.T) {
	var s Continuous
	s.RestoreState(s.SnapshotState(nil)) // must not panic
}

func TestRestoreStateTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on cross-type supply restore")
		}
	}()
	NewSchedule(time.Millisecond).RestoreState(Continuous{}.SnapshotState(nil))
}

func TestCountingSourceSeek(t *testing.T) {
	a := newCountingSource(123)
	var want []uint64
	for i := 0; i < 50; i++ {
		want = append(want, a.Uint64())
	}

	b := newCountingSource(0)
	b.seek(123, 20)
	if b.draws != 20 {
		t.Fatalf("draws = %d after seek, want 20", b.draws)
	}
	for i := 20; i < 50; i++ {
		if got := b.Uint64(); got != want[i] {
			t.Fatalf("draw %d = %d after seek, want %d", i, got, want[i])
		}
	}
}

package power

import (
	"testing"
	"time"

	"easeio/internal/energy"
	"easeio/internal/units"
)

func TestContinuousNeverFails(t *testing.T) {
	var s Continuous
	s.Reset(1)
	for i := 0; i < 1000; i++ {
		if s.Step(time.Duration(i)*time.Millisecond, time.Duration(i)*time.Millisecond,
			time.Millisecond, units.Microjoule) {
			t.Fatal("continuous supply failed")
		}
	}
	if off, ok := s.Recharge(0); off != 0 || !ok {
		t.Errorf("continuous recharge = %v, %v; want 0, true", off, ok)
	}
}

func TestTimerFailureWindows(t *testing.T) {
	cfg := DefaultTimerConfig()
	s := NewTimer(cfg)
	s.Reset(7)
	// Walk on-time forward in 100 µs steps; every failure must land at
	// least OnMin and at most OnMax after the previous one.
	last := time.Duration(0)
	failures := 0
	for on := time.Duration(0); on < 500*time.Millisecond; on += 100 * time.Microsecond {
		if s.Step(on, on, 100*time.Microsecond, 0) {
			gap := on - last
			if gap < cfg.OnMin-100*time.Microsecond || gap > cfg.OnMax+100*time.Microsecond {
				t.Fatalf("failure gap %v outside [%v, %v]", gap, cfg.OnMin, cfg.OnMax)
			}
			off, _ := s.Recharge(on)
			if off < cfg.OffMin || off > cfg.OffMax {
				t.Fatalf("off duration %v outside [%v, %v]", off, cfg.OffMin, cfg.OffMax)
			}
			last = on
			failures++
		}
	}
	if failures < 20 {
		t.Errorf("only %d failures in 500ms; emulation too sparse", failures)
	}
}

func TestTimerDeterminism(t *testing.T) {
	record := func(seed int64) []time.Duration {
		s := NewTimer(DefaultTimerConfig())
		s.Reset(seed)
		var fails []time.Duration
		for on := time.Duration(0); on < 100*time.Millisecond; on += 50 * time.Microsecond {
			if s.Step(on, on, 0, 0) {
				fails = append(fails, on)
				s.Recharge(on)
			}
		}
		return fails
	}
	a, b := record(42), record(42)
	if len(a) != len(b) {
		t.Fatalf("different failure counts for same seed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("failure %d at %v vs %v", i, a[i], b[i])
		}
	}
	c := record(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical failure schedules")
	}
}

func TestTimerInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTimer(TimerConfig{OnMin: 10 * time.Millisecond, OnMax: 5 * time.Millisecond})
}

func TestHarvestedBrownoutAndRecharge(t *testing.T) {
	h := energy.Constant{P: 100 * units.Microwatt}
	s := NewHarvested(h)
	s.Cap.C = 2200 * units.Nanofarad
	s.StartAtVon = true
	s.Reset(0)

	if got := s.Cap.Voltage(); got != s.Cap.Von {
		t.Fatalf("StartAtVon: voltage %v, want %v", got, s.Cap.Von)
	}
	budget := s.Cap.EnergyAt(s.Cap.Von) - s.Cap.EnergyAt(s.Cap.Voff)

	// Drain at 354 µW CPU draw against 100 µW harvest: must brown out
	// roughly when the net integral hits the budget.
	var wall time.Duration
	var drained units.Energy
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("no brownout")
		}
		dt := 50 * time.Microsecond
		e := units.Energy(50 * 354)
		wall += dt
		drained += e - units.EnergyOver(h.P, dt)
		if s.Step(wall, wall, dt, e) {
			break
		}
	}
	if drained < budget-budget/10 || drained > budget+budget/10 {
		t.Errorf("net drain at brownout = %v, want ≈ budget %v", drained, budget)
	}

	// Recharge back to Von at 100 µW (minus leakage).
	off, ok := s.Recharge(wall)
	if off <= 0 {
		t.Error("recharge must take time")
	}
	if !ok {
		t.Error("supply wrongly stuck")
	}
	if got := s.Cap.Voltage(); got != s.Cap.Von {
		t.Errorf("after recharge: %v, want %v", got, s.Cap.Von)
	}
}

func TestHarvestedDeadWhenHarvestBelowLeakage(t *testing.T) {
	h := energy.Constant{P: 1 * units.Microwatt} // below 2 µW leakage
	s := NewHarvested(h)
	s.MaxOff = 100 * time.Millisecond
	s.Reset(0)
	s.Cap.SetVoltage(s.Cap.Voff)
	if _, ok := s.Recharge(0); ok {
		t.Error("supply should be stuck below leakage power")
	}
}

func TestHarvestedSurplusNeverFails(t *testing.T) {
	h := energy.Constant{P: 10 * units.Milliwatt}
	s := NewHarvested(h)
	s.Reset(0)
	var wall time.Duration
	for i := 0; i < 100_000; i++ {
		dt := 50 * time.Microsecond
		wall += dt
		if s.Step(wall, wall, dt, units.Energy(50*354)) {
			t.Fatal("strong harvester must sustain CPU draw")
		}
	}
}

func TestSchedule(t *testing.T) {
	s := NewSchedule(2*time.Millisecond, 5*time.Millisecond)
	if s.Remaining() != 2 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
	if s.Step(0, time.Millisecond, 0, 0) {
		t.Error("fired early")
	}
	if !s.Step(0, 2*time.Millisecond, 0, 0) {
		t.Error("did not fire at the scheduled point")
	}
	if off, ok := s.Recharge(0); off != time.Millisecond || !ok {
		t.Errorf("off = %v, %v", off, ok)
	}
	if s.Remaining() != 1 {
		t.Errorf("remaining = %d", s.Remaining())
	}
	s.Recharge(0)
	if s.Step(0, time.Hour, 0, 0) {
		t.Error("exhausted schedule must never fire")
	}
	s.Reset(0)
	if s.Remaining() != 2 {
		t.Error("reset must rearm the schedule")
	}
}

func TestScheduleWithOff(t *testing.T) {
	// Regression: Off used to be hard-coded to 1 ms by the constructor.
	s := NewScheduleWithOff(250*time.Microsecond, time.Millisecond)
	if !s.Step(0, time.Millisecond, 0, 0) {
		t.Fatal("did not fire at the scheduled point")
	}
	if off, _ := s.Recharge(0); off != 250*time.Microsecond {
		t.Errorf("off = %v, want 250µs", off)
	}
	// The default constructor keeps the 1 ms recharge.
	if off := NewSchedule(time.Millisecond).Off; off != time.Millisecond {
		t.Errorf("NewSchedule off = %v, want 1ms", off)
	}
	// Non-positive off falls back to the default rather than producing a
	// zero-length off-period.
	if off := NewScheduleWithOff(0, time.Millisecond).Off; off != time.Millisecond {
		t.Errorf("NewScheduleWithOff(0) off = %v, want 1ms", off)
	}
}

func TestHarvestedJitterAndSpread(t *testing.T) {
	h := energy.Constant{P: 100 * units.Microwatt}
	s := NewHarvested(h)
	s.StartAtVon = true
	s.Jitter = 0.2

	// Different seeds give different gains and starting charges.
	s.Reset(1)
	v1, g1 := s.Cap.Stored(), s.gain
	s.Reset(2)
	v2, g2 := s.Cap.Stored(), s.gain
	if v1 == v2 && g1 == g2 {
		t.Error("jitter produced identical runs for different seeds")
	}
	// Gains stay within the band.
	for seed := int64(0); seed < 50; seed++ {
		s.Reset(seed)
		if s.gain < 0.8-1e-9 || s.gain > 1.2+1e-9 {
			t.Fatalf("gain %v outside [0.8, 1.2]", s.gain)
		}
		von, vmax := s.Cap.EnergyAt(s.Cap.Von), s.Cap.EnergyAt(s.Cap.Vmax)
		if st := s.Cap.Stored(); st < von || st > vmax {
			t.Fatalf("start charge %v outside [Von, Vmax]", st)
		}
	}
	// The gain scales harvesting during recharge too (scaledHarvester).
	s.Reset(3)
	s.Cap.SetVoltage(s.Cap.Voff)
	if off, ok := s.Recharge(0); off <= 0 || !ok {
		t.Errorf("recharge off=%v ok=%v", off, ok)
	}
}

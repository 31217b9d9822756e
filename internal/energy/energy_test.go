package energy

import (
	"testing"
	"time"

	"easeio/internal/units"
)

func TestDefaultCapacitorThresholds(t *testing.T) {
	c := DefaultCapacitor()
	if c.C != units.Millifarad {
		t.Errorf("capacitance = %v", c.C)
	}
	if d := c.Voltage() - c.Vmax; d < -100 || d > 100 { // ≤ 100 µV rounding
		t.Errorf("fresh capacitor at %v, want %v", c.Voltage(), c.Vmax)
	}
	if c.Budget() <= 0 {
		t.Error("budget must be positive")
	}
	// Budget = E(Vmax) − E(Voff) ≈ 3.64 mJ for 1 mF 3.3→1.9 V.
	want := units.EnergyFromJoules(0.5 * 1e-3 * (3.3*3.3 - 1.9*1.9))
	if diff := c.Budget() - want; diff < -100 || diff > 100 {
		t.Errorf("budget = %v, want ≈ %v", c.Budget(), want)
	}
}

func TestCapacitorDrainBrownout(t *testing.T) {
	c := DefaultCapacitor()
	if c.Drain(units.Microjoule) {
		t.Error("1µJ from a full 1mF capacitor must not brown out")
	}
	// Drain everything: must brown out and floor at zero.
	if !c.Drain(10 * units.Millijoule) {
		t.Error("full drain must brown out")
	}
	if c.Stored() != 0 {
		t.Errorf("stored floor = %v", c.Stored())
	}
}

func TestCapacitorChargeSaturates(t *testing.T) {
	c := DefaultCapacitor()
	c.SetVoltage(c.Von)
	c.Charge(1000 * units.Millijoule)
	if c.Stored() != c.EnergyAt(c.Vmax) {
		t.Errorf("overcharge: stored %v > max %v", c.Stored(), c.EnergyAt(c.Vmax))
	}
}

func TestCapacitorSetVoltageRoundTrip(t *testing.T) {
	c := DefaultCapacitor()
	c.SetVoltage(units.VoltageFromVolts(2.5))
	got := c.Voltage().Volts()
	if got < 2.499 || got > 2.501 {
		t.Errorf("voltage round trip = %v", got)
	}
}

func TestConstantHarvester(t *testing.T) {
	h := Constant{P: 5 * units.Milliwatt}
	if h.PowerAt(0) != 5*units.Milliwatt || h.PowerAt(time.Hour) != 5*units.Milliwatt {
		t.Error("constant harvester must be constant")
	}
}

func TestRFPathLoss(t *testing.T) {
	ref := DefaultRF(52)
	if got := ref.PowerAt(0); got != ref.RefPower {
		t.Errorf("power at reference distance = %v, want %v", got, ref.RefPower)
	}
	// Monotonically decreasing with distance.
	prev := units.Power(1 << 62)
	for _, d := range []float64{52, 55, 58, 61, 64} {
		p := DefaultRF(d).PowerAt(0)
		if p >= prev {
			t.Errorf("power at %.0f in = %v, not below %v", d, p, prev)
		}
		prev = p
	}
	// Exponent 2 default when zero.
	h := RF{DistanceInches: 104, RefPower: units.Milliwatt, RefDistanceInches: 52}
	if got := h.PowerAt(0); got != units.Milliwatt/4 {
		t.Errorf("Friis at 2× distance = %v, want ¼ power", got)
	}
	// Zero distance means reference power.
	h.DistanceInches = 0
	if h.PowerAt(0) != units.Milliwatt {
		t.Error("zero distance should return reference power")
	}
}

func TestTraceHarvester(t *testing.T) {
	tr := Trace{
		Samples: []units.Power{1 * units.Milliwatt, 2 * units.Milliwatt},
		Step:    time.Millisecond,
	}
	if got := tr.PowerAt(0); got != 1*units.Milliwatt {
		t.Errorf("sample 0 = %v", got)
	}
	if got := tr.PowerAt(time.Millisecond); got != 2*units.Milliwatt {
		t.Errorf("sample 1 = %v", got)
	}
	if got := tr.PowerAt(2 * time.Millisecond); got != 1*units.Milliwatt {
		t.Errorf("trace must wrap: %v", got)
	}
	empty := Trace{}
	if empty.PowerAt(0) != 0 {
		t.Error("empty trace must deliver nothing")
	}
}

func TestChargeTime(t *testing.T) {
	h := Constant{P: 1 * units.Milliwatt}
	// 10 µJ at 1 mW (minus negligible leakage) ≈ 10 ms.
	d, ok := ChargeTime(h, 0, 10*units.Microjoule, 2*units.Microwatt, time.Second)
	if !ok {
		t.Fatal("charge should succeed")
	}
	if d < 9*time.Millisecond || d > 12*time.Millisecond {
		t.Errorf("charge time = %v, want ≈ 10ms", d)
	}
	// Harvester weaker than leakage: never charges.
	weak := Constant{P: 1 * units.Microwatt}
	_, ok = ChargeTime(weak, 0, units.Microjoule, 2*units.Microwatt, 50*time.Millisecond)
	if ok {
		t.Error("charging below leakage must fail")
	}
	// Zero energy needs zero time.
	if d, ok := ChargeTime(h, 0, 0, 0, time.Second); !ok || d != 0 {
		t.Errorf("zero energy: %v %v", d, ok)
	}
}

func TestSolarProfile(t *testing.T) {
	s := NewSolar(DefaultSolarConfig())
	day := DefaultSolarConfig().DayLength
	if s.PowerAt(0) != 0 {
		t.Error("midnight must harvest nothing")
	}
	if s.PowerAt(day/8) != 0 {
		t.Error("pre-dawn must harvest nothing")
	}
	noon := s.PowerAt(day / 2)
	if noon <= 0 {
		t.Error("noon must harvest")
	}
	if noon > DefaultSolarConfig().Peak {
		t.Errorf("noon %v above peak", noon)
	}
	// Envelope rises from dawn to noon (sampling away from cloud dips is
	// not possible, so compare averages over many samples).
	var morning, midday units.Power
	for i := 0; i < 50; i++ {
		morning += s.PowerAt(day/4 + time.Duration(i)*day/400)
		midday += s.PowerAt(3*day/8 + time.Duration(i)*day/400)
	}
	if midday <= morning {
		t.Errorf("midday avg %v not above morning avg %v", midday/50, morning/50)
	}
	// Deterministic per seed.
	if s.PowerAt(day/3) != NewSolar(DefaultSolarConfig()).PowerAt(day/3) {
		t.Error("solar trace not deterministic")
	}
	// Zero-value config falls back to defaults.
	if NewSolar(SolarConfig{}).PowerAt(day/2) <= 0 {
		t.Error("zero config should use defaults")
	}
}

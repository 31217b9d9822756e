// Package power injects power failures into a simulated run.
//
// The paper evaluates with two failure sources and so do we:
//
//   - Timer-driven emulation (§5.1): "power failure is simulated by random
//     soft resets triggered by an MCU timer with a uniformly distributed
//     firing period in the interval of [5 ms, 20 ms]". The off (recharge)
//     duration is drawn from a second uniform interval; it matters for
//     Timely semantics because it decides whether a sensor value is stale
//     at reboot.
//   - Energy-driven failures (§5.5): a capacitor drains as the device
//     executes, a harvester charges it, and the device browns out when the
//     voltage crosses Voff — the "real energy harvester" mode behind
//     Figure 13.
//
// A Supply is consumed by the execution kernel: Step is called after every
// charged operation, Recharge after every failure.
package power

import (
	"fmt"
	"math/rand"
	"time"

	"easeio/internal/energy"
	"easeio/internal/lazyrand"
	"easeio/internal/mcu"
	"easeio/internal/units"
)

// Supply decides when the device loses power and how long it stays dark.
type Supply interface {
	// Name identifies the supply in reports.
	Name() string
	// Reset prepares the supply for a fresh run with the given seed.
	Reset(seed int64)
	// Step accounts one executed operation: wall is total wall-clock time
	// after the operation, onTime is cumulative powered-on time, dt is the
	// operation's duration and e its energy. It reports whether the device
	// fails immediately after this operation.
	Step(wall, onTime, dt time.Duration, e units.Energy) bool
	// Recharge is called after a failure; it returns how long the device
	// stays off before rebooting, given the wall-clock time of the failure.
	Recharge(wall time.Duration) time.Duration
	// SnapshotState captures the supply's mutable state for a device
	// checkpoint, reusing prev's storage when prev was produced by the
	// same supply type; a nil or foreign prev allocates fresh. Bulk
	// checkpointing recycles states through it to stay allocation-free.
	SnapshotState(prev SupplyState) SupplyState
	// RestoreState re-establishes previously captured state. It panics if
	// the state was produced by a different supply type — mixing supplies
	// across a checkpoint boundary is a harness bug.
	RestoreState(SupplyState)
}

// Continuous is a Supply that never fails: the paper's "continuous power"
// configuration used for golden runs and the Cont. columns of Table 5.
type Continuous struct{}

// Name implements Supply.
func (Continuous) Name() string { return "continuous" }

// Reset implements Supply.
func (Continuous) Reset(int64) {}

// Step implements Supply; it never fails.
func (Continuous) Step(_, _, _ time.Duration, _ units.Energy) bool { return false }

// Recharge implements Supply. It is never called under continuous power,
// but returns zero for robustness.
func (Continuous) Recharge(time.Duration) time.Duration { return 0 }

// TimerConfig parameterizes the timer-driven emulation.
type TimerConfig struct {
	// OnMin/OnMax bound the uniformly distributed powered-on interval
	// between consecutive failures.
	OnMin, OnMax time.Duration
	// OffMin/OffMax bound the uniformly distributed recharge time after a
	// failure.
	OffMin, OffMax time.Duration
}

// DefaultTimerConfig returns the paper's emulation parameters: on-time
// uniform in [5 ms, 20 ms]. The off-time interval [2 ms, 9 ms] is chosen
// so that roughly half of the reboots exceed the 10 ms freshness window of
// the Timely benchmark, matching the ≈43 % re-execution reduction the
// paper reports in Table 4.
func DefaultTimerConfig() TimerConfig {
	return TimerConfig{
		OnMin:  5 * time.Millisecond,
		OnMax:  20 * time.Millisecond,
		OffMin: 2 * time.Millisecond,
		OffMax: 9 * time.Millisecond,
	}
}

// Timer is the timer-driven Supply.
type Timer struct {
	cfg  TimerConfig
	name string          // formatted once; cfg is fixed after NewTimer
	src  *countingSource // reseeded in place across runs; counts draws for checkpointing
	rng  *rand.Rand
	next time.Duration // onTime at which the next failure fires
}

// NewTimer returns a timer-driven supply with the given configuration.
func NewTimer(cfg TimerConfig) *Timer {
	if cfg.OnMax < cfg.OnMin || cfg.OffMax < cfg.OffMin {
		panic("power: invalid timer config: max below min")
	}
	t := &Timer{cfg: cfg, name: fmt.Sprintf("timer[%v,%v]", cfg.OnMin, cfg.OnMax)}
	t.Reset(0)
	return t
}

// Name implements Supply. The name is formatted once at construction:
// checkpointing records it per snapshot, and a Sprintf there was a
// measurable share of bulk-snapshot cost.
func (t *Timer) Name() string { return t.name }

// Reset implements Supply. The random source is reseeded in place on
// reuse, which leaves the generator in exactly the state a fresh
// rand.New(rand.NewSource(seed)) would have.
func (t *Timer) Reset(seed int64) {
	if t.src == nil {
		t.src = newCountingSource(seed)
		t.rng = rand.New(t.src)
	} else {
		t.src.Seed(seed)
	}
	t.next = t.uniform(t.cfg.OnMin, t.cfg.OnMax)
}

func (t *Timer) uniform(lo, hi time.Duration) time.Duration {
	if hi == lo {
		return lo
	}
	return lo + time.Duration(t.rng.Int63n(int64(hi-lo)))
}

// Step implements Supply: the device fails once cumulative on-time reaches
// the scheduled firing point.
func (t *Timer) Step(_, onTime, _ time.Duration, _ units.Energy) bool {
	return onTime >= t.next
}

// FireAt returns the cumulative on-time at which Step will next report
// failure. It is constant between failures (only Recharge moves it),
// which lets the kernel batch charge slices that provably finish before
// it — the bulk-DMA fast path.
func (t *Timer) FireAt() time.Duration { return t.next }

// Recharge implements Supply: draws the off duration and schedules the
// next firing interval.
func (t *Timer) Recharge(time.Duration) time.Duration {
	t.next += t.uniform(t.cfg.OnMin, t.cfg.OnMax)
	return t.uniform(t.cfg.OffMin, t.cfg.OffMax)
}

// Harvested is the energy-driven Supply: a capacitor drained by execution
// and charged by a harvester. While the device runs, harvested power also
// flows in, so a strong enough source sustains execution indefinitely —
// the no-failure regime at the left of Figure 13.
type Harvested struct {
	Cap  *energy.Capacitor
	Harv energy.Harvester

	// MaxOff caps a single recharge; if the harvester cannot reach the
	// boot threshold within it, the run is declared stuck (Dead reports
	// true). Defaults to 30 s.
	MaxOff time.Duration

	// StartAtVon starts runs with the capacitor at the boot threshold
	// rather than fully charged — the steady state of a device that has
	// been cycling, which is how the paper's repeated real-harvester
	// measurements execute (§5.5).
	StartAtVon bool

	// Jitter models per-run channel variation (fading, orientation): each
	// Reset draws a harvest-power multiplier uniformly from
	// [1−Jitter, 1+Jitter]. Zero means a perfectly stable link.
	Jitter float64

	dead bool
	gain float64
}

// NewHarvested returns an energy-driven supply with the paper's default
// capacitor and the given harvester.
func NewHarvested(h energy.Harvester) *Harvested {
	return &Harvested{Cap: energy.DefaultCapacitor(), Harv: h, MaxOff: 30 * time.Second}
}

// Name implements Supply.
func (s *Harvested) Name() string {
	return fmt.Sprintf("harvested(%s,%s)", s.Harv.Name(), s.Cap.C)
}

// Reset implements Supply: refills the capacitor.
func (s *Harvested) Reset(seed int64) {
	s.dead = false
	s.gain = 1
	start := s.Cap.Vmax
	if s.StartAtVon {
		start = s.Cap.Von
	}
	if s.Jitter > 0 {
		rng := rand.New(lazyrand.New(seed))
		s.gain = 1 - s.Jitter + 2*s.Jitter*rng.Float64()
		if s.StartAtVon {
			// A cycling device is caught at a random charge between the
			// boot threshold and the regulation ceiling.
			span := float64(s.Cap.Vmax - s.Cap.Von)
			start = s.Cap.Von + units.Voltage(span*rng.Float64())
		}
	}
	s.Cap.SetVoltage(start)
}

// power returns the harvester output at time t with the per-run gain.
func (s *Harvested) power(t time.Duration) units.Power {
	p := s.Harv.PowerAt(t)
	if s.gain != 1 && s.gain > 0 {
		p = units.Power(float64(p) * s.gain)
	}
	return p
}

// Step implements Supply: charge for dt of harvest, then drain e.
func (s *Harvested) Step(wall, _, dt time.Duration, e units.Energy) bool {
	if dt > 0 {
		s.Cap.Charge(units.EnergyOver(s.power(wall), dt))
	}
	return s.Cap.Drain(e)
}

// Recharge implements Supply: integrates harvested power (minus leakage)
// until the capacitor reaches the boot threshold.
func (s *Harvested) Recharge(wall time.Duration) time.Duration {
	need := s.Cap.EnergyAt(s.Cap.Von) - s.Cap.Stored()
	harv := s.Harv
	if s.gain != 1 && s.gain > 0 {
		harv = scaledHarvester{h: s.Harv, gain: s.gain}
	}
	off, ok := energy.ChargeTime(harv, wall, need, mcu.LeakagePower, s.MaxOff)
	if !ok {
		s.dead = true
	}
	s.Cap.SetVoltage(s.Cap.Von)
	return off
}

// scaledHarvester applies the per-run gain during recharge integration.
type scaledHarvester struct {
	h    energy.Harvester
	gain float64
}

// PowerAt implements energy.Harvester.
func (s scaledHarvester) PowerAt(t time.Duration) units.Power {
	return units.Power(float64(s.h.PowerAt(t)) * s.gain)
}

// Name implements energy.Harvester.
func (s scaledHarvester) Name() string { return s.h.Name() }

// Dead reports whether the last recharge failed to reach the boot
// threshold within MaxOff (the device is effectively bricked at this
// harvest level).
func (s *Harvested) Dead() bool { return s.dead }

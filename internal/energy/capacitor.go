// Package energy models the energy-storage and energy-harvesting side of a
// batteryless device: the capacitor that buffers harvested energy, and the
// harvesters (constant-power bench supplies, RF power transfer vs distance,
// recorded traces) that fill it.
//
// The EaseIO paper evaluates with a 1 mF capacitor charged by a Powercast
// P2110-EVB receiving from a TX91501 3 W transmitter at 915 MHz (§5.1,
// §5.5). The capacitor math here is the standard ½CV² store with on/off
// voltage thresholds; harvested RF power follows an inverse-square
// path-loss fit anchored to the distances in Figure 13.
package energy

import (
	"fmt"
	"math"
	"time"

	"easeio/internal/units"
)

// Capacitor is an energy buffer with turn-on and brown-out thresholds.
// The device runs while the voltage is above Voff; when a drain pulls the
// voltage to Voff or below, the device browns out and must recharge to Von
// before it can boot again.
type Capacitor struct {
	C    units.Capacitance
	Vmax units.Voltage // harvester regulation ceiling
	Von  units.Voltage // boot threshold
	Voff units.Voltage // brown-out threshold

	stored units.Energy // current stored energy
}

// DefaultCapacitor returns the evaluation capacitor of the paper: 1 mF,
// regulated at 3.3 V, booting at 2.8 V, browning out at 1.9 V.
func DefaultCapacitor() *Capacitor {
	c := &Capacitor{
		C:    1 * units.Millifarad,
		Vmax: units.VoltageFromVolts(3.3),
		Von:  units.VoltageFromVolts(2.8),
		Voff: units.VoltageFromVolts(1.9),
	}
	c.stored = c.EnergyAt(c.Vmax)
	return c
}

// EnergyAt returns the energy the capacitor stores at voltage v.
func (c *Capacitor) EnergyAt(v units.Voltage) units.Energy {
	return units.StoredEnergy(c.C, v)
}

// Budget returns the usable energy per activation cycle: the energy between
// a full charge (Vmax) and the brown-out threshold (Voff).
func (c *Capacitor) Budget() units.Energy {
	return c.EnergyAt(c.Vmax) - c.EnergyAt(c.Voff)
}

// Stored returns the currently stored energy.
func (c *Capacitor) Stored() units.Energy { return c.stored }

// Voltage returns the current capacitor voltage.
func (c *Capacitor) Voltage() units.Voltage {
	return units.VoltageForEnergy(c.C, c.stored)
}

// SetVoltage charges or discharges the capacitor to exactly v.
func (c *Capacitor) SetVoltage(v units.Voltage) {
	c.stored = c.EnergyAt(v)
}

// Drain removes e from the capacitor and reports whether the device
// browned out (voltage fell to Voff or below). The stored energy never goes
// below zero.
func (c *Capacitor) Drain(e units.Energy) (brownout bool) {
	c.stored -= e
	if c.stored < 0 {
		c.stored = 0
	}
	return c.stored <= c.EnergyAt(c.Voff)
}

// Charge adds e to the capacitor, saturating at the Vmax energy.
func (c *Capacitor) Charge(e units.Energy) {
	c.stored += e
	if max := c.EnergyAt(c.Vmax); c.stored > max {
		c.stored = max
	}
}

// String summarizes the capacitor state.
func (c *Capacitor) String() string {
	return fmt.Sprintf("cap{%s %s stored=%s}", c.C, c.Voltage(), c.stored)
}

// Harvester supplies power to the capacitor while the device is off (and,
// for strong sources, while it runs).
type Harvester interface {
	// PowerAt returns the harvested power at absolute time t.
	PowerAt(t time.Duration) units.Power
}

// Constant is a harvester that delivers fixed power forever.
type Constant struct {
	P units.Power
}

// PowerAt implements Harvester.
func (c Constant) PowerAt(time.Duration) units.Power { return c.P }

// RF models RF power transfer from a 3 W, 915 MHz transmitter to a
// P2110-EVB-class receiver, as in the paper's real-world evaluation
// (§5.5, Figure 13). Received power falls as distance^-PathLossExp: 2 is
// free-space Friis; measured indoor near-ground links (and Powercast's
// own range data) decay much faster, and the Figure 13 sweep uses a
// steeper exponent so that a 52→64 inch sweep crosses from surplus to
// deficit just as the paper's does.
type RF struct {
	// DistanceInches separates transmitter and receiver.
	DistanceInches float64
	// RefPower is the power received at RefDistanceInches.
	RefPower units.Power
	// RefDistanceInches anchors the path-loss curve.
	RefDistanceInches float64
	// PathLossExp is the decay exponent (2 = free space). Zero means 2.
	PathLossExp float64
}

// DefaultRF returns an RF harvester at the given distance using the
// Figure 13 anchor.
func DefaultRF(distanceInches float64) RF {
	return RF{
		DistanceInches:    distanceInches,
		RefPower:          550 * units.Microwatt,
		RefDistanceInches: 52,
		PathLossExp:       8,
	}
}

// PowerAt implements Harvester.
func (r RF) PowerAt(time.Duration) units.Power {
	if r.DistanceInches <= 0 {
		return r.RefPower
	}
	exp := r.PathLossExp
	if exp == 0 {
		exp = 2
	}
	ratio := r.RefDistanceInches / r.DistanceInches
	return units.Power(float64(r.RefPower) * math.Pow(ratio, exp))
}

// Trace replays a recorded harvest-power trace, holding each sample for
// Step and repeating the trace when it runs out.
type Trace struct {
	// Samples holds the per-step harvested power.
	Samples []units.Power
	// Step is the duration each sample covers.
	Step time.Duration
}

// PowerAt implements Harvester.
func (tr Trace) PowerAt(t time.Duration) units.Power {
	if len(tr.Samples) == 0 || tr.Step <= 0 {
		return 0
	}
	i := int(t/tr.Step) % len(tr.Samples)
	return tr.Samples[i]
}

// ChargeTime returns how long the harvester needs, starting at time t, to
// deliver energy e into the capacitor, accounting for leakage. It returns
// ok=false if the harvester cannot overcome leakage within the horizon.
func ChargeTime(h Harvester, t time.Duration, e units.Energy, leak units.Power, horizon time.Duration) (time.Duration, bool) {
	if e <= 0 {
		return 0, true
	}
	// Integrate in 1 ms steps; harvest traces and path-loss curves are far
	// smoother than that.
	const step = time.Millisecond
	var acc units.Energy
	for elapsed := time.Duration(0); elapsed < horizon; elapsed += step {
		p := h.PowerAt(t+elapsed) - leak
		if p > 0 {
			acc += units.EnergyOver(p, step)
		}
		if acc >= e {
			return elapsed + step, true
		}
	}
	return horizon, false
}

// Package units defines the physical quantities used throughout the
// simulator: energy, electric charge, voltage, capacitance, and power.
//
// Energy is the central currency of an intermittent system. The simulator
// accounts energy in picojoules using integer arithmetic so that runs are
// exactly reproducible across platforms; at MSP430 scales (a 1 mF capacitor
// swing stores a few millijoules, i.e. a few 1e9 pJ) an int64 ledger has
// over nine orders of magnitude of headroom.
package units

import (
	"fmt"
	"math"
	"time"
)

// Energy is an amount of energy in picojoules (pJ).
type Energy int64

// Convenient energy constructors.
const (
	Picojoule  Energy = 1
	Nanojoule  Energy = 1e3
	Microjoule Energy = 1e6
	Millijoule Energy = 1e9
	Joule      Energy = 1e12
)

// Microjoules returns e expressed in microjoules.
func (e Energy) Microjoules() float64 { return float64(e) / float64(Microjoule) }

// Millijoules returns e expressed in millijoules.
func (e Energy) Millijoules() float64 { return float64(e) / float64(Millijoule) }

// Joules returns e expressed in joules.
func (e Energy) Joules() float64 { return float64(e) / float64(Joule) }

// String formats the energy with an auto-selected SI prefix.
func (e Energy) String() string {
	abs := e
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Joule:
		return fmt.Sprintf("%.3fJ", e.Joules())
	case abs >= Millijoule:
		return fmt.Sprintf("%.3fmJ", e.Millijoules())
	case abs >= Microjoule:
		return fmt.Sprintf("%.3fµJ", e.Microjoules())
	case abs >= Nanojoule:
		return fmt.Sprintf("%.3fnJ", float64(e)/float64(Nanojoule))
	default:
		return fmt.Sprintf("%dpJ", int64(e))
	}
}

// EnergyFromJoules converts a float amount of joules into an Energy.
func EnergyFromJoules(j float64) Energy { return Energy(j * float64(Joule)) }

// Voltage is an electric potential in microvolts.
type Voltage int64

// Voltage constructors.
const (
	Microvolt Voltage = 1
	Millivolt Voltage = 1e3
	Volt      Voltage = 1e6
)

// Volts returns v expressed in volts.
func (v Voltage) Volts() float64 { return float64(v) / float64(Volt) }

// String formats the voltage in volts.
func (v Voltage) String() string { return fmt.Sprintf("%.3fV", v.Volts()) }

// VoltageFromVolts converts a float volt value into a Voltage.
func VoltageFromVolts(v float64) Voltage { return Voltage(v * float64(Volt)) }

// Capacitance is an electric capacitance in nanofarads.
type Capacitance int64

// Capacitance constructors.
const (
	Nanofarad  Capacitance = 1
	Microfarad Capacitance = 1e3
	Millifarad Capacitance = 1e6
)

// Farads returns c expressed in farads.
func (c Capacitance) Farads() float64 { return float64(c) / 1e9 }

// String formats the capacitance with an auto-selected SI prefix.
func (c Capacitance) String() string {
	switch {
	case c >= Millifarad:
		return fmt.Sprintf("%.3fmF", float64(c)/float64(Millifarad))
	case c >= Microfarad:
		return fmt.Sprintf("%.3fµF", float64(c)/float64(Microfarad))
	default:
		return fmt.Sprintf("%dnF", int64(c))
	}
}

// Power is an amount of power in nanowatts. One nanowatt delivers exactly
// one picojoule per millisecond, which keeps the integer math exact for the
// microsecond-granularity steps the simulator takes.
type Power int64

// Power constructors.
const (
	Nanowatt  Power = 1
	Microwatt Power = 1e3
	Milliwatt Power = 1e6
	Watt      Power = 1e9
)

// Milliwatts returns p expressed in milliwatts.
func (p Power) Milliwatts() float64 { return float64(p) / float64(Milliwatt) }

// String formats the power with an auto-selected SI prefix.
func (p Power) String() string {
	abs := p
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Watt:
		return fmt.Sprintf("%.3fW", float64(p)/float64(Watt))
	case abs >= Milliwatt:
		return fmt.Sprintf("%.3fmW", p.Milliwatts())
	case abs >= Microwatt:
		return fmt.Sprintf("%.3fµW", float64(p)/float64(Microwatt))
	default:
		return fmt.Sprintf("%dnW", int64(p))
	}
}

// EnergyOver returns the energy delivered by power p over duration d.
func EnergyOver(p Power, d time.Duration) Energy {
	// p [nW] * d [ns] = p*d * 1e-18 J = p*d * 1e-6 pJ.
	// Divide in two stages to avoid int64 overflow for long durations.
	ns := d.Nanoseconds()
	whole := Energy(int64(p) * (ns / 1000) / 1000)
	frac := Energy(int64(p) * (ns % 1000) / 1e6)
	return whole + frac
}

// DurationToDeliver returns how long power p needs to deliver energy e.
// It returns a very large duration if p is not positive.
func DurationToDeliver(e Energy, p Power) time.Duration {
	if p <= 0 {
		return time.Duration(1<<62 - 1)
	}
	// e [pJ] / p [nW] = e/p * 1e-3 s = e/p ms.
	ms := float64(e) / float64(p)
	return time.Duration(ms * float64(time.Millisecond))
}

// StoredEnergy returns the energy held by capacitance c charged to voltage v:
// E = ½ C V².
func StoredEnergy(c Capacitance, v Voltage) Energy {
	volts := v.Volts()
	return EnergyFromJoules(0.5 * c.Farads() * volts * volts)
}

// VoltageForEnergy inverts StoredEnergy: the voltage a capacitor of
// capacitance c holds when storing energy e. Returns 0 for non-positive
// inputs.
func VoltageForEnergy(c Capacitance, e Energy) Voltage {
	if e <= 0 || c <= 0 {
		return 0
	}
	v := 2 * e.Joules() / c.Farads()
	if v <= 0 {
		return 0
	}
	return VoltageFromVolts(math.Sqrt(v))
}

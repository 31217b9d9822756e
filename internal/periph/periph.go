// Package periph models the synchronous peripherals of the evaluation
// platform: temperature/humidity/pressure sensors, a radio, and a camera.
//
// Each operation has a latency and an energy cost charged through the
// task execution context, so a power failure can interrupt an operation
// before it completes (the charge happens first; the value materializes
// only if the charge survives). Sensor values follow deterministic
// physical processes — a slow drift plus band-limited noise, both derived
// from hash functions of the persistent wall-clock time — so that repeated
// executions at different times observe *different* values. That property
// drives the paper's unsafe-execution scenario (Figure 2c) and the Timely
// semantics: a re-executed read after a long outage really does return
// something else.
//
// As in the paper (§6), peripherals are arbitrarily restartable and
// synchronous: they hold no internal non-volatile state and an interrupted
// operation can simply run again. A model holds only its fixed
// parameters — no operation writes it — so the peripherals of one built
// app can serve concurrent sessions.
package periph

import (
	"time"

	"easeio/internal/task"
	"easeio/internal/units"
)

// Process produces a deterministic physical value as a function of time.
type Process struct {
	// Base is the mean value (sensor units).
	Base int32
	// Amp is the amplitude of the slow sinusoidal drift.
	Amp int32
	// Period is the drift period.
	Period time.Duration
	// NoiseAmp bounds the band-limited noise (± NoiseAmp).
	NoiseAmp int32
	// NoiseQuantum is the correlation time of the noise: readings within
	// one quantum observe the same noise sample.
	NoiseQuantum time.Duration
	// Seed decorrelates different sensors' noise.
	Seed uint64
}

// At returns the process value at time t.
func (p Process) At(t time.Duration) int32 {
	v := p.Base
	if p.Amp != 0 && p.Period > 0 {
		// Triangle-wave drift: cheap, deterministic, and as good as a
		// sinusoid for exercising staleness.
		phase := int64(t % p.Period)
		half := int64(p.Period / 2)
		var tri int64
		if phase < half {
			tri = phase*2 - half // −half … +half
		} else {
			tri = half - (phase-half)*2
		}
		v += int32(int64(p.Amp) * tri / half)
	}
	if p.NoiseAmp > 0 && p.NoiseQuantum > 0 {
		bucket := uint64(t / p.NoiseQuantum)
		h := splitmix(bucket ^ p.Seed)
		span := int64(2*p.NoiseAmp + 1)
		v += int32(int64(h%uint64(span)) - int64(p.NoiseAmp))
	}
	return v
}

// splitmix is the SplitMix64 finalizer: a fast, well-mixed hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sensor is a synchronous single-value peripheral.
type Sensor struct {
	Name    string
	Latency time.Duration
	Energy  units.Energy
	Proc    Process
}

// Sample charges the sensing operation and returns the value observed at
// the moment the operation completes.
func (s *Sensor) Sample(e task.Exec) uint16 {
	e.Op(s.Latency, s.Energy)
	return uint16(s.Proc.At(e.Now()))
}

// Radio is a packet transmitter.
type Radio struct {
	Name string
	// BaseLatency covers wakeup and synchronization; PerWord is the
	// transmit time per 16-bit payload word.
	BaseLatency time.Duration
	PerWord     time.Duration
	// BaseEnergy and PerWordEnergy mirror the latency split.
	BaseEnergy    units.Energy
	PerWordEnergy units.Energy
}

// Send charges the transmission of n payload words.
func (r *Radio) Send(e task.Exec, n int) {
	e.Op(r.BaseLatency+time.Duration(n)*r.PerWord,
		r.BaseEnergy+units.Energy(n)*r.PerWordEnergy)
}

// Camera captures an image. The paper simulates the capture operation by
// running the microcontroller in a delay loop (§5.4.1); Capture charges
// exactly that.
type Camera struct {
	Name    string
	Latency time.Duration
	Energy  units.Energy
}

// Capture charges the capture delay.
func (c *Camera) Capture(e task.Exec) {
	e.Op(c.Latency, c.Energy)
}

// Set bundles the standard peripherals of the evaluation platform.
type Set struct {
	Temp     *Sensor
	Humidity *Sensor
	Pressure *Sensor
	Radio    *Radio
	Camera   *Camera
}

// StandardSet returns the peripherals used by the benchmark applications,
// with latencies and energies in the range the intermittent-computing
// literature reports for MSP430-class boards.
func StandardSet(seed uint64) *Set {
	return &Set{
		Temp: &Sensor{
			Name:    "Temp",
			Latency: 1 * time.Millisecond,
			Energy:  1 * units.Microjoule,
			Proc: Process{
				Base: 18, Amp: 12, Period: 400 * time.Millisecond,
				NoiseAmp: 4, NoiseQuantum: 8 * time.Millisecond,
				Seed: seed ^ 0x7e39,
			},
		},
		Humidity: &Sensor{
			Name:    "Humd",
			Latency: 1500 * time.Microsecond,
			Energy:  1300 * units.Nanojoule,
			Proc: Process{
				Base: 55, Amp: 20, Period: 700 * time.Millisecond,
				NoiseAmp: 5, NoiseQuantum: 10 * time.Millisecond,
				Seed: seed ^ 0xa11d,
			},
		},
		Pressure: &Sensor{
			Name:    "Pres",
			Latency: 800 * time.Microsecond,
			Energy:  800 * units.Nanojoule,
			Proc: Process{
				Base: 1013, Amp: 6, Period: 900 * time.Millisecond,
				NoiseAmp: 2, NoiseQuantum: 15 * time.Millisecond,
				Seed: seed ^ 0x93c1,
			},
		},
		Radio: &Radio{
			Name:          "Send",
			BaseLatency:   2 * time.Millisecond,
			PerWord:       250 * time.Microsecond,
			BaseEnergy:    40 * units.Microjoule,
			PerWordEnergy: 5 * units.Microjoule,
		},
		// The paper simulates image capture by running the MCU in a delay
		// loop (§5.4.1); the energy is therefore CPU-rate over the latency.
		Camera: &Camera{
			Name:    "Capture",
			Latency: 12 * time.Millisecond,
			Energy:  4250 * units.Nanojoule,
		},
	}
}

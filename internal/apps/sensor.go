// The freshness-oracle demonstration app: a sensed value with a declared
// staleness bound tighter than its Timely re-execution window.
//
// The window tells the *runtime* when a stored reading may be reused
// after a reboot; the bound tells the *checker* how old the reading may
// be when the task consuming it commits. With the bound inside the
// window, EaseIO keeps the reading perfectly consistent across failures
// (the memory and output oracles pass: the stored value and its derived
// word always agree) while serving it stale — a failure in the
// processing tail reboots well inside the 10 ms window, the sample is
// reused, and by the time the re-executed task commits the sample is
// older than the 8 ms the application declared it can tolerate. Only the
// freshness oracle's Timely(Δt) divergence class sees that.

package apps

import (
	"time"

	"easeio/internal/periph"
	"easeio/internal/task"
)

// SensorConfig sizes the freshness-oracle demonstration app.
type SensorConfig struct {
	// Window is the Timely re-execution window: the runtime reuses a
	// stored reading after a reboot while less than this has elapsed
	// since the sensor was physically read.
	Window time.Duration
	// Fresh is the application's declared staleness bound: a task must
	// not commit a reading older than this. It must sit inside Window to
	// exhibit the consistent-but-stale gap.
	Fresh time.Duration
	// InitCycles/ProcessCycles/FinishCycles shape the compute. The
	// processing tail after the sensor read is what ages the sample: a
	// failure there forces a full task re-execution on top of the off
	// period, pushing the commit-time age past Fresh.
	InitCycles, ProcessCycles, FinishCycles int64
}

// DefaultSensorConfig pairs the temperature benchmark's 10 ms window
// with an 8 ms staleness bound. Under continuous power the reading is
// ~6.5 ms old at commit (inside the bound); one power failure late in
// the processing tail adds the off period plus a full re-execution,
// aging the reused sample past 8 ms while staying inside the 10 ms
// window that lets EaseIO skip re-sensing.
func DefaultSensorConfig() SensorConfig {
	return SensorConfig{
		Window:        10 * time.Millisecond,
		Fresh:         8 * time.Millisecond,
		InitCycles:    800,
		ProcessCycles: 6500,
		FinishCycles:  800,
	}
}

// NewSensorApp builds the freshness-oracle demonstration app: the Timely
// uni-task shape with a staleness bound on the sensor site.
func NewSensorApp(cfg SensorConfig) (*Bench, error) {
	a := task.NewApp("sensor")
	p := periph.StandardSet(0x5e45)

	reading := a.NVInt("reading").Sensed()
	derived := a.NVInt("derived").Sensed()

	sense := a.TimelyIO("Sense", cfg.Window, true, func(e task.Exec, _ int) uint16 {
		return p.Temp.Sample(e)
	}).Fresh(cfg.Fresh)

	var tSense, tFin *task.Task
	a.AddTask("init", func(e task.Exec) {
		e.Compute(cfg.InitCycles)
		e.Next(tSense)
	})
	tSense = a.AddTask("sense", func(e task.Exec) {
		v := e.CallIO(sense)
		e.Compute(cfg.ProcessCycles)
		e.Store(reading, v)
		e.Store(derived, v*9/5+32)
		e.Next(tFin)
	})
	tFin = a.AddTask("finish", func(e task.Exec) {
		e.Compute(cfg.FinishCycles)
		e.Done()
	})

	// Consistency invariant only: staleness is deliberately invisible
	// here — the checker's freshness oracle is what catches it.
	a.CheckOutput = func(m task.CheckMem) bool {
		r := m.Read(reading, 0)
		return m.Read(derived, 0) == r*9/5+32
	}
	return finalize(a, p)
}

// The uni-task temperature benchmark: Timely re-execution semantics
// (Fig 7b, Table 4 column "Timely (Temp.)").

package apps

import (
	"time"

	"easeio/internal/periph"
	"easeio/internal/task"
)

// TempConfig sizes the Timely-semantics benchmark.
type TempConfig struct {
	// Window is the freshness window of the temperature reading: after a
	// reboot the stored value is reused only if less time than this has
	// passed since the sensor was read.
	Window time.Duration
	// InitCycles/ProcessCycles/FinishCycles shape the compute.
	InitCycles, ProcessCycles, FinishCycles int64
}

// DefaultTempConfig uses the paper's 10 ms freshness window (§A.4.1).
// The processing tail after the sensor read sets up the Timely trade-off:
// a failure in the tail forces baselines to re-sense, while EaseIO
// re-senses only when the reboot gap exceeds the freshness window.
func DefaultTempConfig() TempConfig {
	return TempConfig{
		Window:        10 * time.Millisecond,
		InitCycles:    800,
		ProcessCycles: 6500,
		FinishCycles:  800,
	}
}

// NewTempApp builds the Timely uni-task benchmark: 3 tasks, one I/O
// operation (the temperature read), as in Table 3.
func NewTempApp(cfg TempConfig) (*Bench, error) {
	a := task.NewApp("temp")
	p := periph.StandardSet(0x7e17)

	reading := a.NVInt("reading").Sensed()
	derived := a.NVInt("derived").Sensed()

	tempSite := a.TimelyIO("Temp", cfg.Window, true, func(e task.Exec, _ int) uint16 {
		return p.Temp.Sample(e)
	})

	// Declarative op bodies: the same Exec calls the closures used to
	// make, expressed as data so the frozen program compiles them to
	// execution kernels. The Fahrenheit conversion becomes a small ALU
	// chain on the volatile register file (uint16 wraparound, exactly like
	// the Go expression it replaces).
	tInit := a.AddTask("init", nil)
	tSense := a.AddTask("sense", nil)
	tFin := a.AddTask("finish", nil)
	a.SetOps(tInit,
		task.ComputeOp(cfg.InitCycles),
		task.NextOp(tSense))
	a.SetOps(tSense,
		task.CallIOOp(0, tempSite),
		task.ComputeOp(cfg.ProcessCycles),
		task.StoreOp(reading, 0, 0),
		task.MovRegOp(1, 0), // derived = reading*9/5+32
		task.MulImmOp(1, 9),
		task.DivImmOp(1, 5),
		task.AddImmOp(1, 32),
		task.StoreOp(derived, 0, 1),
		task.NextOp(tFin))
	a.SetOps(tFin,
		task.ComputeOp(cfg.FinishCycles),
		task.DoneOp())

	// Correctness: derived must be consistent with reading — re-executed
	// sensing with torn stores would break the invariant.
	a.CheckOutput = func(m task.CheckMem) bool {
		r := m.Read(reading, 0)
		return m.Read(derived, 0) == r*9/5+32
	}
	return finalize(a, p)
}

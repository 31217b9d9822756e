// The unsafe-program-execution scenario of Figure 2c: a task whose
// control flow depends on a sensor reading, writing a different
// non-volatile flag on each branch. Re-executing the read after a power
// failure can take the other branch and leave both flags set; EaseIO's
// value privatization pins re-executions to the original branch.

package apps

import (
	"easeio/internal/periph"
	"easeio/internal/task"
)

// BranchConfig parameterizes the scenario.
type BranchConfig struct {
	// Threshold splits the two branches (stdy below, alarm at or above).
	Threshold uint16
	// TailCycles is computation after the branch — the window in which a
	// power failure forces the branch to replay.
	TailCycles int64
	// Semantics is the annotation on the sensor read. Single reproduces
	// the fix; Always reproduces the bug even under EaseIO.
	Semantics task.Semantic
}

// DefaultBranchConfig places the threshold inside the band the sensor
// sweeps during the first tens of milliseconds, so re-executed reads can
// genuinely take the other branch.
func DefaultBranchConfig() BranchConfig {
	return BranchConfig{Threshold: 8, TailCycles: 9000, Semantics: task.Single}
}

// NewBranchApp builds the Figure 2c scenario.
func NewBranchApp(cfg BranchConfig) (*Bench, error) {
	a := task.NewApp("branch")
	p := periph.StandardSet(0xb4a)

	// The flags are sensor-dependent: a failure placed before the read
	// shifts the sample time, so which branch runs can legitimately differ
	// from the golden run. CheckOutput (exactly one flag set) is the
	// placement-independent invariant.
	stdy := a.NVInt("stdy").Sensed()
	alarm := a.NVInt("alarm").Sensed()

	var tempSite *task.IOSite
	read := func(e task.Exec, _ int) uint16 { return p.Temp.Sample(e) }
	if cfg.Semantics == task.Always {
		tempSite = a.IO("Temp", task.Always, true, read)
	} else {
		tempSite = a.IO("Temp", task.Single, true, read)
	}

	var tFin *task.Task
	// The analysis run observes only one branch; Touches widens the
	// region sets to both flags, as a conservative static analysis would.
	a.AddTask("sense", func(e task.Exec) {
		temp := e.CallIO(tempSite)
		if temp < cfg.Threshold {
			e.Store(stdy, 1)
		} else {
			e.Store(alarm, 1)
		}
		e.Compute(cfg.TailCycles)
		e.Next(tFin)
	}).Touches(stdy, alarm)
	tFin = a.AddTask("finish", func(e task.Exec) {
		e.Compute(200)
		e.Done()
	})

	// Exactly one of the two flags must be set — both set is the
	// unsafe-execution bug.
	a.CheckOutput = func(m task.CheckMem) bool {
		return m.Read(stdy, 0)+m.Read(alarm, 0) == 1
	}
	return finalize(a, p)
}

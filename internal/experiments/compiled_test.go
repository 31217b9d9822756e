// Differential coverage for the compiled-kernel execution path. The
// contract under test: an interpreted op-list body and the compiled
// kernel through a pooled session produce byte-identical statistics, so
// compilation is purely a throughput knob. The matrix deliberately
// crosses all four runtime families (each runtime's LoadRun is its own
// fused load path) and three supplies: the sweep's timer, continuous
// power, and the checker's replay schedule with one failure at a golden
// cut — every cut inside a load-sum task, so a fused run's failure
// lands on the word the per-word loop fails on.

package experiments

import (
	"reflect"
	"testing"
	"time"

	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
)

var diffRuntimes = []RuntimeKind{Alpaca, InK, EaseIO, JustDo}

// runInterpreted executes one seed on a fresh device with compilation
// disabled — the op-list interpreter bodies, the reference the compiled
// paths must reproduce.
func runInterpreted(t *testing.T, factory AppFactory, kind RuntimeKind, supply power.Supply, seed int64) *stats.Run {
	t.Helper()
	bench, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	dev := kernel.NewDevice(supply, seed)
	dev.NoCompile = true
	if err := kernel.RunApp(dev, NewRuntime(kind), bench.App); err != nil {
		t.Fatal(err)
	}
	return dev.Run
}

// TestCompiledMatchesInterpreted pins byte-identity between the
// interpreted reference and the compiled-kernel session path, for every
// runtime, on both op-bodied apps, under three supplies: per seed under
// the sweep's timer and under continuous power, and per golden cut under
// the checker's replay schedule (see matchScheduled).
func TestCompiledMatchesInterpreted(t *testing.T) {
	factories := map[string]AppFactory{"dma": dmaFactory, "temp": tempFactory}
	for name, factory := range factories {
		for _, kind := range diffRuntimes {
			cell := name + "/" + kind.String()
			t.Run(cell, func(t *testing.T) {
				matchSeeds(t, factory, kind, TimerSupply, 12)
			})
			t.Run("continuous/"+cell, func(t *testing.T) {
				matchSeeds(t, factory, kind, func() power.Supply { return power.Continuous{} }, 3)
			})
			t.Run("schedule/"+cell, func(t *testing.T) {
				matchScheduled(t, name, factory, kind)
			})
		}
	}
}

// matchSeeds compares seeds 1..seeds of one pooled compiled session with
// fresh interpreted runs, every run under its own supply from mk.
func matchSeeds(t *testing.T, factory AppFactory, kind RuntimeKind, mk func() power.Supply, seeds int64) {
	t.Helper()
	bench, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	sess := kernel.NewSession(NewRuntime(kind), bench.App, mk())
	for seed := int64(1); seed <= seeds; seed++ {
		compiled, err := sess.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		interp := runInterpreted(t, factory, kind, mk(), seed)
		if !reflect.DeepEqual(compiled, interp) {
			t.Fatalf("seed %d: compiled run diverged from interpreted:\n%+v\nvs\n%+v",
				seed, compiled, interp)
		}
	}
}

// cutRecorder collects charge-slice boundaries.
type cutRecorder struct{ cuts []time.Duration }

func (c *cutRecorder) NoteCut(onTime time.Duration) { c.cuts = append(c.cuts, onTime) }

// TestCutSinkForcesSliceIdentity pins the bulk-charge gate on the other
// observation hook: with a CutSink installed, compiled execution must
// fall back to per-slice charging and report exactly the cut sequence
// the interpreted run reports — the failure-point checker depends on
// every candidate boundary existing on both paths.
func TestCutSinkForcesSliceIdentity(t *testing.T) {
	for _, kind := range diffRuntimes {
		t.Run(kind.String(), func(t *testing.T) {
			bench, err := dmaFactory()
			if err != nil {
				t.Fatal(err)
			}
			compiledCuts := &cutRecorder{}
			sess := kernel.NewSession(NewRuntime(kind), bench.App, TimerSupply())
			sess.Cuts = compiledCuts
			compiled, err := sess.Run(4)
			if err != nil {
				t.Fatal(err)
			}

			bench2, err := dmaFactory()
			if err != nil {
				t.Fatal(err)
			}
			interpCuts := &cutRecorder{}
			dev := kernel.NewDevice(TimerSupply(), 4)
			dev.NoCompile = true
			dev.Cuts = interpCuts
			if err := kernel.RunApp(dev, NewRuntime(kind), bench2.App); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(compiled, dev.Run) {
				t.Errorf("compiled run under CutSink diverged from interpreted:\n%+v\nvs\n%+v",
					compiled, dev.Run)
			}
			if !reflect.DeepEqual(compiledCuts.cuts, interpCuts.cuts) {
				t.Errorf("cut sequences differ: compiled %d cuts, interpreted %d cuts",
					len(compiledCuts.cuts), len(interpCuts.cuts))
			}
			if len(compiledCuts.cuts) == 0 {
				t.Error("no cuts recorded")
			}
		})
	}
}

// taskCuts records a golden run's charge-slice boundaries, marking those
// taken while the runtime's current task contains a fused load run.
type taskCuts struct {
	rt     kernel.Hooks
	cuts   []time.Duration
	inLoad []bool
}

func (c *taskCuts) NoteCut(onTime time.Duration) {
	c.cuts = append(c.cuts, onTime)
	c.inLoad = append(c.inLoad, hasLoadSum(c.rt.CurrentTask()))
}

func hasLoadSum(t *task.Task) bool {
	if t == nil {
		return false
	}
	for _, op := range t.Ops {
		if op.Kind == task.OpLoadSum {
			return true
		}
	}
	return false
}

// matchScheduled replays one scheduled failure at golden cuts: every
// cut inside a load-sum task — the fused load run must fail on the exact
// word (for InK, the exact index or data slice) the per-word loop fails
// on — plus about 50 of the other cuts. The compiled side is one pooled
// session whose schedule is rewritten per cut.
func matchScheduled(t *testing.T, name string, factory AppFactory, kind RuntimeKind) {
	t.Helper()
	const seed = 5
	bench, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(kind)
	golden := &taskCuts{rt: rt}
	gsess := kernel.NewSession(rt, bench.App, power.Continuous{})
	gsess.Cuts = golden
	if _, err := gsess.Run(seed); err != nil {
		t.Fatal(err)
	}
	if len(golden.cuts) == 0 {
		t.Fatal("golden run recorded no cuts")
	}

	stride := max(1, len(golden.cuts)/50)
	sched := power.NewSchedule()
	sess := kernel.NewSession(NewRuntime(kind), bench.App, sched)
	inLoad := 0
	for i, cut := range golden.cuts {
		if !golden.inLoad[i] && i%stride != 0 {
			continue
		}
		sched.FailAt = []time.Duration{cut}
		compiled, err := sess.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		interp := runInterpreted(t, factory, kind, power.NewSchedule(cut), seed)
		if !reflect.DeepEqual(compiled, interp) {
			t.Fatalf("cut %d (%v): compiled run diverged from interpreted:\n%+v\nvs\n%+v",
				i, cut, compiled, interp)
		}
		if golden.inLoad[i] {
			inLoad++
		}
	}
	if name == "dma" && inLoad == 0 {
		t.Error("no golden cut fell inside the load-sum task")
	}
}

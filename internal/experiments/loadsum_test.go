// Differential coverage for the fused load run. The contract under test:
// a task body's Exec.LoadSum — the runtime's LoadRun hook, charged in
// bulk wherever the supply's next failure point is known — behaves
// exactly as the per-word LoadAt loop it stands for, so fusing a load
// run is purely a throughput choice. The matrix deliberately crosses all
// four runtime families (each runtime's LoadRun is its own fused path)
// and three supplies: the sweep's timer, continuous power, and the
// checker's replay schedule with one failure at a golden cut — every cut
// inside the summing task, so a fused run's failure lands on the word
// the per-word loop fails on.

package experiments

import (
	"reflect"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/frontend"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
)

var diffRuntimes = []RuntimeKind{Alpaca, InK, EaseIO, JustDo}

// sumTask names the task of sumApp that checksums the copied buffer.
const sumTask = "finish"

// sumApp returns the factory of a dma-shaped app: an init task, a task
// that DMA-copies a buffer, and a summing task that checksums the copy.
// The fused app sums through one e.LoadSum; its twin (fused=false) makes
// the n e.LoadAt calls that LoadSum stands for. Everything else is the
// same declaration, so the two must run identically.
func sumApp(fused bool) AppFactory {
	return func() (*apps.Bench, error) {
		cfg := apps.DefaultDMAConfig()
		a := task.NewApp("dma")
		pattern := apps.Pattern(cfg.Words, 0xD17A)
		src := a.NVConst("src", pattern)
		dst := a.NVBuf("dst", cfg.Words)
		sum := a.NVInt("checksum")
		copyOp := a.DMA("copy")

		var tDMA, tFin *task.Task
		a.AddTask("init", func(e task.Exec) {
			e.Compute(cfg.InitCycles)
			e.Next(tDMA)
		})
		tDMA = a.AddTask("dma", func(e task.Exec) {
			e.Compute(cfg.PreCycles)
			e.DMACopy(copyOp, task.VarLoc(src, 0), task.VarLoc(dst, 0), cfg.Words)
			e.Compute(cfg.PostCycles)
			e.Next(tFin)
		})
		tFin = a.AddTask(sumTask, func(e task.Exec) {
			var s uint16
			if fused {
				s = e.LoadSum(dst, 0, cfg.FinishReads)
			} else {
				for i := 0; i < cfg.FinishReads; i++ {
					s += e.LoadAt(dst, i)
				}
			}
			e.Store(sum, s)
			e.Done()
		})

		var want uint16
		for i := 0; i < cfg.FinishReads; i++ {
			want += pattern[i]
		}
		a.CheckOutput = func(m task.CheckMem) bool {
			return m.Equal(dst, 0, pattern) && m.Read(sum, 0) == want
		}
		if err := frontend.Analyze(a); err != nil {
			return nil, err
		}
		return &apps.Bench{App: a}, nil
	}
}

// runPerWord executes one seed of the per-word twin on a fresh device —
// the reference the fused pooled session must reproduce.
func runPerWord(t *testing.T, kind RuntimeKind, supply power.Supply, seed int64) *stats.Run {
	t.Helper()
	bench, err := sumApp(false)()
	if err != nil {
		t.Fatal(err)
	}
	run, err := kernel.NewSession(NewRuntime(kind), bench.App, supply).Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestLoadSumMatchesPerWord pins byte-identity between the fused app
// through a pooled session and its per-word twin on fresh devices, for
// every runtime, under three supplies: per seed under the sweep's timer
// and under continuous power, and per golden cut under the checker's
// replay schedule (see matchScheduled).
func TestLoadSumMatchesPerWord(t *testing.T) {
	for _, kind := range diffRuntimes {
		cell := "dma/" + kind.String()
		t.Run(cell, func(t *testing.T) {
			matchSeeds(t, kind, TimerSupply, 12)
		})
		t.Run("continuous/"+cell, func(t *testing.T) {
			matchSeeds(t, kind, func() power.Supply { return power.Continuous{} }, 3)
		})
		t.Run("schedule/"+cell, func(t *testing.T) {
			matchScheduled(t, kind)
		})
	}
}

// matchSeeds compares seeds 1..seeds of one pooled fused session with
// fresh per-word runs, every run under its own supply from mk.
func matchSeeds(t *testing.T, kind RuntimeKind, mk func() power.Supply, seeds int64) {
	t.Helper()
	bench, err := sumApp(true)()
	if err != nil {
		t.Fatal(err)
	}
	sess := kernel.NewSession(NewRuntime(kind), bench.App, mk())
	for seed := int64(1); seed <= seeds; seed++ {
		fused, err := sess.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		perWord := runPerWord(t, kind, mk(), seed)
		if !reflect.DeepEqual(fused, perWord) {
			t.Fatalf("seed %d: fused run diverged from per-word:\n%+v\nvs\n%+v",
				seed, fused, perWord)
		}
	}
}

// cutRecorder collects charge-slice boundaries.
type cutRecorder struct{ cuts []time.Duration }

func (c *cutRecorder) NoteCut(onTime time.Duration) { c.cuts = append(c.cuts, onTime) }

// TestCutSinkForcesSliceIdentity pins the bulk-charge gate on the other
// observation hook: with a CutSink installed, a fused load run must fall
// back to per-slice charging and report exactly the cut sequence the
// per-word loop reports — the failure-point checker depends on every
// candidate boundary existing on both paths.
func TestCutSinkForcesSliceIdentity(t *testing.T) {
	for _, kind := range diffRuntimes {
		t.Run(kind.String(), func(t *testing.T) {
			bench, err := sumApp(true)()
			if err != nil {
				t.Fatal(err)
			}
			fusedCuts := &cutRecorder{}
			sess := kernel.NewSession(NewRuntime(kind), bench.App, TimerSupply())
			sess.Cuts = fusedCuts
			fused, err := sess.Run(4)
			if err != nil {
				t.Fatal(err)
			}

			twin, err := sumApp(false)()
			if err != nil {
				t.Fatal(err)
			}
			perWordCuts := &cutRecorder{}
			twinSess := kernel.NewSession(NewRuntime(kind), twin.App, TimerSupply())
			twinSess.Cuts = perWordCuts
			perWord, err := twinSess.Run(4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fused, perWord) {
				t.Errorf("fused run under CutSink diverged from per-word:\n%+v\nvs\n%+v",
					fused, perWord)
			}
			if !reflect.DeepEqual(fusedCuts.cuts, perWordCuts.cuts) {
				t.Errorf("cut sequences differ: fused %d cuts, per-word %d cuts",
					len(fusedCuts.cuts), len(perWordCuts.cuts))
			}
			if len(fusedCuts.cuts) == 0 {
				t.Error("no cuts recorded")
			}
		})
	}
}

// taskCuts records a golden run's charge-slice boundaries, marking those
// taken while the runtime's current task is the summing task.
type taskCuts struct {
	rt    kernel.Hooks
	cuts  []time.Duration
	inSum []bool
}

func (c *taskCuts) NoteCut(onTime time.Duration) {
	c.cuts = append(c.cuts, onTime)
	cur := c.rt.CurrentTask()
	c.inSum = append(c.inSum, cur != nil && cur.Name == sumTask)
}

// matchScheduled replays one scheduled failure at golden cuts: every
// cut inside the summing task — the fused load run must fail on the
// exact word (for InK, the exact index or data slice) the per-word loop
// fails on — plus about 50 of the other cuts. The fused side is one
// pooled session whose schedule is rewritten per cut.
func matchScheduled(t *testing.T, kind RuntimeKind) {
	t.Helper()
	const seed = 5
	bench, err := sumApp(true)()
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
	inSum := 0
	for i, cut := range golden.cuts {
		if !golden.inSum[i] && i%stride != 0 {
			continue
		}
		sched.FailAt = []time.Duration{cut}
		fused, err := sess.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		perWord := runPerWord(t, kind, power.NewSchedule(cut), seed)
		if !reflect.DeepEqual(fused, perWord) {
			t.Fatalf("cut %d (%v): fused run diverged from per-word:\n%+v\nvs\n%+v",
				i, cut, fused, perWord)
		}
		if golden.inSum[i] {
			inSum++
		}
	}
	if inSum == 0 {
		t.Error("no golden cut fell inside the summing task")
	}
}

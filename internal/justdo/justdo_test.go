package justdo

import (
	"strings"
	"testing"
	"time"

	"easeio/internal/alpaca"
	"easeio/internal/frontend"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
)

func analyzed(t *testing.T, a *task.App) *task.App {
	t.Helper()
	if err := frontend.Analyze(a); err != nil {
		t.Fatal(err)
	}
	return a
}

func run(t *testing.T, a *task.App, supply power.Supply) (*kernel.Device, *Runtime) {
	t.Helper()
	rt := New()
	sess := kernel.NewSession(rt, a, supply)
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	return sess.Device(), rt
}

// TestResumeSkipsCompletedWork: after a failure, completed compute and
// stores fast-forward; only the interrupted tail re-executes.
func TestResumeSkipsCompletedWork(t *testing.T) {
	a := task.NewApp("resume")
	x := a.NVInt("x")
	y := a.NVInt("y")
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.Compute(2000)
		e.Store(x, 1)
		e.Compute(2000)
		e.Store(y, 1)
		e.Compute(2000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Fail at 5 ms: inside the third compute block.
	dev, rt := run(t, a, power.NewSchedule(5*time.Millisecond))
	if dev.Run.PowerFailures != 1 {
		t.Fatalf("failures = %d", dev.Run.PowerFailures)
	}
	if kernel.ReadVar(dev, rt, x, 0) != 1 || kernel.ReadVar(dev, rt, y, 0) != 1 {
		t.Error("stores lost")
	}
	// Wasted work ≈ only the interrupted compute slice, far below a full
	// task re-execution (6 ms). Allow the fast-forward and boot overhead.
	if w := dev.Run.Work[stats.Wasted].T; w > 3500*time.Microsecond {
		t.Errorf("wasted = %v; resume-from-instruction should waste < one op", w)
	}
	// Total on-time ≈ golden + small: the first two compute blocks are
	// never re-paid.
	if dev.Run.OnTime > 8*time.Millisecond {
		t.Errorf("on-time = %v; completed compute was re-paid", dev.Run.OnTime)
	}
}

// TestIOValueReplay: a completed sensor read replays its recorded value;
// the physical value changing meanwhile is invisible.
func TestIOValueReplay(t *testing.T) {
	a := task.NewApp("replay")
	reading := uint16(7)
	execs := 0
	s := a.IO("sensor", task.Single, true, func(e task.Exec, _ int) uint16 {
		execs++
		e.Op(time.Millisecond, 0)
		v := reading
		reading = 99
		return v
	})
	got := a.NVInt("got")
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		v := e.CallIO(s)
		e.Compute(4000)
		e.Store(got, v)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	reading = 7 // reset after the analysis run

	dev, rt := run(t, a, power.NewSchedule(3*time.Millisecond))
	if execs-1 != 1 {
		t.Errorf("sensor executions = %d, want 1", execs-1)
	}
	if dev.Run.IOSkips != 1 {
		t.Errorf("skips = %d", dev.Run.IOSkips)
	}
	if v := kernel.ReadVar(dev, rt, got, 0); v != 7 {
		t.Errorf("stored value = %d, want the original 7", v)
	}
}

// TestVoidSitesReexecute: effects outside the value log (accelerator
// runs, transmissions) re-execute on replay.
func TestVoidSitesReexecute(t *testing.T) {
	a := task.NewApp("void")
	execs := 0
	s := a.IO("lea", task.Single, false, func(e task.Exec, _ int) uint16 {
		execs++
		e.LEAMacs(500)
		return 0
	})
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.CallIO(s)
		e.Compute(5000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	_, _ = run(t, a, power.NewSchedule(3*time.Millisecond))
	if execs-1 != 2 {
		t.Errorf("void-site executions = %d, want 2 (no value to replay)", execs-1)
	}
}

// TestDMAMixedVolatility: NV→NV transfers skip once complete; transfers
// into volatile memory re-execute to refill it.
func TestDMAMixedVolatility(t *testing.T) {
	a := task.NewApp("dmas")
	src := a.NVConst("src", []uint16{1, 2, 3, 4})
	dst := a.NVBuf("dst", 4)
	dNV := a.DMA("nv")
	dVol := a.DMA("vol")
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.DMACopy(dVol, task.VarLoc(src, 0), task.RawLoc(2 /* LEA-RAM */, 0), 4)
		e.DMACopy(dNV, task.VarLoc(src, 0), task.VarLoc(dst, 0), 4)
		e.Compute(5000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	dev, rt := run(t, a, power.NewSchedule(3*time.Millisecond))
	if dev.Run.DMASkips != 1 {
		t.Errorf("DMA skips = %d, want 1 (only the NV→NV copy)", dev.Run.DMASkips)
	}
	for i := 0; i < 4; i++ {
		if got := kernel.ReadVar(dev, rt, dst, i); got != uint16(i+1) {
			t.Errorf("dst[%d] = %d", i, got)
		}
	}
}

// TestSteadyStateOverhead: under continuous power JustDo pays logging
// overhead a task-based runtime does not — the trade-off the paper's §2
// invokes to dismiss checkpointing approaches.
func TestSteadyStateOverhead(t *testing.T) {
	build := func() *task.App {
		a := task.NewApp("ovh")
		buf := a.NVBuf("buf", 32)
		var fin *task.Task
		a.AddTask("main", func(e task.Exec) {
			for i := 0; i < 32; i++ {
				e.Compute(50)
				e.StoreAt(buf, i, uint16(i))
			}
			e.Next(fin)
		})
		fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
		return a
	}
	dev, _ := run(t, analyzed(t, build()), power.Continuous{})
	jd := dev.Run.Work[stats.Overhead].T

	app2 := analyzed(t, build())
	run2, err := kernel.NewSession(alpaca.New(), app2, power.Continuous{}).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	base := run2.Work[stats.Overhead].T
	if jd <= base {
		t.Errorf("JustDo overhead %v must exceed task-based overhead %v", jd, base)
	}
}

// TestProgressResetsAcrossTasks: each task starts with a fresh operation
// sequence; a stale progress counter would skip the next task's work.
func TestProgressResetsAcrossTasks(t *testing.T) {
	a := task.NewApp("twotasks")
	x := a.NVInt("x")
	y := a.NVInt("y")
	var t2, fin *task.Task
	a.AddTask("one", func(e task.Exec) {
		e.Store(x, 1)
		e.Store(x, 2)
		e.Store(x, 3)
		e.Next(t2)
	})
	t2 = a.AddTask("two", func(e task.Exec) {
		e.Store(y, 9) // same sequence slot as task one's first store
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	dev, rt := run(t, a, power.Continuous{})
	if kernel.ReadVar(dev, rt, x, 0) != 3 || kernel.ReadVar(dev, rt, y, 0) != 9 {
		t.Error("progress counter bled across tasks")
	}
}

// TestValueLogOverflowPanics: a task with more logged operations than the
// log holds must fail loudly, not corrupt the replay: the runtime panics,
// and the session returns the panic as the run's error.
func TestValueLogOverflowPanics(t *testing.T) {
	a := task.NewApp("overflow")
	v := a.NVBuf("v", 1)
	a.AddTask("big", func(e task.Exec) {
		for i := 0; i < 5000; i++ {
			_ = e.Load(v) // each load claims a log slot
		}
		e.Done()
	})
	analyzed(t, a)
	_, err := kernel.NewSession(New(), a, power.Continuous{}).Run(1)
	if err == nil || !strings.Contains(err.Error(), "logged operations") {
		t.Errorf("err = %v, want the log-overflow panic", err)
	}
}

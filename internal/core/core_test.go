package core

import (
	"strings"
	"testing"
	"time"

	"easeio/internal/frontend"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/task"
)

func analyzed(t *testing.T, a *task.App) *task.App {
	t.Helper()
	if err := frontend.Analyze(a); err != nil {
		t.Fatal(err)
	}
	return a
}

func runWith(t *testing.T, a *task.App, supply power.Supply, rt *Runtime) (*kernel.Device, *Runtime) {
	t.Helper()
	sess := kernel.NewSession(rt, a, supply)
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	return sess.Device(), rt
}

func run(t *testing.T, a *task.App, supply power.Supply) (*kernel.Device, *Runtime) {
	t.Helper()
	return runWith(t, a, supply, New())
}

// --- Single semantics ---

func TestSingleSkipsAfterCompletion(t *testing.T) {
	a := task.NewApp("single")
	execs := 0
	s := a.IO("op", task.Single, true, func(e task.Exec, _ int) uint16 {
		execs++
		e.Op(time.Millisecond, 0)
		return 42
	})
	got := a.NVInt("got")
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		v := e.CallIO(s)
		e.Store(got, v)
		e.Compute(6000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Two failures in the compute tail: the op must run exactly once.
	dev, rt := run(t, a, power.NewSchedule(3*time.Millisecond, 6*time.Millisecond))
	if want := 1 + 1; execs != want { // +1 for the analysis run
		t.Errorf("executions = %d, want %d", execs-1, want-1)
	}
	if dev.Run.IOSkips != 2 {
		t.Errorf("skips = %d, want 2", dev.Run.IOSkips)
	}
	// The restored value must flow into the store on every attempt.
	if got := kernel.ReadVar(dev, rt, got, 0); got != 42 {
		t.Errorf("restored value = %d", got)
	}
}

func TestSingleReexecutesIfInterruptedMidOp(t *testing.T) {
	a := task.NewApp("midop")
	execs := 0
	s := a.IO("op", task.Single, false, func(e task.Exec, _ int) uint16 {
		execs++
		e.Op(2*time.Millisecond, 0)
		return 0
	})
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.CallIO(s)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Cut at 1 ms: inside the operation, before its flag is set.
	dev, _ := run(t, a, power.NewSchedule(time.Millisecond))
	if execs-1 != 2 {
		t.Errorf("executions = %d, want 2 (incomplete op must retry)", execs-1)
	}
	if dev.Run.IOSkips != 0 {
		t.Errorf("skips = %d", dev.Run.IOSkips)
	}
}

// TestSingleFlagResetsAcrossTaskInstances: a new dynamic instance of the
// task re-executes its I/O (flags are versioned by the instance counter).
func TestSingleFlagResetsAcrossTaskInstances(t *testing.T) {
	a := task.NewApp("instances")
	execs := 0
	s := a.IO("op", task.Single, false, func(e task.Exec, _ int) uint16 {
		execs++
		return 0
	})
	n := a.NVInt("n")
	var loop, fin *task.Task
	loop = a.AddTask("loop", func(e task.Exec) {
		e.CallIO(s)
		c := e.Load(n) + 1
		e.Store(n, c)
		if c < 3 {
			e.Next(loop)
			return
		}
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	_, _ = run(t, a, power.Continuous{})
	if execs-1 != 3 {
		t.Errorf("executions = %d, want 3 (one per task instance)", execs-1)
	}
}

// --- Timely semantics ---

func timelyApp(window time.Duration, execs *int) *task.App {
	a := task.NewApp("timely")
	s := a.TimelyIO("temp", window, true, func(e task.Exec, _ int) uint16 {
		*execs++
		e.Op(time.Millisecond, 0)
		return uint16(*execs)
	})
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.CallIO(s)
		e.Compute(5000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	return a
}

func TestTimelyFreshSkips(t *testing.T) {
	execs := 0
	a := analyzed(t, timelyApp(50*time.Millisecond, &execs))
	// Failure at 3 ms, off 1 ms: the reading is ~3 ms old on reboot —
	// fresh within 50 ms, so it restores.
	dev, _ := run(t, a, power.NewSchedule(3*time.Millisecond))
	if execs-1 != 1 {
		t.Errorf("executions = %d, want 1 (fresh value reused)", execs-1)
	}
	if dev.Run.IOSkips != 1 {
		t.Errorf("skips = %d", dev.Run.IOSkips)
	}
}

func TestTimelyStaleReexecutes(t *testing.T) {
	execs := 0
	a := analyzed(t, timelyApp(2*time.Millisecond, &execs))
	s := power.NewSchedule(4 * time.Millisecond)
	s.Off = 10 * time.Millisecond // reboot gap far beyond the window
	dev, _ := run(t, a, s)
	if execs-1 != 2 {
		t.Errorf("executions = %d, want 2 (stale value re-sensed)", execs-1)
	}
	if dev.Run.IORepeats != 1 {
		t.Errorf("repeats = %d", dev.Run.IORepeats)
	}
}

// --- Always semantics ---

func TestAlwaysReexecutes(t *testing.T) {
	a := task.NewApp("always")
	execs := 0
	s := a.IO("op", task.Always, false, func(e task.Exec, _ int) uint16 {
		execs++
		e.Op(500*time.Microsecond, 0)
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
	dev, _ := run(t, a, power.NewSchedule(2*time.Millisecond, 4*time.Millisecond))
	if execs-1 != 3 {
		t.Errorf("executions = %d, want 3", execs-1)
	}
	if dev.Run.IOSkips != 0 {
		t.Error("Always must never skip")
	}
}

// --- Loop lock-flag arrays (§6) ---

func TestLoopInstancesSkipIndividually(t *testing.T) {
	a := task.NewApp("loop")
	perIdx := [4]int{}
	s := a.IO("sample", task.Single, true, func(e task.Exec, idx int) uint16 {
		perIdx[idx]++
		e.Op(time.Millisecond, 0)
		return uint16(100 + idx)
	}).Loop(4)
	out := a.NVBuf("out", 4)
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		for i := 0; i < 4; i++ {
			e.StoreAt(out, i, e.CallIOAt(s, i))
		}
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Cut mid-way through sample 2: completed instances skip on the
	// retry, the interrupted and never-started ones execute.
	dev, rt := run(t, a, power.NewSchedule(2500*time.Microsecond))
	totalExecs := 0
	for _, n := range perIdx {
		totalExecs += n
	}
	// 4 analysis-run invocations + idx 0,1,2 on the first attempt (2 cut
	// mid-flight) + idx 2,3 on the second attempt.
	if totalExecs != 4+3+2 {
		t.Errorf("total executions = %d, want 9", totalExecs)
	}
	if perIdx[0]-1 != 1 || perIdx[1]-1 != 1 || perIdx[2]-1 != 2 || perIdx[3]-1 != 1 {
		t.Errorf("per-instance executions = %v", perIdx)
	}
	if dev.Run.IOSkips != 2 {
		t.Errorf("skips = %d, want 2 (instances 0 and 1)", dev.Run.IOSkips)
	}
	for i := 0; i < 4; i++ {
		if got := kernel.ReadVar(dev, rt, out, i); got != uint16(100+i) {
			t.Errorf("out[%d] = %d", i, got)
		}
	}
}

// TestLoopInstanceOutOfRange guards the lock-array bounds.
func TestLoopInstanceOutOfRange(t *testing.T) {
	a := task.NewApp("oob")
	s := a.IO("x", task.Single, false, func(e task.Exec, _ int) uint16 { return 0 })
	a.AddTask("main", func(e task.Exec) {
		e.CallIOAt(s, 0)
		e.Done()
	})
	analyzed(t, a)
	rt := New()
	dev := kernel.NewDevice(power.Continuous{}, 1)
	if err := rt.Attach(dev, a); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "out of range") {
			t.Errorf("recover = %v", r)
		}
	}()
	rt.CallIO(&kernel.Ctx{Dev: dev, RT: rt}, s, 3)
}

// --- I/O blocks and semantic precedence ---

// TestBlockSingleSkipsMembers: Figure 3's pattern — a completed Single
// block never re-executes, even its Always members.
func TestBlockSingleSkipsMembers(t *testing.T) {
	a := task.NewApp("block")
	tempExecs, humdExecs := 0, 0
	temp := a.TimelyIO("temp", 10*time.Millisecond, true, func(e task.Exec, _ int) uint16 {
		tempExecs++
		e.Op(time.Millisecond, 0)
		return 21
	})
	humd := a.IO("humd", task.Always, true, func(e task.Exec, _ int) uint16 {
		humdExecs++
		e.Op(time.Millisecond, 0)
		return 55
	})
	blk := a.Block("sense", task.Single)
	vt, vh := a.NVInt("vt"), a.NVInt("vh")
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		var tv, hv uint16
		e.IOBlock(blk, func() {
			tv = e.CallIO(temp)
			hv = e.CallIO(humd)
		})
		e.Store(vt, tv)
		e.Store(vh, hv)
		e.Compute(6000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Two failures after the block completed.
	dev, rt := run(t, a, power.NewSchedule(4*time.Millisecond, 7*time.Millisecond))
	if tempExecs-1 != 1 || humdExecs-1 != 1 {
		t.Errorf("execs = %d/%d, want 1/1 (block precedence over Always)",
			tempExecs-1, humdExecs-1)
	}
	if got := kernel.ReadVar(dev, rt, vt, 0); got != 21 {
		t.Errorf("vt = %d", got)
	}
	if got := kernel.ReadVar(dev, rt, vh, 0); got != 55 {
		t.Errorf("vh = %d (Always member value must restore inside a completed block)", got)
	}
}

// TestBlockTimelyViolationReexecutesSingleMembers: §4.2.1 — a violated
// Timely block overrides its members' Single flags.
func TestBlockTimelyViolationReexecutesSingleMembers(t *testing.T) {
	a := task.NewApp("violate")
	presExecs := 0
	pres := a.IO("pres", task.Single, true, func(e task.Exec, _ int) uint16 {
		presExecs++
		e.Op(500*time.Microsecond, 0)
		return 7
	})
	blk := a.TimelyBlock("blk", 2*time.Millisecond)
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.IOBlock(blk, func() {
			e.CallIO(pres)
		})
		e.Compute(4000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Failure at 3 ms with a 10 ms outage: the block's 2 ms constraint is
	// violated, so the Single member must re-execute.
	s := power.NewSchedule(3 * time.Millisecond)
	s.Off = 10 * time.Millisecond
	_, _ = run(t, a, s)
	if presExecs-1 != 2 {
		t.Errorf("pres executions = %d, want 2 (block violation overrides Single)", presExecs-1)
	}
}

// TestBlockMidBlockFailureKeepsMemberFlags: a failure inside the block
// re-runs the block body, but completed Single members still skip
// (Figure 5's per-member flag logic).
func TestBlockMidBlockFailureKeepsMemberFlags(t *testing.T) {
	a := task.NewApp("midblock")
	aExecs, bExecs := 0, 0
	sa := a.IO("sa", task.Single, false, func(e task.Exec, _ int) uint16 {
		aExecs++
		e.Op(time.Millisecond, 0)
		return 0
	})
	sb := a.IO("sb", task.Single, false, func(e task.Exec, _ int) uint16 {
		bExecs++
		e.Op(2*time.Millisecond, 0)
		return 0
	})
	blk := a.Block("blk", task.Single)
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.IOBlock(blk, func() {
			e.CallIO(sa)
			e.CallIO(sb)
		})
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Cut at 2 ms: sa done, sb mid-flight. On retry sa skips, sb runs.
	dev, _ := run(t, a, power.NewSchedule(2*time.Millisecond))
	if aExecs-1 != 1 {
		t.Errorf("sa executions = %d, want 1", aExecs-1)
	}
	if bExecs-1 != 2 {
		t.Errorf("sb executions = %d, want 2", bExecs-1)
	}
	if dev.Run.IOSkips != 1 {
		t.Errorf("skips = %d", dev.Run.IOSkips)
	}
}

// TestNestedBlockPrecedence: Figure 4 — a completed outer Single block
// dominates an expired inner Timely block.
func TestNestedBlockPrecedence(t *testing.T) {
	a := task.NewApp("nested")
	execs := 0
	s := a.IO("s", task.Single, true, func(e task.Exec, _ int) uint16 {
		execs++
		e.Op(500*time.Microsecond, 0)
		return 9
	})
	outer := a.Block("outer", task.Single)
	inner := a.TimelyBlock("inner", time.Millisecond) // will expire in any outage
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.IOBlock(outer, func() {
			e.IOBlock(inner, func() {
				e.CallIO(s)
			})
		})
		e.Compute(5000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	sch := power.NewSchedule(3 * time.Millisecond)
	sch.Off = 20 * time.Millisecond // inner window long gone
	_, _ = run(t, a, sch)
	if execs-1 != 1 {
		t.Errorf("executions = %d, want 1 (outer Single has higher scope)", execs-1)
	}
}

// --- Data-dependent re-execution (§3.3.2) ---

func TestDependentSiteReexecutes(t *testing.T) {
	a := task.NewApp("deps")
	tempExecs, sendExecs := 0, 0
	temp := a.TimelyIO("temp", 2*time.Millisecond, true, func(e task.Exec, _ int) uint16 {
		tempExecs++
		e.Op(time.Millisecond, 0)
		return uint16(tempExecs)
	})
	send := a.IO("send", task.Single, false, func(e task.Exec, _ int) uint16 {
		sendExecs++
		e.Op(time.Millisecond, 0)
		return 0
	}).After(temp)
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.CallIO(temp)
		e.CallIO(send)
		e.Compute(5000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Outage long enough to expire temp: temp re-executes, and send —
	// though Single and completed — must re-send the new value.
	s := power.NewSchedule(4 * time.Millisecond)
	s.Off = 10 * time.Millisecond
	_, _ = run(t, a, s)
	if tempExecs-1 != 2 {
		t.Fatalf("temp executions = %d, want 2", tempExecs-1)
	}
	if sendExecs-1 != 2 {
		t.Errorf("send executions = %d, want 2 (dependence forces re-send)", sendExecs-1)
	}
}

func TestIndependentSingleStaysSkipped(t *testing.T) {
	// Control for the test above: without the dependence, send stays
	// skipped even though temp re-executed.
	a := task.NewApp("nodeps")
	tempExecs, sendExecs := 0, 0
	temp := a.TimelyIO("temp", 2*time.Millisecond, true, func(e task.Exec, _ int) uint16 {
		tempExecs++
		e.Op(time.Millisecond, 0)
		return 0
	})
	send := a.IO("send", task.Single, false, func(e task.Exec, _ int) uint16 {
		sendExecs++
		e.Op(time.Millisecond, 0)
		return 0
	})
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.CallIO(temp)
		e.CallIO(send)
		e.Compute(5000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	s := power.NewSchedule(4 * time.Millisecond)
	s.Off = 10 * time.Millisecond
	_, _ = run(t, a, s)
	if tempExecs-1 != 2 || sendExecs-1 != 1 {
		t.Errorf("execs = %d/%d, want 2/1", tempExecs-1, sendExecs-1)
	}
}

// --- Unsafe program execution (Figure 2c) ---

func TestBranchStability(t *testing.T) {
	a := task.NewApp("branch")
	reading := uint16(5)
	temp := a.IO("temp", task.Single, true, func(e task.Exec, _ int) uint16 {
		e.Op(time.Millisecond, 0)
		v := reading
		reading = 25 // the next physical reading would take the other branch
		return v
	})
	stdy, alarm := a.NVInt("stdy"), a.NVInt("alarm")
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		v := e.CallIO(temp)
		if v < 10 {
			e.Store(stdy, 1)
		} else {
			e.Store(alarm, 1)
		}
		e.Compute(6000)
		e.Next(fin)
	}).Touches(stdy, alarm)
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	reading = 5 // reset after the analysis run consumed one value

	dev, rt := run(t, a, power.NewSchedule(4*time.Millisecond))
	gs, ga := kernel.ReadVar(dev, rt, stdy, 0), kernel.ReadVar(dev, rt, alarm, 0)
	if gs != 1 || ga != 0 {
		t.Errorf("stdy=%d alarm=%d; value privatization must pin the branch", gs, ga)
	}
}

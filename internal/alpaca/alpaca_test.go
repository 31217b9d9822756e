package alpaca

import (
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

func run(t *testing.T, a *task.App, supply power.Supply, seed int64) (*kernel.Device, *Runtime) {
	t.Helper()
	rt := New()
	sess := kernel.NewSession(rt, a, supply)
	if _, err := sess.Run(seed); err != nil {
		t.Fatal(err)
	}
	return sess.Device(), rt
}

// TestWARPrivatization: a task that reads then writes a variable must see
// its original value on re-execution — Alpaca's core guarantee.
func TestWARPrivatization(t *testing.T) {
	a := task.NewApp("war")
	x := a.NVInt("x").WithInit([]uint16{10})
	sum := a.NVInt("sum")
	var fin *task.Task
	a.AddTask("inc", func(e task.Exec) {
		v := e.Load(x)  // read
		e.Store(x, v+1) // write after read: WAR
		e.Store(sum, v) // records what was read
		e.Compute(6000) // the failure window
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Fail once at 3 ms: inside the compute, after both stores.
	dev, rt := run(t, a, power.NewSchedule(3*time.Millisecond), 1)
	if dev.Run.PowerFailures != 1 {
		t.Fatalf("failures = %d", dev.Run.PowerFailures)
	}
	// The committed x must be exactly 11: the re-executed read saw 10
	// again because the first attempt's write went to the private copy.
	if got := kernel.ReadVar(dev, rt, x, 0); got != 11 {
		t.Errorf("x = %d, want 11 (WAR privatization)", got)
	}
	if got := kernel.ReadVar(dev, rt, sum, 0); got != 10 {
		t.Errorf("sum = %d, want 10", got)
	}
}

// TestNonWARDirectWrite: write-only variables go straight to the master —
// torn values are visible after failures until the re-execution rewrites
// them (idempotent for deterministic writes).
func TestNonWARDirectWrite(t *testing.T) {
	a := task.NewApp("direct")
	y := a.NVInt("y")
	var fin *task.Task
	a.AddTask("w", func(e task.Exec) {
		e.Store(y, 7)
		e.Compute(4000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	if len(a.Tasks[0].Meta.WAR) != 0 {
		t.Fatal("y must not be WAR")
	}
	dev, rt := run(t, a, power.NewSchedule(2*time.Millisecond), 1)
	if got := kernel.ReadVar(dev, rt, y, 0); got != 7 {
		t.Errorf("y = %d", got)
	}
	if dev.Run.PowerFailures != 1 {
		t.Errorf("failures = %d", dev.Run.PowerFailures)
	}
}

// TestCommitAtomicity: a failure during the commit phase must not leak
// partial master updates.
func TestCommitAtomicity(t *testing.T) {
	a := task.NewApp("commit")
	buf := a.NVBuf("buf", 64).WithInit(make([]uint16, 64))
	var fin *task.Task
	a.AddTask("bump", func(e task.Exec) {
		for i := 0; i < 64; i++ {
			v := e.LoadAt(buf, i)
			e.StoreAt(buf, i, v+1)
		}
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Sweep failure points across the whole run; whatever the cut, every
	// word must end at exactly 1 (all-or-nothing commit).
	for at := 100 * time.Microsecond; at < 2*time.Millisecond; at += 100 * time.Microsecond {
		dev, rt := run(t, a, power.NewSchedule(at), 1)
		for i := 0; i < 64; i++ {
			if got := kernel.ReadVar(dev, rt, buf, i); got != 1 {
				t.Fatalf("failure@%v: buf[%d] = %d, want 1", at, i, got)
			}
		}
	}
}

// TestIOAlwaysReexecutes: Alpaca has no I/O semantics; a completed
// operation re-executes when its task re-executes.
func TestIOAlwaysReexecutes(t *testing.T) {
	a := task.NewApp("io")
	count := 0
	s := a.IO("op", task.Single, false, func(e task.Exec, _ int) uint16 {
		count++
		e.Op(500*time.Microsecond, 0)
		return 0
	})
	var fin *task.Task
	a.AddTask("t", func(e task.Exec) {
		e.CallIO(s) // Single annotation is ignored by Alpaca
		e.Compute(5000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	dev, _ := run(t, a, power.NewSchedule(2*time.Millisecond, 4*time.Millisecond), 1)
	// Analysis run executes the body once too.
	execs := count - 1
	if execs != 3 {
		t.Errorf("I/O executions = %d, want 3 (1 + 2 failures)", execs)
	}
	if dev.Run.IORepeats != 2 {
		t.Errorf("recorded repeats = %d", dev.Run.IORepeats)
	}
	if dev.Run.IOSkips != 0 {
		t.Errorf("Alpaca cannot skip I/O: %d", dev.Run.IOSkips)
	}
}

// TestDMABypassesPrivatization: the paper's idempotence bug (§2.1.2,
// Figure 2b): two DMAs with a WAR dependence through non-volatile memory
// produce a wrong result when re-executed.
func TestDMABypassesPrivatization(t *testing.T) {
	a := task.NewApp("dmabug")
	b1 := a.NVBuf("b1", 1).WithInit([]uint16{100})
	b2 := a.NVBuf("b2", 1).WithInit([]uint16{200})
	b3 := a.NVBuf("b3", 1)
	d1, d2 := a.DMA("d1"), a.DMA("d2")
	var fin *task.Task
	a.AddTask("dma", func(e task.Exec) {
		e.DMACopy(d1, task.VarLoc(b1, 0), task.VarLoc(b3, 0), 1) // Blk1 → Blk3
		e.DMACopy(d2, task.VarLoc(b2, 0), task.VarLoc(b1, 0), 1) // Blk2 → Blk1
		e.Compute(4000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Fail after both DMAs: the re-executed first DMA copies the
	// *modified* Blk1 into Blk3.
	dev, rt := run(t, a, power.NewSchedule(2*time.Millisecond), 1)
	if dev.Run.PowerFailures != 1 {
		t.Fatalf("failures = %d", dev.Run.PowerFailures)
	}
	if got := kernel.ReadVar(dev, rt, b3, 0); got != 200 {
		t.Errorf("b3 = %d; expected the idempotence bug (200), continuous result is 100", got)
	}
}

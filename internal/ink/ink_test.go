package ink

import (
	"testing"
	"time"

	"easeio/internal/frontend"
	"easeio/internal/kernel"
	"easeio/internal/mem"
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

func run(t *testing.T, a *task.App, supply power.Supply) (*kernel.Device, *Runtime) {
	t.Helper()
	rt := New()
	sess := kernel.NewSession(rt, a, supply)
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	return sess.Device(), rt
}

// TestDoubleBufferIsolation: an interrupted task must leave committed
// state untouched — writes land in the shadow buffer until the flip.
func TestDoubleBufferIsolation(t *testing.T) {
	a := task.NewApp("iso")
	x := a.NVInt("x").WithInit([]uint16{5})
	var fin *task.Task
	a.AddTask("w", func(e task.Exec) {
		e.Store(x, 99)
		e.Compute(6000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	dev, rt := run(t, a, power.NewSchedule(3*time.Millisecond))
	if dev.Run.PowerFailures != 1 {
		t.Fatalf("failures = %d", dev.Run.PowerFailures)
	}
	if got := kernel.ReadVar(dev, rt, x, 0); got != 99 {
		t.Errorf("final x = %d", got)
	}
}

// TestReadOwnWrite: within a task, a read after a write must observe the
// written (shadow) value.
func TestReadOwnWrite(t *testing.T) {
	a := task.NewApp("rw")
	x := a.NVInt("x").WithInit([]uint16{1})
	seen := a.NVInt("seen")
	var fin *task.Task
	a.AddTask("t", func(e task.Exec) {
		e.Store(x, 2)
		e.Store(seen, e.Load(x))
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	dev, rt := run(t, a, power.Continuous{})
	if got := kernel.ReadVar(dev, rt, seen, 0); got != 2 {
		t.Errorf("read-own-write = %d, want 2", got)
	}
	_ = dev
}

// TestPartialVariableWritePreserved: writing one word of a buffer must
// keep the other words (copy-on-first-write).
func TestPartialVariableWritePreserved(t *testing.T) {
	a := task.NewApp("partial")
	buf := a.NVBuf("buf", 4).WithInit([]uint16{10, 20, 30, 40})
	var fin *task.Task
	a.AddTask("t", func(e task.Exec) {
		e.StoreAt(buf, 2, 99)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	dev, rt := run(t, a, power.Continuous{})
	want := []uint16{10, 20, 99, 40}
	for i, w := range want {
		if got := kernel.ReadVar(dev, rt, buf, i); got != w {
			t.Errorf("buf[%d] = %d, want %d", i, got, w)
		}
	}
	_ = dev
}

// TestWARThroughRestart: like Alpaca, the committed value is read again
// on re-execution, so increments are exactly-once per commit.
func TestWARThroughRestart(t *testing.T) {
	a := task.NewApp("war")
	x := a.NVInt("x")
	var fin *task.Task
	a.AddTask("inc", func(e task.Exec) {
		e.Store(x, e.Load(x)+1)
		e.Compute(6000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	dev, rt := run(t, a, power.NewSchedule(2*time.Millisecond, 4*time.Millisecond))
	if dev.Run.PowerFailures != 2 {
		t.Fatalf("failures = %d", dev.Run.PowerFailures)
	}
	if got := kernel.ReadVar(dev, rt, x, 0); got != 1 {
		t.Errorf("x = %d, want exactly 1 despite re-executions", got)
	}
}

// TestFlipAtomicity: sweep failure points; multi-variable commits must be
// all-or-nothing.
func TestFlipAtomicity(t *testing.T) {
	a := task.NewApp("flip")
	x := a.NVInt("x")
	y := a.NVInt("y")
	var fin *task.Task
	a.AddTask("t", func(e task.Exec) {
		e.Store(x, 1)
		e.Compute(300)
		e.Store(y, 1)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	for at := 50 * time.Microsecond; at < time.Millisecond; at += 50 * time.Microsecond {
		dev, rt := run(t, a, power.NewSchedule(at))
		gx := kernel.ReadVar(dev, rt, x, 0)
		gy := kernel.ReadVar(dev, rt, y, 0)
		if gx != 1 || gy != 1 {
			t.Fatalf("failure@%v: x=%d y=%d (torn commit)", at, gx, gy)
		}
	}
}

// TestDMAWritesActiveCopy: DMA targets the committed (active) copy, so a
// task that CPU-writes the same variable after the DMA loses the DMA data
// at the flip — InK's variant of the DMA-oblivion problem.
func TestDMAWritesActiveCopy(t *testing.T) {
	a := task.NewApp("dmaink")
	src := a.NVConst("src", []uint16{77})
	dst := a.NVBuf("dst", 2)
	d := a.DMA("d")
	var fin *task.Task
	a.AddTask("t", func(e task.Exec) {
		e.StoreAt(dst, 1, 5)                                      // CPU write → shadow copy
		e.DMACopy(d, task.VarLoc(src, 0), task.VarLoc(dst, 0), 1) // DMA → active copy
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	dev, rt := run(t, a, power.Continuous{})
	// The flip installs the shadow (with the CPU write) as active; the
	// DMA's word, written to the old active copy, is lost.
	if got := kernel.ReadVar(dev, rt, dst, 0); got == 77 {
		t.Errorf("dst[0] = %d; expected the DMA-oblivion artifact (0)", got)
	}
	if got := kernel.ReadVar(dev, rt, dst, 1); got != 5 {
		t.Errorf("dst[1] = %d, want 5", got)
	}
	_ = dev
}

// TestShadowFootprint: InK must allocate roughly twice the variable
// footprint (Table 6's FRAM column).
func TestShadowFootprint(t *testing.T) {
	a := task.NewApp("foot")
	a.NVBuf("big", 512)
	var fin *task.Task
	a.AddTask("t", func(e task.Exec) { e.Next(fin) })
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	dev, _ := run(t, a, power.Continuous{})
	ink := dev.Mem.Allocated(mem.FRAM) - 512 // everything past the app's buffer
	if ink < 512 {
		t.Errorf("InK metadata = %d words, want ≥ 512 (shadow buffer)", ink)
	}
}

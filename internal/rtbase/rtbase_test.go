package rtbase

import (
	"reflect"
	"strings"
	"testing"

	"easeio/internal/frontend"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/task"
)

func twoTaskApp(t *testing.T) *task.App {
	t.Helper()
	a := task.NewApp("base")
	a.NVBuf("v", 4).WithInit([]uint16{1, 2, 3, 4})
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) { e.Next(fin) })
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	if err := frontend.Analyze(a); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestInitAllocatesMasters(t *testing.T) {
	a := twoTaskApp(t)
	dev := kernel.NewDevice(power.Continuous{}, 1)
	var b Base
	if err := b.Init(dev, a, "TestRT"); err != nil {
		t.Fatal(err)
	}
	v := a.Vars[0]
	addr := b.MasterAddr(v)
	if addr.Bank != mem.FRAM {
		t.Errorf("master in %v", addr.Bank)
	}
	for i := 0; i < 4; i++ {
		if got := dev.Mem.Read(addr.Add(i)); got != uint16(i+1) {
			t.Errorf("init[%d] = %d", i, got)
		}
	}
	if dev.Mem.OwnerWords(mem.FRAM, "app") != 4 {
		t.Error("master attributed to app owner")
	}
	if dev.Mem.OwnerWords(mem.FRAM, "TestRT") != 1 {
		t.Error("task pointer attributed to runtime owner")
	}
	if b.Current() != a.Entry() {
		t.Error("initial task must be the entry")
	}
}

func TestInitRejectsUnanalyzedApp(t *testing.T) {
	a := task.NewApp("raw")
	a.AddTask("t", func(e task.Exec) { e.Done() })
	dev := kernel.NewDevice(power.Continuous{}, 1)
	var b Base
	err := b.Init(dev, a, "X")
	if err == nil || !strings.Contains(err.Error(), "not analyzed") {
		t.Errorf("err = %v", err)
	}
}

func TestMasterAddrUnknownVarPanics(t *testing.T) {
	a := twoTaskApp(t)
	dev := kernel.NewDevice(power.Continuous{}, 1)
	var b Base
	if err := b.Init(dev, a, "X"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.MasterAddr(&task.NVVar{Name: "stranger", Words: 1})
}

func TestRedundancyAccounting(t *testing.T) {
	a := task.NewApp("red")
	execLen := 0
	s := a.IO("op", task.Always, false, func(e task.Exec, _ int) uint16 {
		execLen++
		return 0
	})
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.CallIO(s)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	if err := frontend.Analyze(a); err != nil {
		t.Fatal(err)
	}
	dev := kernel.NewDevice(power.Continuous{}, 1)
	var b Base
	if err := b.Init(dev, a, "X"); err != nil {
		t.Fatal(err)
	}
	ctx := &kernel.Ctx{Dev: dev} // RT unused by ExecIO itself

	// First execution: counted, not a repeat, not redundant.
	b.ExecIO(ctx, s, 0)
	if dev.Run.IOExecs != 1 || dev.Run.IORepeats != 0 {
		t.Errorf("after first exec: %d/%d", dev.Run.IOExecs, dev.Run.IORepeats)
	}
	// Second execution of the same dynamic instance: a repeat.
	b.ExecIO(ctx, s, 0)
	if dev.Run.IOExecs != 2 || dev.Run.IORepeats != 1 {
		t.Errorf("after repeat: %d/%d", dev.Run.IOExecs, dev.Run.IORepeats)
	}
	if dev.Run.PerSite["op"] != 2 {
		t.Errorf("per-site = %v", dev.Run.PerSite)
	}
	// A new task instance resets the dynamic key.
	b.CommitTransition(ctx, a.Tasks[0], nil)
	b.ExecIO(ctx, s, 0)
	if dev.Run.IORepeats != 1 {
		t.Errorf("new instance counted as repeat: %d", dev.Run.IORepeats)
	}
}

func TestTaskPointerPersists(t *testing.T) {
	a := twoTaskApp(t)
	dev := kernel.NewDevice(power.Continuous{}, 1)
	var b Base
	if err := b.Init(dev, a, "X"); err != nil {
		t.Fatal(err)
	}
	ctx := &kernel.Ctx{Dev: dev}
	b.CommitTransition(ctx, a.Tasks[1], nil)
	if b.Current() != a.Tasks[1] {
		t.Fatal("transition did not advance")
	}
	// Simulate a reboot: volatile state cleared, pointer reloaded.
	dev.Mem.PowerFailure()
	b.LoadBoot(ctx)
	if b.Current() != a.Tasks[1] {
		t.Error("task pointer lost across reboot")
	}
	// Finish.
	b.CommitTransition(ctx, nil, nil)
	if b.Current() != nil {
		t.Error("done sentinel not honored")
	}
}

// TestSnapshotBaseIntoNoAlloc pins that SnapshotState with a reused
// state is a pure slice copy: the flat ID-indexed state made the
// snapshot a fixed-shape copy, and this keeps it that way (the original
// map-based state allocated three maps per snapshot even when prev was
// supplied).
func TestSnapshotBaseIntoNoAlloc(t *testing.T) {
	a := twoTaskApp(t)
	dev := kernel.NewDevice(power.Continuous{}, 1)
	var b Base
	if err := b.Init(dev, a, "TestRT"); err != nil {
		t.Fatal(err)
	}
	var reused, got kernel.RuntimeState
	b.SnapshotState(&reused) // sizes the slices
	if avg := testing.AllocsPerRun(20, func() { b.SnapshotState(&reused) }); avg > 0 {
		t.Errorf("reused SnapshotState allocates %.1f times, want 0", avg)
	}
	b.SnapshotState(&got)
	if !reflect.DeepEqual(got, reused) {
		t.Errorf("reused snapshot diverged: %+v vs %+v", reused, got)
	}
}

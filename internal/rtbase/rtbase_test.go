package rtbase

import (
	"fmt"
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
	if err := b.Init(dev, a); err != nil {
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
	if got := dev.Mem.Allocated(mem.FRAM); got != 5 {
		t.Errorf("allocated %d FRAM words, want 4 master words and the task pointer", got)
	}
	if b.CurrentTask() != a.Entry() {
		t.Error("initial task must be the entry")
	}
}

func TestInitRejectsUnanalyzedApp(t *testing.T) {
	a := task.NewApp("raw")
	a.AddTask("t", func(e task.Exec) { e.Done() })

	// Only some tasks analyzed (metadata set by hand on the first).
	partial := task.NewApp("partial")
	var fin *task.Task
	partial.AddTask("main", func(e task.Exec) { e.Next(fin) }).Meta.Analyzed = true
	fin = partial.AddTask("fin", func(e task.Exec) { e.Done() })

	for _, app := range []*task.App{a, partial} {
		if app.Analyzed() {
			t.Fatalf("%s: App.Analyzed() = true", app.Name)
		}
		dev := kernel.NewDevice(power.Continuous{}, 1)
		var b Base
		err := b.Init(dev, app)
		if err == nil || !strings.Contains(err.Error(), "not analyzed") {
			t.Errorf("%s: err = %v", app.Name, err)
		}
	}
}

// slotApp builds an analyzed app whose I/O slot numbering is non-trivial:
// a looped site (3 instances) declared before a plain site, then two DMA
// sites. The task body is straight-line so any runtime can run it.
func slotApp(t *testing.T) *task.App {
	t.Helper()
	a := task.NewApp("slots")
	src := a.NVBuf("src", 4).WithInit([]uint16{5, 6, 7, 8})
	mid := a.NVBuf("mid", 4)
	dst := a.NVBuf("dst", 4)
	sum := a.NVInt("sum")
	loop := a.IO("loop", task.Single, true, func(e task.Exec, idx int) uint16 {
		e.Compute(400)
		return uint16(idx + 1)
	}).Loop(3)
	plain := a.IO("plain", task.Single, true, func(e task.Exec, _ int) uint16 {
		e.Compute(400)
		return 9
	})
	first := a.DMA("first")
	second := a.DMA("second").AfterIO(plain)
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		for i := 0; i < 3; i++ {
			e.Store(sum, e.Load(sum)+e.CallIOAt(loop, i))
		}
		e.Store(sum, e.Load(sum)+e.CallIO(plain))
		e.DMACopy(first, task.VarLoc(src, 0), task.VarLoc(mid, 0), 4)
		e.Compute(5000)
		e.DMACopy(second, task.VarLoc(mid, 0), task.VarLoc(dst, 0), 4)
		e.Compute(5000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	a.CheckOutput = func(m task.CheckMem) bool {
		return m.Read(sum, 0) == 1+2+3+9 && m.Equal(dst, 0, []uint16{5, 6, 7, 8})
	}
	if err := frontend.Analyze(a); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSlotNumbering pins the I/O slot numbering Init computes — the
// layout kernel.RuntimeState and its wire encoding are indexed by: a
// site's instances start at the running total of Instances over the
// sites declared before it, and the DMA sites follow all I/O slots in
// declaration order.
func TestSlotNumbering(t *testing.T) {
	a := slotApp(t)
	loop, plain := a.Sites[0], a.Sites[1]
	dev := kernel.NewDevice(power.Continuous{}, 1)
	var b Base
	if err := b.Init(dev, a); err != nil {
		t.Fatal(err)
	}
	type inst struct {
		name string
		slot int
	}
	var got []inst
	for idx := 0; idx < loop.Instances; idx++ {
		slot, _ := b.noteIO(loop, idx)
		got = append(got, inst{fmt.Sprintf("loop[%d]", idx), slot})
	}
	slot, _ := b.noteIO(plain, 0)
	got = append(got, inst{"plain", slot})
	for _, d := range a.DMAs {
		slot, _ := b.noteDMA(d)
		got = append(got, inst{d.Name, slot})
	}
	want := []inst{{"loop[0]", 0}, {"loop[1]", 1}, {"loop[2]", 2}, {"plain", 3}, {"first", 4}, {"second", 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("slots = %v, want %v", got, want)
	}
	var st kernel.RuntimeState
	b.SnapshotState(&st)
	if len(st.Slots) != len(want) {
		t.Fatalf("RuntimeState has %d slots, want %d", len(st.Slots), len(want))
	}
	for i, sl := range st.Slots {
		if sl.ExecCount != 1 {
			t.Errorf("slot %d (%s) ExecCount = %d, want 1", i, want[i].name, sl.ExecCount)
		}
	}
}

func TestMasterAddrUnknownVarPanics(t *testing.T) {
	a := twoTaskApp(t)
	dev := kernel.NewDevice(power.Continuous{}, 1)
	var b Base
	if err := b.Init(dev, a); err != nil {
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
	if err := b.Init(dev, a); err != nil {
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
	if err := b.Init(dev, a); err != nil {
		t.Fatal(err)
	}
	ctx := &kernel.Ctx{Dev: dev}
	b.CommitTransition(ctx, a.Tasks[1], nil)
	if b.CurrentTask() != a.Tasks[1] {
		t.Fatal("transition did not advance")
	}
	// Simulate a reboot: volatile state cleared, pointer reloaded.
	dev.Mem.PowerFailure()
	b.LoadBoot(ctx)
	if b.CurrentTask() != a.Tasks[1] {
		t.Error("task pointer lost across reboot")
	}
	// Finish.
	b.CommitTransition(ctx, nil, nil)
	if b.CurrentTask() != nil {
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
	if err := b.Init(dev, a); err != nil {
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

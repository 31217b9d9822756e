package kernel

import (
	"strings"
	"testing"
	"time"

	"easeio/internal/mcu"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
	"easeio/internal/units"
)

// testRT is a minimal runtime with no consistency machinery: variables
// live at master addresses, I/O always executes, tasks advance through a
// persistent pointer. It exists to exercise the engine itself.
type testRT struct {
	dev   *Device
	app   *task.App
	addrs map[*task.NVVar]mem.Addr
	ptr   mem.Addr
	cur   int

	// mark, when non-zero, is written at Attach to a durable word outside
	// any variable, at markAddr; scratchAddr follows it, unwritten.
	mark        uint16
	markAddr    mem.Addr
	scratchAddr mem.Addr

	boots      int
	beginTasks int
}

func (r *testRT) Name() string { return "test" }

// Attach allocates the variables and the task pointer and writes their
// initial values — the durable words every run starts from.
func (r *testRT) Attach(dev *Device, app *task.App) error {
	r.dev, r.app = dev, app
	r.addrs = map[*task.NVVar]mem.Addr{}
	for _, v := range app.Vars {
		r.addrs[v] = dev.Mem.Alloc(mem.FRAM, v.Words)
		dev.Mem.WriteBlock(r.addrs[v], v.Init, len(v.Init))
	}
	r.ptr = dev.Mem.Alloc(mem.FRAM, 1)
	dev.Mem.Write(r.ptr, uint16(app.Entry().ID))
	if r.mark != 0 {
		r.markAddr = dev.Mem.Alloc(mem.FRAM, 1)
		dev.Mem.Write(r.markAddr, r.mark)
		r.scratchAddr = dev.Mem.Alloc(mem.FRAM, 1)
	}
	return nil
}

func (r *testRT) OnBoot(c *Ctx) {
	r.boots++
	r.cur = int(r.dev.Mem.Read(r.ptr))
}

func (r *testRT) CurrentTask() *task.Task {
	if r.cur == 0xFFFF {
		return nil
	}
	return r.app.Tasks[r.cur]
}

func (r *testRT) BeginTask(c *Ctx, t *task.Task) { r.beginTasks++ }

func (r *testRT) Compute(c *Ctx, n int64) { c.ChargeCycles(n) }

func (r *testRT) Transition(c *Ctx, next *task.Task) {
	id := 0xFFFF
	if next != nil {
		id = next.ID
	}
	c.ChargeOverheadCycles(mcu.TaskTransitionCycles)
	r.dev.Mem.Write(r.ptr, uint16(id))
	r.cur = id
	r.dev.Ledger.CommitAttempt()
}

func (r *testRT) Load(c *Ctx, v *task.NVVar, i int) uint16 {
	c.ChargeMemAccess(mem.FRAM, false, false)
	return r.dev.Mem.Read(r.addrs[v].Add(i))
}

func (r *testRT) LoadRun(c *Ctx, v *task.NVVar, off, n int) uint16 {
	s, free := c.LoadPrefix(r.addrs[v].Add(off), n, false)
	for j := free; j < n; j++ {
		s += r.Load(c, v, off+j)
	}
	return s
}

func (r *testRT) Store(c *Ctx, v *task.NVVar, i int, val uint16) {
	c.ChargeMemAccess(mem.FRAM, true, false)
	r.dev.Mem.Write(r.addrs[v].Add(i), val)
}

func (r *testRT) AddrOf(v *task.NVVar) mem.Addr { return r.addrs[v] }

func (r *testRT) TaskPointer() mem.Addr { return r.ptr }

func (r *testRT) CallIO(c *Ctx, s *task.IOSite, idx int) uint16 { return s.Exec(c, idx) }

func (r *testRT) IOBlock(c *Ctx, b *task.IOBlock, body func()) { body() }

func (r *testRT) DMACopy(c *Ctx, d *task.DMASite, src, dst task.Loc, words int) {
	c.RawDMA(c.ResolveLoc(src), c.ResolveLoc(dst), words, false)
}

var _ Hooks = (*testRT)(nil)

func simpleApp(bodies ...task.Body) *task.App {
	a := task.NewApp("t")
	for i, b := range bodies {
		a.AddTask("task"+string(rune('a'+i)), b)
	}
	for _, tk := range a.Tasks {
		tk.Meta.Analyzed = true
	}
	return a
}

func TestRunAppContinuous(t *testing.T) {
	a := task.NewApp("cont")
	v := a.NVInt("v")
	var t2 *task.Task
	a.AddTask("one", func(e task.Exec) {
		e.Compute(1000)
		e.Store(v, 42)
		e.Next(t2)
	})
	t2 = a.AddTask("two", func(e task.Exec) {
		e.Compute(500)
		e.Done()
	})
	for _, tk := range a.Tasks {
		tk.Meta.Analyzed = true
	}

	rt := &testRT{}
	sess := NewSession(rt, a, power.Continuous{})
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	dev := sess.Device()
	if dev.Run.PowerFailures != 0 {
		t.Errorf("failures = %d", dev.Run.PowerFailures)
	}
	if got := ReadVar(dev, rt, v, 0); got != 42 {
		t.Errorf("v = %d", got)
	}
	if dev.Run.TaskCommits != 2 || dev.Run.TaskAttempts != 2 {
		t.Errorf("tasks: %d/%d", dev.Run.TaskCommits, dev.Run.TaskAttempts)
	}
	// Time accounting: committed buckets must equal on-time.
	total := dev.Run.Work[stats.App].T + dev.Run.Work[stats.Overhead].T +
		dev.Run.Work[stats.Wasted].T
	if total != dev.Run.OnTime {
		t.Errorf("bucket sum %v != on-time %v", total, dev.Run.OnTime)
	}
	if dev.Run.Work[stats.App].T < 1500*time.Microsecond {
		t.Errorf("app work %v below compute total", dev.Run.Work[stats.App].T)
	}
}

func TestRunAppWithFailures(t *testing.T) {
	// Four 4 ms tasks under fixed 5 ms energy cycles: failures land
	// deterministically inside tasks, and every task still fits a cycle.
	cfg := power.TimerConfig{
		OnMin: 5 * time.Millisecond, OnMax: 5 * time.Millisecond,
		OffMin: time.Millisecond, OffMax: time.Millisecond,
	}
	body := func(next func(task.Exec)) task.Body {
		return func(e task.Exec) {
			e.Compute(4000)
			next(e)
		}
	}
	a := task.NewApp("chain")
	var t2, t3, t4 *task.Task
	a.AddTask("a", body(func(e task.Exec) { e.Next(t2) }))
	t2 = a.AddTask("b", body(func(e task.Exec) { e.Next(t3) }))
	t3 = a.AddTask("c", body(func(e task.Exec) { e.Next(t4) }))
	t4 = a.AddTask("d", body(func(e task.Exec) { e.Done() }))
	for _, tk := range a.Tasks {
		tk.Meta.Analyzed = true
	}
	rt := &testRT{}
	sess := NewSession(rt, a, power.NewTimer(cfg))
	if _, err := sess.Run(3); err != nil {
		t.Fatal(err)
	}
	dev := sess.Device()
	if dev.Run.PowerFailures == 0 {
		t.Fatal("expected at least one failure")
	}
	if dev.Run.TaskAttempts <= dev.Run.TaskCommits {
		t.Errorf("attempts %d must exceed commits %d", dev.Run.TaskAttempts, dev.Run.TaskCommits)
	}
	if dev.Run.Work[stats.Wasted].T == 0 {
		t.Error("failed attempts must show as wasted work")
	}
	if rt.boots != dev.Run.PowerFailures+1 {
		t.Errorf("boots %d, failures %d", rt.boots, dev.Run.PowerFailures)
	}
	if dev.Run.WallTime <= dev.Run.OnTime {
		t.Error("wall time must include off periods")
	}
}

func TestRunAppNonTermination(t *testing.T) {
	// A 25 ms atomic task can never finish within a ≤ 20 ms energy cycle:
	// the engine must diagnose the non-termination bug (§3.5).
	a := simpleApp(func(e task.Exec) {
		e.Compute(25_000)
		e.Done()
	})
	_, err := NewSession(&testRT{}, a, power.NewTimer(power.DefaultTimerConfig())).Run(1)
	if err == nil || !strings.Contains(err.Error(), "non-termination") {
		t.Fatalf("err = %v, want non-termination diagnosis", err)
	}
}

func TestRunAppMissingTransition(t *testing.T) {
	a := simpleApp(func(e task.Exec) {
		e.Compute(10)
		// falls off the end without Next/Done
	})
	_, err := NewSession(&testRT{}, a, power.Continuous{}).Run(1)
	if err == nil || !strings.Contains(err.Error(), "without Next/Done") {
		t.Fatalf("err = %v", err)
	}
}

func TestChargeSlicing(t *testing.T) {
	// A failure must be able to land inside a long operation, with slice
	// granularity.
	cfg := power.TimerConfig{
		OnMin: 5 * time.Millisecond, OnMax: 5 * time.Millisecond,
		OffMin: time.Millisecond, OffMax: time.Millisecond,
	}
	executed := false
	a := simpleApp(func(e task.Exec) {
		e.Op(8*time.Millisecond, 8*units.Microjoule) // longer than the 5 ms cycle
		executed = true
		e.Done()
	})
	rt := &testRT{}
	_, err := NewSession(rt, a, power.NewTimer(cfg)).Run(1)
	if err == nil {
		t.Fatal("an 8 ms atomic op cannot complete in 5 ms cycles; expected non-termination")
	}
	dev := rt.dev // the session drops a device whose run errored
	if executed {
		t.Error("operation body observed completion despite mid-op failures")
	}
	// The failure must land near 5 ms of on-time per attempt, not at the
	// 8 ms op boundary (that is what slicing buys).
	if dev.Clock.OnTime()%(5*time.Millisecond) > 200*time.Microsecond {
		t.Logf("on-time at abort: %v", dev.Clock.OnTime())
	}
}

func TestRawDMAPartialTransfer(t *testing.T) {
	// Across many seeds, some failures land mid-transfer; re-execution
	// from a constant source must still converge to the complete copy.
	build := func() (*task.App, *task.NVVar) {
		a := task.NewApp("dma")
		init := make([]uint16, 1500)
		for i := range init {
			init[i] = uint16(i + 1)
		}
		src := a.NVConst("src", init)
		dst := a.NVBuf("dst", 1500)
		d := a.DMA("d")
		var fin *task.Task
		a.AddTask("copy", func(e task.Exec) {
			e.Compute(6500)
			e.DMACopy(d, task.VarLoc(src, 0), task.VarLoc(dst, 0), 1500) // 3 ms transfer
			e.Next(fin)
		})
		fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
		for _, tk := range a.Tasks {
			tk.Meta.Analyzed = true
		}
		return a, dst
	}
	sawFailure := false
	for seed := int64(1); seed <= 20; seed++ {
		a, dst := build()
		rt := &testRT{}
		sess := NewSession(rt, a, power.NewTimer(power.DefaultTimerConfig()))
		if _, err := sess.Run(seed); err != nil {
			t.Fatal(err)
		}
		dev := sess.Device()
		if dev.Run.PowerFailures > 0 {
			sawFailure = true
		}
		for i := 0; i < 1500; i += 123 {
			if got := ReadVar(dev, rt, dst, i); got != uint16(i+1) {
				t.Fatalf("seed %d: dst[%d] = %d", seed, i, got)
			}
		}
	}
	if !sawFailure {
		t.Error("no seed produced a mid-run failure; test lost its teeth")
	}
}

func TestWastedModeRouting(t *testing.T) {
	a := simpleApp(func(e task.Exec) {
		e.Compute(100)
		e.Done()
	})
	dev := NewDevice(power.Continuous{}, 1)
	rt := &testRT{}
	if err := rt.Attach(dev, a); err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Dev: dev, RT: rt}
	ctx.PushWasted()
	ctx.ChargeCycles(1000)
	ctx.PopWasted()
	if got := dev.Ledger.Committed[stats.Wasted]; got.T != time.Millisecond {
		t.Errorf("wasted = %v", got.T)
	}
	defer func() {
		if recover() == nil {
			t.Error("unbalanced PopWasted must panic")
		}
	}()
	ctx.PopWasted()
}

func TestResolveLoc(t *testing.T) {
	a := simpleApp(func(e task.Exec) { e.Done() })
	v := &task.NVVar{ID: 0, Name: "v", Words: 4}
	a.Vars = append(a.Vars, v)
	dev := NewDevice(power.Continuous{}, 1)
	rt := &testRT{}
	if err := rt.Attach(dev, a); err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Dev: dev, RT: rt}
	got := ctx.ResolveLoc(task.VarLoc(v, 2))
	if got.Bank != mem.FRAM || got != rt.addrs[v].Add(2) {
		t.Errorf("var loc = %v", got)
	}
	raw := ctx.ResolveLoc(task.RawLoc(uint8(mem.LEARAM), 7))
	if raw.Bank != mem.LEARAM || raw.Word != 7 {
		t.Errorf("raw loc = %v", raw)
	}
}

func TestCtxLEAOpsComputeRealResults(t *testing.T) {
	a := simpleApp(func(e task.Exec) { e.Done() })
	dev := NewDevice(power.Continuous{}, 1)
	rt := &testRT{}
	if err := rt.Attach(dev, a); err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Dev: dev, RT: rt}
	ctx.WriteLEA(0, uint16(int16(100)))
	neg := int16(-50)
	ctx.WriteLEA(1, uint16(neg))
	ctx.WriteLEA(10, uint16(int16(3)))
	ctx.WriteLEA(11, uint16(int16(4)))
	if got := ctx.LEADot(0, 10, 2); got != 100*3-50*4 {
		t.Errorf("dot = %d", got)
	}
	ctx.LEARelu(0, 2)
	if int16(ctx.ReadLEA(1)) != 0 {
		t.Error("relu did not clamp")
	}
	before := dev.Clock.OnTime()
	ctx.LEAMacs(1000)
	if dev.Clock.OnTime()-before < time.Millisecond {
		t.Error("LEA macs not charged")
	}
}

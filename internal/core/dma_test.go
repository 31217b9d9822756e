package core

import (
	"strings"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/frontend"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/task"
)

// --- DMA classification (§4.3) ---

// TestDMASingleSkipsAfterRegionCommit: an NVM→NVM copy is Single; once
// the following region's flag commits, re-attempts skip the transfer.
func TestDMASingleSkipsAfterRegionCommit(t *testing.T) {
	a := task.NewApp("dmasingle")
	src := a.NVConst("src", []uint16{1, 2, 3, 4})
	dst := a.NVBuf("dst", 4)
	d := a.DMA("copy")
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.DMACopy(d, task.VarLoc(src, 0), task.VarLoc(dst, 0), 4)
		e.Compute(6000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	dev, rt := run(t, a, power.NewSchedule(3*time.Millisecond, 5*time.Millisecond))
	if dev.Run.DMAExecs != 1 {
		t.Errorf("DMA executions = %d, want 1", dev.Run.DMAExecs)
	}
	if dev.Run.DMASkips != 2 {
		t.Errorf("DMA skips = %d, want 2", dev.Run.DMASkips)
	}
	for i := 0; i < 4; i++ {
		if got := kernel.ReadVar(dev, rt, dst, i); got != uint16(i+1) {
			t.Errorf("dst[%d] = %d", i, got)
		}
	}
}

// TestDMAPrivateSnapshot: the §4.3(ii) two-phase copy — an NVM→LEA-RAM
// transfer re-executed after the source was overwritten must deliver the
// ORIGINAL data from the privatization buffer.
func TestDMAPrivateSnapshot(t *testing.T) {
	a := task.NewApp("dmapriv")
	buf := a.NVBuf("buf", 4).WithInit([]uint16{10, 11, 12, 13})
	dIn := a.DMA("fetch")
	dOut := a.DMA("writeback")
	captured := a.NVBuf("captured", 4)
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		// Fetch buf into LEA-RAM (Private: snapshot taken).
		e.DMACopy(dIn, task.VarLoc(buf, 0), task.RawLoc(uint8(mem.LEARAM), 0), 4)
		// Overwrite the source (Single: dst is non-volatile).
		e.Compute(200)
		for i := 0; i < 4; i++ {
			e.StoreAt(buf, i, 99)
		}
		e.Compute(4000) // failure window: buf is clobbered here
		// Copy what LEA-RAM holds out to a result var for inspection.
		e.DMACopy(dOut, task.RawLoc(uint8(mem.LEARAM), 0), task.VarLoc(captured, 0), 4)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Failure after the clobber: LEA-RAM clears, the Private fetch
	// re-executes — it must read the snapshot, not the 99s.
	dev, rt := run(t, a, power.NewSchedule(3*time.Millisecond))
	if dev.Run.PowerFailures != 1 {
		t.Fatalf("failures = %d", dev.Run.PowerFailures)
	}
	for i := 0; i < 4; i++ {
		if got := kernel.ReadVar(dev, rt, captured, i); got != uint16(10+i) {
			t.Errorf("captured[%d] = %d, want %d (snapshot source)", i, got, 10+i)
		}
	}
}

// TestDMAVolatileToVolatileAlways: volatile↔volatile copies re-execute
// every attempt with no privatization machinery.
func TestDMAVolatileToVolatileAlways(t *testing.T) {
	a := task.NewApp("dmavol")
	d1 := a.DMA("seed")
	d2 := a.DMA("move")
	src := a.NVConst("src", []uint16{5})
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.DMACopy(d1, task.VarLoc(src, 0), task.RawLoc(uint8(mem.LEARAM), 0), 1)
		e.DMACopy(d2, task.RawLoc(uint8(mem.LEARAM), 0), task.RawLoc(uint8(mem.LEARAM), 100), 1)
		e.Compute(4000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)
	dev, _ := run(t, a, power.NewSchedule(2*time.Millisecond))
	// d2 executes twice (once per attempt): Always semantics.
	if dev.Run.DMAExecs < 4 {
		t.Errorf("DMA executions = %d; volatile copies must repeat", dev.Run.DMAExecs)
	}
	if dev.Run.DMASkips != 0 {
		t.Errorf("skips = %d", dev.Run.DMASkips)
	}
}

// TestDMAExclude: an excluded DMA behaves as Always and takes no
// privatization snapshot — safe only for constant sources (§4.3).
func TestDMAExclude(t *testing.T) {
	build := func(exclude bool) (*task.App, *task.DMASite) {
		a := task.NewApp("dmaexcl")
		coef := a.NVConst("coef", []uint16{1, 2, 3, 4})
		d := a.DMA("fetch")
		if exclude {
			d.Excluded()
		}
		var fin *task.Task
		a.AddTask("main", func(e task.Exec) {
			e.DMACopy(d, task.VarLoc(coef, 0), task.RawLoc(uint8(mem.LEARAM), 0), 4)
			e.Compute(4000)
			e.Next(fin)
		})
		fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
		return a, d
	}

	appEx, _ := build(true)
	analyzed(t, appEx)
	devEx, _ := run(t, appEx, power.NewSchedule(2*time.Millisecond))

	appPriv, _ := build(false)
	analyzed(t, appPriv)
	devPriv, _ := run(t, appPriv, power.NewSchedule(2*time.Millisecond))

	// Excluded copy must cost less runtime overhead than the privatized
	// one (no phase-1 snapshot).
	exOvh := devEx.Run.Work[1].T // stats.Overhead
	privOvh := devPriv.Run.Work[1].T
	if exOvh >= privOvh {
		t.Errorf("Exclude overhead %v must be below Private overhead %v", exOvh, privOvh)
	}
}

// --- Regional privatization (§4.4, Figure 6) ---

// TestFigure6Scenario reproduces the paper's running example exactly:
//
//	Task1:  z = b[0]
//	        DMA_copy(a[0] → b[0])      (Single)
//	        t = b[0]; a[0] = z
//
// A power failure after a[0] = z must not corrupt anything: the DMA is
// skipped on re-execution and regional recovery restores both regions'
// variables.
func TestFigure6Scenario(t *testing.T) {
	buildAndRun := func(failAt time.Duration, cfg Config) (za, ta, aa, ba uint16) {
		app := task.NewApp("fig6")
		va := app.NVBuf("a", 1).WithInit([]uint16{100})
		vb := app.NVBuf("b", 1).WithInit([]uint16{200})
		vz := app.NVInt("z")
		vt := app.NVInt("t")
		d := app.DMA("d")
		var fin *task.Task
		app.AddTask("task1", func(e task.Exec) {
			z := e.Load(vb) // region 1: z = b[0]
			e.Compute(500)
			e.DMACopy(d, task.VarLoc(va, 0), task.VarLoc(vb, 0), 1)
			tt := e.Load(vb) // region 2: t = b[0]
			e.Store(va, z)   // region 2: a[0] = z
			e.Store(vz, z)
			e.Store(vt, tt)
			e.Compute(4000)
			e.Next(fin)
		})
		fin = app.AddTask("fin", func(e task.Exec) { e.Done() })
		analyzed(t, app)
		rt := NewWithConfig(cfg)
		sess := kernel.NewSession(rt, app, power.NewSchedule(failAt))
		if _, err := sess.Run(1); err != nil {
			t.Fatal(err)
		}
		dev := sess.Device()
		return kernel.ReadVar(dev, rt, vz, 0), kernel.ReadVar(dev, rt, vt, 0),
			kernel.ReadVar(dev, rt, va, 0), kernel.ReadVar(dev, rt, vb, 0)
	}

	// Continuous-power truth: z=200, t=100, a=200, b=100.
	for failAt := 200 * time.Microsecond; failAt <= 4*time.Millisecond; failAt += 200 * time.Microsecond {
		z, tt, av, bv := buildAndRun(failAt, DefaultConfig())
		if z != 200 || tt != 100 || av != 200 || bv != 100 {
			t.Fatalf("failure@%v: z=%d t=%d a=%d b=%d; want 200 100 200 100",
				failAt, z, tt, av, bv)
		}
	}
}

// TestFigure6AblationShowsBug: with every privatization region emptied
// (frontend.StripRegions), the same scenario produces the WAR
// inconsistency the paper describes, while the region flags still mark
// the DMA complete.
func TestFigure6AblationShowsBug(t *testing.T) {
	app := task.NewApp("fig6bug")
	va := app.NVBuf("a", 1).WithInit([]uint16{100})
	vb := app.NVBuf("b", 1).WithInit([]uint16{200})
	vt := app.NVInt("t")
	d := app.DMA("d")
	var fin *task.Task
	app.AddTask("task1", func(e task.Exec) {
		z := e.Load(vb)
		e.Compute(500)
		e.DMACopy(d, task.VarLoc(va, 0), task.VarLoc(vb, 0), 1)
		tt := e.Load(vb)
		e.Store(va, z)
		e.Store(vt, tt)
		e.Compute(4000)
		e.Next(fin)
	})
	fin = app.AddTask("fin", func(e task.Exec) { e.Done() })
	if err := frontend.StripRegions(app); err != nil {
		t.Fatal(err)
	}

	rt := New()
	sess := kernel.NewSession(rt, app, power.NewSchedule(3*time.Millisecond))
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	dev := sess.Device()
	// The failure lands after a[0] = z (= 200). The re-execution skips
	// the completed Single DMA, but nothing restores b[0]: z = b[0] now
	// reads the DMA's output (100), and a[0] = z stores it.
	if dev.Run.DMASkips != 1 {
		t.Errorf("DMA skips = %d, want 1 (the region flag still marks the DMA done)", dev.Run.DMASkips)
	}
	if a := kernel.ReadVar(dev, rt, va, 0); a != 100 {
		t.Errorf("a[0] = %d, want the inconsistent 100 (continuous power gives 200)", a)
	}
}

// TestStripRegionsKeepsDMASkips: emptying the regions removes
// privatization only. The region flags still mark each DMA complete, so
// the stripped dma app skips exactly the completed DMAs the full plan
// skips.
func TestStripRegionsKeepsDMASkips(t *testing.T) {
	skips := func(strip bool) int {
		n := 0
		for seed := int64(1); seed <= 200; seed++ {
			bench, err := apps.NewDMAApp(apps.DefaultDMAConfig())
			if err != nil {
				t.Fatal(err)
			}
			if strip {
				if err := frontend.StripRegions(bench.App); err != nil {
					t.Fatal(err)
				}
			}
			run, err := kernel.NewSession(New(), bench.App, power.NewTimer(power.DefaultTimerConfig())).Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			n += run.DMASkips
		}
		return n
	}
	plan, stripped := skips(false), skips(true)
	if plan == 0 {
		t.Fatal("the full plan skipped no DMA: the seed range shows nothing")
	}
	if stripped != plan {
		t.Errorf("DMA skips: stripped plan %d, full plan %d", stripped, plan)
	}
}

// TestPrivBufferExhaustionPanics: §6 — the privatization buffer is a
// hard limit the compiler should check; the runtime panics, and the
// session returns the panic as the run's error.
func TestPrivBufferExhaustionPanics(t *testing.T) {
	a := task.NewApp("privfull")
	big := a.NVBuf("big", 600)
	d := a.DMA("fetch")
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.DMACopy(d, task.VarLoc(big, 0), task.RawLoc(uint8(mem.LEARAM), 0), 600)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	cfg := DefaultConfig()
	cfg.PrivBufWords = 100
	sess := kernel.NewSession(NewWithConfig(cfg), a, power.Continuous{})
	if _, err := sess.Run(1); err == nil || !strings.Contains(err.Error(), "privatization buffer") {
		t.Errorf("err = %v", err)
	}
}

// TestPrivBufferSharing: two Private DMAs in one task claim disjoint
// buffer chunks; the bump pointer resets at task commit so the next
// instance reuses the space.
func TestPrivBufferSharing(t *testing.T) {
	a := task.NewApp("privshare")
	b1 := a.NVBuf("b1", 40).WithInit(make([]uint16, 40))
	b2 := a.NVBuf("b2", 50).WithInit(make([]uint16, 50))
	d1, d2 := a.DMA("f1"), a.DMA("f2")
	n := a.NVInt("n")
	var loop, fin *task.Task
	loop = a.AddTask("loop", func(e task.Exec) {
		e.DMACopy(d1, task.VarLoc(b1, 0), task.RawLoc(uint8(mem.LEARAM), 0), 40)
		e.DMACopy(d2, task.VarLoc(b2, 0), task.RawLoc(uint8(mem.LEARAM), 100), 50)
		c := e.Load(n) + 1
		e.Store(n, c)
		if c < 4 {
			e.Next(loop)
			return
		}
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	cfg := DefaultConfig()
	cfg.PrivBufWords = 100 // fits 40+50 once, but not twice without reset
	rt := NewWithConfig(cfg)
	sess := kernel.NewSession(rt, a, power.Continuous{})
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err) // exhaustion would panic instead
	}
	dev := sess.Device()
	if dev.Run.DMAExecs != 8 {
		t.Errorf("DMA executions = %d, want 8", dev.Run.DMAExecs)
	}
}

// --- I/O→DMA dependence (§4.3.1) ---

func TestDMADependsOnIO(t *testing.T) {
	a := task.NewApp("dmadep")
	reads := 0
	sensor := a.TimelyIO("s", 2*time.Millisecond, true, func(e task.Exec, _ int) uint16 {
		reads++
		e.Op(time.Millisecond, 0)
		return uint16(reads * 10)
	})
	staging := a.NVBuf("staging", 1)
	dst := a.NVBuf("dst", 1)
	d := a.DMA("save").AfterIO(sensor)
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		v := e.CallIO(sensor)
		e.Store(staging, v)
		e.DMACopy(d, task.VarLoc(staging, 0), task.VarLoc(dst, 0), 1) // Single kind
		e.Compute(5000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Long outage: sensor expires and re-executes with a new value; the
	// Single DMA must re-copy because its dependence changed.
	s := power.NewSchedule(4 * time.Millisecond)
	s.Off = 10 * time.Millisecond
	dev, rt := run(t, a, s)
	if reads-1 != 2 {
		t.Fatalf("sensor reads = %d, want 2", reads-1)
	}
	// The analysis run consumed reading 10; real executions saw 20, then
	// 30 after re-sensing. The Single DMA must carry the NEWEST value.
	if got := kernel.ReadVar(dev, rt, dst, 0); got != 30 {
		t.Errorf("dst = %d, want 30 (the re-sensed value must reach NVM)", got)
	}
	if dev.Run.DMARepeats != 1 {
		t.Errorf("DMA repeats = %d, want 1 (dependence-forced)", dev.Run.DMARepeats)
	}
}

// --- Non-termination avoidance (§3.5) ---

// TestNonTerminationAvoidance: a task whose I/O pushes the attempt beyond
// the energy budget never completes under Alpaca-style all-or-nothing
// re-execution, but EaseIO's committed I/O shortens each re-attempt until
// the task fits.
func TestNonTerminationAvoidance(t *testing.T) {
	build := func() *task.App {
		a := task.NewApp("budget")
		s := a.IO("heavy", task.Single, false, func(e task.Exec, _ int) uint16 {
			e.Op(3*time.Millisecond, 0)
			return 0
		})
		var fin *task.Task
		a.AddTask("main", func(e task.Exec) {
			e.CallIO(s)
			e.Compute(3500)
			e.Next(fin)
		})
		fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
		return a
	}
	// Fixed 5 ms energy cycles: 3 ms I/O + 3.5 ms compute = 6.7 ms > 5 ms.
	cfg := power.TimerConfig{
		OnMin: 5 * time.Millisecond, OnMax: 5 * time.Millisecond,
		OffMin: time.Millisecond, OffMax: time.Millisecond,
	}

	// EaseIO: completes (I/O committed in cycle 1, compute fits cycle 2).
	app := analyzed(t, build())
	sess := kernel.NewSession(New(), app, power.NewTimer(cfg))
	if _, err := sess.Run(1); err != nil {
		t.Fatalf("EaseIO must terminate: %v", err)
	}
	dev := sess.Device()
	if dev.Run.PowerFailures == 0 {
		t.Error("scenario should involve at least one failure")
	}
}

// TestDMADepForcedReexecutionFreshensRegion: when a dependence change
// forces a completed Single DMA to re-copy, the following region must
// re-privatize — restoring the old snapshot would hand the CPU stale
// data.
func TestDMADepForcedReexecutionFreshensRegion(t *testing.T) {
	a := task.NewApp("depfresh")
	reads := 0
	sensor := a.TimelyIO("s", 2*time.Millisecond, true, func(e task.Exec, _ int) uint16 {
		reads++
		e.Op(time.Millisecond, 0)
		return uint16(reads * 10)
	})
	staging := a.NVBuf("staging", 1)
	dst := a.NVBuf("dst", 1)
	seen := a.NVBuf("seen", 1)
	d := a.DMA("save").AfterIO(sensor)
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		v := e.CallIO(sensor)
		e.Store(staging, v)
		e.DMACopy(d, task.VarLoc(staging, 0), task.VarLoc(dst, 0), 1)
		// CPU reads the DMA output in the following region: the value
		// must track the freshest copy.
		e.Store(seen, e.Load(dst))
		e.Compute(5000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Outage long enough to expire the sensor: it re-reads (30 after the
	// analysis run consumed 10), the DMA re-copies, and the region's CPU
	// read must see 30 — not a restored 20.
	s := power.NewSchedule(4 * time.Millisecond)
	s.Off = 10 * time.Millisecond
	dev, rt := run(t, a, s)
	if reads-1 != 2 {
		t.Fatalf("sensor reads = %d, want 2", reads-1)
	}
	if got := kernel.ReadVar(dev, rt, dst, 0); got != 30 {
		t.Errorf("dst = %d, want 30", got)
	}
	if got := kernel.ReadVar(dev, rt, seen, 0); got != 30 {
		t.Errorf("seen = %d, want 30 (stale region restore)", got)
	}
}

// TestPrivBufferClaimIdempotentAcrossRetries: power failures inside a
// Private DMA's snapshot phase must not leak buffer claims — the retry
// reuses the claimed chunk instead of exhausting the buffer.
func TestPrivBufferClaimIdempotentAcrossRetries(t *testing.T) {
	a := task.NewApp("claimretry")
	big := a.NVBuf("big", 60).WithInit(make([]uint16, 60))
	d := a.DMA("fetch")
	var fin *task.Task
	a.AddTask("main", func(e task.Exec) {
		e.Compute(500)
		e.DMACopy(d, task.VarLoc(big, 0), task.RawLoc(uint8(mem.LEARAM), 0), 60)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	analyzed(t, a)

	// Four failures, each landing inside the ~620 µs snapshot phase
	// (which starts at ≈0.7 ms). A leaking claim would need 4×60 = 240
	// words; the buffer has only 100.
	cfg := DefaultConfig()
	cfg.PrivBufWords = 100
	rt := NewWithConfig(cfg)
	sch := power.NewSchedule(760*time.Microsecond, 1520*time.Microsecond,
		2280*time.Microsecond, 3040*time.Microsecond)
	sess := kernel.NewSession(rt, a, sch)
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	dev := sess.Device()
	if dev.Run.PowerFailures != 4 {
		t.Fatalf("failures = %d, want 4", dev.Run.PowerFailures)
	}
	// The fetch eventually completes and fills LEA-RAM correctly.
	if dev.Run.DMAExecs == 0 {
		t.Error("transfer never completed")
	}
}

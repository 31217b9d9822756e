package easeio

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/stats"
)

// TestPublicAPIQuickstart exercises the README's quick-start flow end to
// end through the public surface only.
func TestPublicAPIQuickstart(t *testing.T) {
	app := NewApp("hello")
	sensors := NewPeripherals(1)
	temp := app.TimelyIO("Temp", 10*time.Millisecond, true,
		func(e Exec, _ int) uint16 { return sensors.Temp.Sample(e) })
	reading := app.NVInt("reading")
	var done *Task
	app.AddTask("sense", func(e Exec) {
		e.Store(reading, e.CallIO(temp))
		e.Compute(2000)
		e.Next(done)
	})
	done = app.AddTask("done", func(e Exec) { e.Done() })

	res, err := Run(app, NewEaseIO(), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "hello" || res.Runtime != "EaseIO" {
		t.Errorf("labels: %s/%s", res.App, res.Runtime)
	}
	if res.TaskCommits != 2 {
		t.Errorf("commits = %d", res.TaskCommits)
	}
	if res.OnTime <= 0 || res.TotalEnergy() <= 0 {
		t.Error("no work accounted")
	}
}

func TestRunOptions(t *testing.T) {
	bench, err := NewTempBench()
	if err != nil {
		t.Fatal(err)
	}
	// Continuous power.
	res, err := Run(bench.App, NewAlpaca(), WithContinuousPower())
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerFailures != 0 {
		t.Errorf("failures = %d under continuous power", res.PowerFailures)
	}
	// Custom timer window.
	// The sense task alone takes ~7.7 ms; 8–9 ms windows interrupt the
	// run but still let every task complete.
	cfg := TimerFailureConfig{
		OnMin: 8 * time.Millisecond, OnMax: 9 * time.Millisecond,
		OffMin: time.Millisecond, OffMax: 2 * time.Millisecond,
	}
	bench2, _ := NewTempBench()
	res2, err := Run(bench2.App, NewInK(), WithTimerFailures(cfg), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if res2.PowerFailures == 0 {
		t.Error("a ~10 ms app under 8-9 ms windows must fail at least once")
	}
}

func TestRunRFHarvester(t *testing.T) {
	bench, err := NewFIRBench(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bench.App, NewEaseIO(), WithRFHarvester(52))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Error("FIR incorrect under EaseIO")
	}
}

func TestPrebuiltBenches(t *testing.T) {
	builders := map[string]func() (*Bench, error){
		"dma":     NewDMABench,
		"temp":    NewTempBench,
		"lea":     NewLEABench,
		"fir":     func() (*Bench, error) { return NewFIRBench(true) },
		"weather": func() (*Bench, error) { return NewWeatherBench(true) },
		"branch":  NewBranchBench,
	}
	for name, build := range builders {
		b, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Run(b.App, NewEaseIO(), WithSeed(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: incorrect under EaseIO", name)
		}
	}
}

func TestReadVarThroughPublicAPI(t *testing.T) {
	app := NewApp("rv")
	v := app.NVInt("v")
	app.AddTask("t", func(e Exec) {
		e.Store(v, 77)
		e.Done()
	})
	for _, rt := range []Runtime{NewEaseIO(), NewAlpaca(), NewInK()} {
		app2 := NewApp("rv")
		v2 := app2.NVInt("v")
		app2.AddTask("t", func(e Exec) {
			e.Store(v2, 77)
			e.Done()
		})
		if _, err := Run(app2, rt, WithContinuousPower()); err != nil {
			t.Fatal(err)
		}
		if got := ReadVar(rt, v2, 0); got != 77 {
			t.Errorf("%s: ReadVar = %d", rt.Name(), got)
		}
	}
	_ = v
}

// singleFlightApp builds a fresh, unanalyzed app with an I/O block, a
// looped site, a dependent DMA and a WAR variable, so every part of the
// front-end's output is written on the shared blueprint when it is
// analyzed. Its I/O functions are pure, so concurrent runs share nothing
// but the blueprint.
func singleFlightApp() *App {
	app := NewApp("single-flight")
	src := app.NVBuf("src", 8).WithInit([]uint16{1, 2, 3, 4, 5, 6, 7, 8})
	dst := app.NVBuf("dst", 8)
	acc := app.NVInt("acc")
	probe := app.IO("probe", Single, true, func(e Exec, idx int) uint16 {
		e.Compute(500)
		return uint16(7 + idx)
	}).Loop(3)
	ping := app.IO("ping", Always, false, func(e Exec, _ int) uint16 { e.Compute(200); return 0 })
	blk := app.Block("sense", Single)
	cp := app.DMA("copy").AfterIO(probe)
	var fin *Task
	app.AddTask("main", func(e Exec) {
		e.IOBlock(blk, func() {
			for i := 0; i < 3; i++ {
				e.Store(acc, e.Load(acc)+e.CallIOAt(probe, i))
			}
		})
		e.CallIO(ping)
		e.DMACopy(cp, VarLoc(src, 0), VarLoc(dst, 0), 8)
		e.Compute(3000)
		e.Next(fin)
	})
	fin = app.AddTask("fin", func(e Exec) { e.Done() })
	return app
}

// TestConcurrentSessionsSingleFlight is the -race regression for the
// analysis gate: goroutines opening sessions, calling Analyze and calling
// Lint on the same unanalyzed app must funnel through exactly one
// front-end pass (which mutates the shared blueprint), then run
// concurrently on private devices with identical results.
func TestConcurrentSessionsSingleFlight(t *testing.T) {
	app := singleFlightApp()
	const sessions, analyzers, linters = 8, 2, 2
	results := make([]*Result, sessions)
	findings := make([][]LintFinding, linters)
	errs := make(chan error, sessions+analyzers+linters)
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess, err := NewSession(app, NewEaseIO())
			if err == nil {
				results[g], err = sess.Run(42)
			}
			errs <- err
		}(g)
	}
	for g := 0; g < analyzers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- Analyze(app)
		}()
	}
	for g := 0; g < linters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var err error
			findings[g], err = Lint(app, DefaultLintConfig())
			errs <- err
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for g := 1; g < sessions; g++ {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Errorf("session %d diverged from session 0 on the same seed", g)
		}
	}
	if !reflect.DeepEqual(findings[1], findings[0]) {
		t.Errorf("Lint findings differ between goroutines: %v vs %v", findings[0], findings[1])
	}
	// The serial result on a separately built app is the reference.
	want, err := Run(singleFlightApp(), NewEaseIO(), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[0], want) {
		t.Error("concurrent session result differs from a serial run on a fresh app")
	}
}

// TestConcurrentSessionsShareBuiltApp is the -race regression for
// sharing one built, analyzed app between sessions: two kernel.Sessions
// of one weather app instance (its sensors, radio and camera included)
// run EaseIO concurrently, and every run must match the same seed run
// serially on a separately built app.
func TestConcurrentSessionsShareBuiltApp(t *testing.T) {
	build := func() *apps.Bench {
		bench, err := apps.NewWeatherApp(apps.DefaultWeatherConfig())
		if err != nil {
			t.Fatal(err)
		}
		return bench
	}
	const sessions, seeds = 2, 4
	shared := build()
	got := make([][]*stats.Run, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for g := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := kernel.NewSession(experiments.NewRuntime(experiments.EaseIO), shared.App, experiments.TimerSupply())
			for seed := int64(1); seed <= seeds; seed++ {
				run, err := sess.Run(seed)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], run.Clone())
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ref := kernel.NewSession(experiments.NewRuntime(experiments.EaseIO), build().App, experiments.TimerSupply())
	for seed := int64(1); seed <= seeds; seed++ {
		want, err := ref.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		for g := range sessions {
			if !reflect.DeepEqual(got[g][seed-1], want) {
				t.Errorf("session %d seed %d: run differs from a serial run on a fresh app:\n got %+v\nwant %+v",
					g, seed, got[g][seed-1], want)
			}
		}
	}
}

// opaqueRuntime hides the underlying runtime's Device method: the
// embedded interface promotes only kernel.Hooks, so the wrapper behaves
// like a custom runtime that never opted into DeviceHolder.
type opaqueRuntime struct{ Runtime }

// TestReadVarWithoutDeviceHolder checks the post-run inspection helpers
// degrade gracefully for runtimes outside the rtbase family: no panic,
// just a zero word and a false ok.
func TestReadVarWithoutDeviceHolder(t *testing.T) {
	bench, err := NewDMABench()
	if err != nil {
		t.Fatal(err)
	}
	rt := opaqueRuntime{NewEaseIO()}
	if _, ok := any(rt).(DeviceHolder); ok {
		t.Fatal("test wrapper unexpectedly satisfies DeviceHolder")
	}
	if _, err := Run(bench.App, rt, WithSeed(3)); err != nil {
		t.Fatal(err)
	}
	v := bench.App.Vars[0]
	if got := ReadVar(rt, v, 0); got != 0 {
		t.Errorf("ReadVar through an opaque runtime = %d, want 0", got)
	}
	if _, ok := ReadVarOK(rt, v, 0); ok {
		t.Error("ReadVarOK must report false for a runtime without DeviceHolder")
	}
	// An unattached holder runtime is equally safe: nil device, ok=false.
	if _, ok := ReadVarOK(NewAlpaca(), v, 0); ok {
		t.Error("ReadVarOK must report false before any run attaches a device")
	}
}

// TestSweepFacade drives the multi-seed sweep through the public
// surface: full sweep with progress, then a mid-flight cancellation.
func TestSweepFacade(t *testing.T) {
	var peak atomic.Int64
	cfg := SweepConfig{Runs: 12, BaseSeed: 1, Workers: 3,
		OnProgress: func(done, total int) {
			if total != 12 {
				t.Errorf("progress total = %d", total)
			}
			for {
				cur := peak.Load()
				if int64(done) <= cur || peak.CompareAndSwap(cur, int64(done)) {
					break
				}
			}
		}}
	sum, err := Sweep(context.Background(), NewDMABench, EaseIOKind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 12 || sum.CorrectRuns != 12 {
		t.Errorf("sweep summary: %d runs, %d correct", sum.Runs, sum.CorrectRuns)
	}
	if peak.Load() != 12 {
		t.Errorf("progress peaked at %d, want 12", peak.Load())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := SweepConfig{Runs: 1000, BaseSeed: 1, Workers: 1,
		OnProgress: func(done, total int) {
			if done == 2 {
				cancel()
			}
		}}
	part, err := Sweep(ctx, NewDMABench, EaseIOKind, cancelled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep err = %v", err)
	}
	if part.Runs != 2 {
		t.Errorf("cancelled sweep ran %d seeds, want exactly 2", part.Runs)
	}

	if k, err := ParseRuntimeKind("justdo"); err != nil || k != JustDoKind {
		t.Errorf("ParseRuntimeKind = %v, %v", k, err)
	}
}

// TestEaseIOBeatsBaselinesOnWastedWork is the headline regression: over a
// seed sweep, EaseIO must waste significantly less work than Alpaca on
// the Single-semantics benchmark.
func TestEaseIOBeatsBaselinesOnWastedWork(t *testing.T) {
	var easeWasted, alpacaWasted time.Duration
	for seed := int64(1); seed <= 40; seed++ {
		be, _ := NewDMABench()
		re, err := Run(be.App, NewEaseIO(), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		easeWasted += re.Work[stats.Wasted].T

		ba, _ := NewDMABench()
		ra, err := Run(ba.App, NewAlpaca(), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		alpacaWasted += ra.Work[stats.Wasted].T
	}
	if easeWasted*2 > alpacaWasted {
		t.Errorf("EaseIO wasted %v vs Alpaca %v; expected at least a 2× reduction",
			easeWasted, alpacaWasted)
	}
}

func TestTracerAndGanttThroughFacade(t *testing.T) {
	bench, err := NewTempBench()
	if err != nil {
		t.Fatal(err)
	}
	buf := &TraceBuffer{}
	if _, err := Run(bench.App, NewEaseIO(), WithSeed(5), WithTracer(buf)); err != nil {
		t.Fatal(err)
	}
	if len(buf.Events) == 0 {
		t.Fatal("no trace events")
	}
	var sb strings.Builder
	RenderGantt(buf, 60, &sb)
	if !strings.Contains(sb.String(), "power") {
		t.Error("gantt rendering broken")
	}
	// WithTrace streams to a writer.
	var stream strings.Builder
	bench2, _ := NewTempBench()
	if _, err := Run(bench2.App, NewEaseIO(), WithSeed(5), WithTrace(&stream)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stream.String(), "task-begin") {
		t.Error("trace stream missing events")
	}
}

func TestJustDoThroughFacade(t *testing.T) {
	bench, err := NewDMABench()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewJustDo()
	res, err := Run(bench.App, rt, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Error("JustDo incorrect on the DMA benchmark")
	}
	if res.Runtime != "JustDo" {
		t.Errorf("runtime label = %q", res.Runtime)
	}
	v := bench.App.Vars[2] // checksum
	_ = ReadVar(rt, v, 0)  // must not panic for justdo runtimes
}

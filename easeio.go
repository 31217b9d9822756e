// Package easeio is a faithful, executable reproduction of "Efficient and
// Safe I/O Operations for Intermittent Systems" (Yildiz et al., EuroSys
// 2023) as a Go library.
//
// The package simulates an MSP430FR5994-class batteryless device —
// FRAM/SRAM/LEA-RAM memory, a capacitor fed by an energy harvester, a
// persistent timekeeper, sensors, a radio, a camera, a DMA engine and the
// LEA vector accelerator — and runs task-based intermittent applications
// on it under three runtimes: the Alpaca and InK baselines and EaseIO,
// the paper's contribution. EaseIO adds programmer-annotated I/O
// re-execution semantics (Single, Timely, Always), atomic I/O blocks with
// semantic precedence, memory-safe DMA with runtime classification and
// two-phase privatization, and regional privatization of non-volatile
// state.
//
// # Quick start
//
//	app := easeio.NewApp("hello")
//	sensors := easeio.NewPeripherals(1)
//	temp := app.TimelyIO("Temp", 10*time.Millisecond, true,
//		func(e easeio.Exec, _ int) uint16 { return sensors.Temp.Sample(e) })
//	reading := app.NVInt("reading")
//	var done *easeio.Task
//	app.AddTask("sense", func(e easeio.Exec) {
//		e.Store(reading, e.CallIO(temp))
//		e.Next(done)
//	})
//	done = app.AddTask("done", func(e easeio.Exec) { e.Done() })
//
//	res, err := easeio.Run(app, easeio.NewEaseIO(), easeio.WithSeed(42))
//
// Run analyzes the application with the compiler front-end, attaches it to
// a fresh simulated device, executes it under emulated power failures and
// returns the run's statistics. See the examples directory for complete
// programs and cmd/easeio-bench for the harness that regenerates every
// table and figure of the paper.
package easeio

import (
	"context"
	"io"

	"easeio/internal/alpaca"
	"easeio/internal/apps"
	"easeio/internal/check"
	"easeio/internal/core"
	"easeio/internal/energy"
	"easeio/internal/experiments"
	"easeio/internal/frontend"
	"easeio/internal/ink"
	"easeio/internal/justdo"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/periph"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
	"easeio/internal/units"
)

// Blueprint types, re-exported from the internal task package.
type (
	// App is an application blueprint: tasks, task-shared variables, I/O
	// sites, I/O blocks and DMA sites.
	App = task.App
	// Task is one atomic, all-or-nothing unit of execution.
	Task = task.Task
	// Exec is the execution surface task bodies program against.
	Exec = task.Exec
	// NVVar is a task-shared non-volatile variable.
	NVVar = task.NVVar
	// IOSite is a _call_IO site with a re-execution semantic.
	IOSite = task.IOSite
	// IOBlock is an atomic group of I/O operations.
	IOBlock = task.IOBlock
	// DMASite is a _DMA_copy site.
	DMASite = task.DMASite
	// Loc is a DMA endpoint (variable range or raw volatile address).
	Loc = task.Loc
	// Semantic is an I/O re-execution semantic.
	Semantic = task.Semantic
	// CheckMem is the final-memory read surface App.CheckOutput verifies.
	CheckMem = task.CheckMem
)

// Re-execution semantics (§3.1 of the paper).
const (
	Always = task.Always
	Single = task.Single
	Timely = task.Timely
)

// NewApp returns an empty application blueprint.
func NewApp(name string) *App { return task.NewApp(name) }

// VarLoc returns a DMA endpoint at word off of variable v.
func VarLoc(v *NVVar, off int) Loc { return task.VarLoc(v, off) }

// LEALoc returns a DMA endpoint in the volatile LEA-RAM.
func LEALoc(off int) Loc { return task.RawLoc(uint8(mem.LEARAM), off) }

// Peripherals bundles the simulated sensor/radio/camera set.
type Peripherals = periph.Set

// NewPeripherals returns the standard peripheral set, seeded.
func NewPeripherals(seed uint64) *Peripherals { return periph.StandardSet(seed) }

// Runtime is a task-based intermittent runtime attached to the engine.
type Runtime = kernel.Hooks

// NewEaseIO returns the EaseIO runtime with the paper's configuration.
func NewEaseIO() Runtime { return core.New() }

// NewAlpaca returns the Alpaca baseline runtime.
func NewAlpaca() Runtime { return alpaca.New() }

// NewInK returns the InK baseline runtime.
func NewInK() Runtime { return ink.New() }

// NewJustDo returns the JustDo-style logging runtime — the
// checkpointing-family comparator the paper discusses in §2 and §7.2
// (resume-from-instruction, per-operation logging overhead).
func NewJustDo() Runtime { return justdo.New() }

// Result is the statistics record of one run.
type Result = stats.Run

// Supply models the device's power source.
type Supply = power.Supply

// TimerFailureConfig parameterizes the emulated soft-reset failures.
type TimerFailureConfig = power.TimerConfig

// Energy is an amount of energy in picojoules.
type Energy = units.Energy

// Analyze runs the compiler front-end over the application, computing the
// per-task metadata (I/O sites, WAR sets, DMA regions) the runtimes
// consume. It runs at most once per app, however many goroutines call it,
// Run, NewSession or Lint concurrently; an app whose tasks already carry
// metadata is left as is. Run calls it automatically; call it directly to
// inspect the metadata.
func Analyze(app *App) error { return frontend.Analyze(app) }

// Options configures a simulation run.
type Options struct {
	seed   int64
	supply Supply
	tracer kernel.Tracer
}

// Option mutates run options.
type Option func(*Options)

// WithSeed sets the run's random seed (failure times and sensor noise).
func WithSeed(seed int64) Option { return func(o *Options) { o.seed = seed } }

// WithSupply installs a custom power supply.
func WithSupply(s Supply) Option { return func(o *Options) { o.supply = s } }

// WithContinuousPower disables power failures (the golden configuration).
func WithContinuousPower() Option {
	return WithSupply(power.Continuous{})
}

// WithTimerFailures installs the paper's soft-reset emulation with the
// given on/off intervals.
func WithTimerFailures(cfg TimerFailureConfig) Option {
	return WithSupply(power.NewTimer(cfg))
}

// WithRFHarvester installs an energy-driven supply charged by an RF
// transmitter at the given distance in inches (the §5.5 setup). The
// path-loss curve is anchored at 52 inches, the closest distance of
// Figure 13.
func WithRFHarvester(distanceInches float64) Option {
	return WithSupply(power.NewHarvested(energy.DefaultRF(distanceInches)))
}

// Run executes the application under the runtime on a fresh simulated
// device — a new session's first run. Without options it uses the
// paper's timer-driven power-failure emulation and seed 0. The
// application is analyzed by the compiler front-end if it has not been
// already.
func Run(app *App, rt Runtime, opts ...Option) (*Result, error) {
	o := newOptions(opts)
	s, err := newSession(app, rt, o)
	if err != nil {
		return nil, err
	}
	return s.Run(o.seed)
}

// Session runs one application under one runtime instance many times,
// reusing the simulated device between runs: the app is the analyzed
// blueprint, the session holds the per-run instance state. Compared to
// calling Run in a loop, a session skips re-analysis, re-allocation and
// re-attachment for every seed — the engine behind the experiment
// harness's sweeps.
type Session struct {
	s *kernel.Session
}

// NewSession creates a session for app under rt. The app is analyzed by
// the compiler front-end if it has not been already. Seed-independent
// options (supply, tracer) apply to every run; WithSeed is ignored — the
// seed is per-run, passed to Session.Run.
func NewSession(app *App, rt Runtime, opts ...Option) (*Session, error) {
	return newSession(app, rt, newOptions(opts))
}

// newOptions applies opts over the defaults: the paper's timer-driven
// emulation and seed 0.
func newOptions(opts []Option) Options {
	o := Options{}
	for _, opt := range opts {
		opt(&o)
	}
	if o.supply == nil {
		o.supply = power.NewTimer(power.DefaultTimerConfig())
	}
	return o
}

// newSession analyzes app and builds its session under o's supply and
// tracer.
func newSession(app *App, rt Runtime, o Options) (*Session, error) {
	if err := frontend.Analyze(app); err != nil {
		return nil, err
	}
	s := kernel.NewSession(rt, app, o.supply)
	s.Tracer = o.tracer
	return &Session{s: s}, nil
}

// Run executes the application once with the given seed and returns the
// run's statistics. The returned record is reused (reset in place) by the
// next Run on this session — read it or Clone it before running again.
func (s *Session) Run(seed int64) (*Result, error) { return s.s.Run(seed) }

// DeviceHolder is implemented by runtimes that expose the simulated
// device they are attached to. All four built-in runtimes satisfy it
// through rtbase.Base; a custom runtime embedding Base inherits it for
// free, and one that does not can implement the single method itself to
// opt into ReadVar-style post-run inspection.
type DeviceHolder interface {
	Device() *kernel.Device
}

// ReadVar reads word i of a variable's committed master copy through a
// runtime that has completed a run — the "logic analyzer" view of final
// non-volatile memory. It returns false if the runtime does not implement
// DeviceHolder or has not been attached to a device yet.
func ReadVarOK(rt Runtime, v *NVVar, i int) (uint16, bool) {
	m := memOf(rt)
	if m == nil {
		return 0, false
	}
	a := rt.AddrOf(v)
	return m.Read(a.Add(i)), true
}

// ReadVar is ReadVarOK without the ok flag: it reads word i of a
// variable's committed master copy, or returns 0 for a runtime that does
// not expose its device (it never panics — custom runtimes are safe).
func ReadVar(rt Runtime, v *NVVar, i int) uint16 {
	w, _ := ReadVarOK(rt, v, i)
	return w
}

// memOf recovers the device memory from an attached runtime, or nil when
// the runtime does not implement DeviceHolder or is not attached.
func memOf(rt Runtime) *mem.Memory {
	h, ok := rt.(DeviceHolder)
	if !ok {
		return nil
	}
	dev := h.Device()
	if dev == nil {
		return nil
	}
	return dev.Mem
}

// Prebuilt benchmark applications of the paper's evaluation.

// Bench couples an analyzed application with its peripheral set.
type Bench = apps.Bench

// NewDMABench returns the Single-semantics uni-task benchmark (Fig 7a).
func NewDMABench() (*Bench, error) { return apps.NewDMAApp(apps.DefaultDMAConfig()) }

// NewTempBench returns the Timely-semantics uni-task benchmark (Fig 7b).
func NewTempBench() (*Bench, error) { return apps.NewTempApp(apps.DefaultTempConfig()) }

// NewLEABench returns the Always-semantics uni-task benchmark (Fig 7c).
func NewLEABench() (*Bench, error) { return apps.NewLEAApp(apps.DefaultLEAConfig()) }

// NewFIRBench returns the FIR filter benchmark (Figs 10–12). excludeCoef
// applies the paper's Exclude annotation to the coefficient DMA
// ("EaseIO/Op.").
func NewFIRBench(excludeCoef bool) (*Bench, error) {
	cfg := apps.DefaultFIRConfig()
	cfg.ExcludeCoef = excludeCoef
	return apps.NewFIRApp(cfg)
}

// NewWeatherBench returns the 11-task DNN weather classifier (Fig 9,
// Table 5). doubleBuffer selects the conventional double-buffered DNN.
func NewWeatherBench(doubleBuffer bool) (*Bench, error) {
	cfg := apps.DefaultWeatherConfig()
	if doubleBuffer {
		cfg.Buffers = apps.DoubleBuffer
	}
	return apps.NewWeatherApp(cfg)
}

// NewBranchBench returns the unsafe-program-execution scenario of
// Figure 2c: a sensor-dependent branch writing different non-volatile
// flags.
func NewBranchBench() (*Bench, error) {
	return apps.NewBranchApp(apps.DefaultBranchConfig())
}

// WithTrace streams the execution timeline (boots, power failures, task
// attempts, I/O and DMA decisions, regional privatization) to w.
func WithTrace(w io.Writer) Option {
	return func(o *Options) { o.tracer = kernel.TraceWriter{W: w} }
}

// WithTracer installs a custom trace sink.
func WithTracer(t Tracer) Option {
	return func(o *Options) { o.tracer = t }
}

// Tracer receives execution timeline events (see TraceBuffer).
type Tracer = kernel.Tracer

// TraceBuffer retains timeline events in memory for inspection.
type TraceBuffer = kernel.TraceBuffer

// TraceEvent is one timeline entry of a traced run.
type TraceEvent = kernel.TraceEvent

// EventKind classifies a trace event (see the kernel package's event
// taxonomy and DESIGN.md §12).
type EventKind = kernel.EventKind

// The event taxonomy: power edges, task lifecycle, I/O and DMA decisions,
// regional privatization.
const (
	EvBoot            = kernel.EvBoot
	EvPowerFailure    = kernel.EvPowerFailure
	EvRecharge        = kernel.EvRecharge
	EvTaskBegin       = kernel.EvTaskBegin
	EvTaskCommit      = kernel.EvTaskCommit
	EvTaskAbort       = kernel.EvTaskAbort
	EvIOExec          = kernel.EvIOExec
	EvIOSkip          = kernel.EvIOSkip
	EvDMAClass        = kernel.EvDMAClass
	EvDMAExec         = kernel.EvDMAExec
	EvDMASkip         = kernel.EvDMASkip
	EvBlockSkip       = kernel.EvBlockSkip
	EvBlockViolation  = kernel.EvBlockViolation
	EvRegionPrivatize = kernel.EvRegionPrivatize
	EvRegionRestore   = kernel.EvRegionRestore
)

// WriteChromeTrace renders a traced run as Chrome trace_event JSON,
// loadable in chrome://tracing and Perfetto (https://ui.perfetto.dev):
// power on/off spans, task attempts with their commit/abort outcome, and
// every I/O, DMA, block and region decision as instant events.
func WriteChromeTrace(buf *TraceBuffer, w io.Writer) error {
	return kernel.ExportChromeTrace(buf, w)
}

// Lint runs the compiler front-end's static checks over the application:
// unsafe Exclude annotations, privatization-buffer sizing (the §6
// compile-time check), and dead-annotation warnings.
func Lint(app *App, cfg LintConfig) ([]LintFinding, error) {
	return frontend.Lint(app, cfg)
}

// LintConfig parameterizes the static checks.
type LintConfig = frontend.LintConfig

// LintFinding is one diagnostic.
type LintFinding = frontend.Finding

// DefaultLintConfig checks against the paper's 4 KB privatization buffer.
func DefaultLintConfig() LintConfig {
	return LintConfig{PrivBufWords: core.PrivBufWords}
}

// RenderGantt draws an ASCII timeline of a traced run (power lane plus a
// lane per task) to w; width is the chart width in character cells.
func RenderGantt(buf *TraceBuffer, width int, w io.Writer) {
	kernel.RenderGantt(buf, width, w)
}

// Multi-seed sweeps: the facade over the experiment harness's pooled
// sweep engine, the same path cmd/easeio-served jobs execute on.

// Summary is the aggregate of many seeded runs.
type Summary = stats.Summary

// RuntimeKind names one of the compared runtimes for a sweep.
type RuntimeKind = experiments.RuntimeKind

// The sweep runtimes. JustDoKind is the checkpointing-family logging
// comparator. The paper's "EaseIO/Op." is EaseIOKind on an app built
// with its Exclude annotations enabled.
const (
	AlpacaKind = experiments.Alpaca
	InKKind    = experiments.InK
	EaseIOKind = experiments.EaseIO
	JustDoKind = experiments.JustDo
)

// ParseRuntimeKind maps a runtime name ("Alpaca", "InK", "EaseIO",
// "JustDo") to its kind, case-insensitively.
func ParseRuntimeKind(s string) (RuntimeKind, error) {
	return experiments.ParseRuntimeKind(s)
}

// SweepConfig parameterizes a multi-seed sweep.
type SweepConfig struct {
	// Runs is the number of seeded executions (defaults to 1000, the
	// paper's count).
	Runs int
	// BaseSeed offsets the per-run seeds (seed = BaseSeed + run index).
	BaseSeed int64
	// Workers bounds parallel simulation (defaults to GOMAXPROCS). The
	// Summary is worker-count-invariant.
	Workers int
	// OnProgress, when non-nil, is invoked after every finished seed with
	// the cumulative finished count and the total; it may be called from
	// any worker goroutine.
	OnProgress func(done, total int)
	// Timings, when non-nil, accumulates the sweep's host-side stage
	// timings (build vs. run vs. wall).
	Timings *SweepTimings
}

// SweepTimings breaks a sweep's host wall-clock cost into stages.
type SweepTimings = experiments.StageTimings

// Sweep executes many seeded runs of the bench the factory builds under
// the given runtime kind and aggregates them, sharding seeds over a pool
// of reused devices. Cancelling ctx stops the sweep within one seed
// boundary per worker; the returned Summary then covers the runs that
// finished, and the error wraps ctx's error.
func Sweep(ctx context.Context, newBench func() (*Bench, error), kind RuntimeKind, cfg SweepConfig) (Summary, error) {
	ecfg := experiments.Config{
		Runs:     cfg.Runs,
		BaseSeed: cfg.BaseSeed,
		Workers:  cfg.Workers,
		Progress: cfg.OnProgress,
		Timings:  cfg.Timings,
	}
	return experiments.RunManyCtx(ctx, ecfg, newBench, kind)
}

// Failure-point model checking: the facade over internal/check, the same
// engine behind cmd/easeio-check and the service's check jobs.

// CheckConfig parameterizes a failure-point check.
type CheckConfig = check.Config

// CheckReport is the deterministic result of one check: golden baseline,
// exploration counts, every divergence and the minimal failing schedule.
type CheckReport = check.Report

// CheckDivergence is one failure point whose replay did not match the
// golden continuous-power run.
type CheckDivergence = check.Divergence

// Check model-checks one bench×runtime combination for crash consistency:
// it enumerates every charge-slice boundary of a golden continuous-power
// run, replays the app with up to cfg.Failures power failures (depth k,
// default 1) injected at each explored boundary — each later failure on
// the previous one's recovery trajectory — and differentially compares
// final non-volatile memory, the CheckOutput verdict and the work ledger
// against golden. Set cfg.Exhaustive to replay every candidate; the
// default explores an adaptive bisection grid. Cancelling ctx stops
// exploration and returns the partial report alongside ctx's error.
func Check(ctx context.Context, newBench func() (*Bench, error), kind RuntimeKind, cfg CheckConfig) (*CheckReport, error) {
	return check.Run(ctx, experiments.AppFactory(newBench), kind, cfg)
}

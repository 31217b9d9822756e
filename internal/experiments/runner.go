// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment has one entry point returning a
// structured result plus a text renderer that prints the same rows or
// series the paper reports.
//
// All experiments follow the paper's methodology: each configuration is
// executed Runs times with pseudo-random seeds (the paper uses 1000,
// §5.3) under the timer-driven power-failure emulation, and the results
// are averaged (Figures) or summed (Table 4 counts).
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"easeio/internal/alpaca"
	"easeio/internal/apps"
	"easeio/internal/core"
	"easeio/internal/ink"
	"easeio/internal/justdo"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/stats"
)

// RuntimeKind selects one of the compared runtimes.
type RuntimeKind int

// The compared runtimes. JustDo is the checkpointing-family comparator
// (§2, §7.2) used by the loggers experiment and the failure-point
// checker. The paper's "EaseIO/Op." is not a runtime: it is EaseIO on an
// app built with its Exclude annotations enabled (see OpConfig).
const (
	Alpaca RuntimeKind = iota
	InK
	EaseIO
	JustDo
)

// String names the runtime as the paper's figures do.
func (k RuntimeKind) String() string {
	switch k {
	case Alpaca:
		return "Alpaca"
	case InK:
		return "InK"
	case EaseIO:
		return "EaseIO"
	case JustDo:
		return "JustDo"
	default:
		return fmt.Sprintf("RuntimeKind(%d)", int(k))
	}
}

// ParseRuntimeKind maps a runtime name ("Alpaca", "InK", "EaseIO",
// "JustDo") to its RuntimeKind, case-insensitively.
func ParseRuntimeKind(s string) (RuntimeKind, error) {
	switch strings.ToLower(s) {
	case "alpaca":
		return Alpaca, nil
	case "ink":
		return InK, nil
	case "easeio":
		return EaseIO, nil
	case "justdo":
		return JustDo, nil
	default:
		return 0, fmt.Errorf("experiments: unknown runtime %q (want Alpaca, InK, EaseIO or JustDo)", s)
	}
}

// NewRuntime instantiates a fresh runtime of the given kind.
func NewRuntime(k RuntimeKind) kernel.Hooks {
	switch k {
	case Alpaca:
		return alpaca.New()
	case InK:
		return ink.New()
	case EaseIO:
		return core.New()
	case JustDo:
		return justdo.New()
	default:
		panic(fmt.Sprintf("experiments: unknown runtime %d", int(k)))
	}
}

// AppFactory builds a fresh application instance for one run.
type AppFactory func() (*apps.Bench, error)

// SupplyFactory builds a fresh power supply for one run.
type SupplyFactory func() power.Supply

// TimerSupply is the default supply factory: the paper's [5 ms, 20 ms]
// soft-reset emulation.
func TimerSupply() power.Supply { return power.NewTimer(power.DefaultTimerConfig()) }

// Config controls an experiment sweep.
type Config struct {
	// Runs is the number of seeded executions per configuration.
	Runs int
	// BaseSeed offsets the per-run seeds (seed = BaseSeed + run index).
	BaseSeed int64
	// Supply builds the power supply (defaults to TimerSupply).
	Supply SupplyFactory
	// Workers bounds parallel simulation (defaults to GOMAXPROCS).
	Workers int
	// Progress, when non-nil, is invoked after every finished seed
	// (committed or failed) with the cumulative count of finished runs
	// and the sweep total. It is called from worker goroutines — the
	// callback must be safe for concurrent use. Progress never changes
	// the sweep's Summary; it only observes it being built.
	Progress func(done, total int)
	// Timings, when non-nil, accumulates the sweep's stage timings (+=,
	// so one StageTimings can total several sequential sweeps). It is
	// written once per sweep after the workers join; do not share it
	// between concurrent sweeps.
	Timings *StageTimings
}

// StageTimings breaks a sweep's host wall-clock cost into stages: where
// the time went, diagnosable from artifacts instead of reruns.
type StageTimings struct {
	// Build is the per-worker setup cost (app factory, analysis, session
	// construction), summed across workers.
	Build time.Duration
	// Run is the simulation cost (seeded runs), summed across workers.
	Run time.Duration
	// Wall is the end-to-end elapsed time of the sweep call.
	Wall time.Duration
}

// String renders the breakdown on one line.
func (t StageTimings) String() string {
	return fmt.Sprintf("wall=%v build=%v run=%v",
		t.Wall.Round(time.Millisecond), t.Build.Round(time.Millisecond),
		t.Run.Round(time.Millisecond))
}

// DefaultConfig matches the paper's 1000-run sweeps.
func DefaultConfig() Config { return Config{Runs: 1000, BaseSeed: 1} }

func (c Config) fill() Config {
	if c.Runs <= 0 {
		c.Runs = 1000
	}
	if c.Supply == nil {
		c.Supply = TimerSupply
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// GoldenTime returns the continuous-power execution time of the app under
// the runtime — the pure application + overhead baseline: a one-run,
// seed-0 sweep.
func GoldenTime(newApp AppFactory, kind RuntimeKind) (stats.Summary, error) {
	return RunMany(Config{Runs: 1, Supply: func() power.Supply { return power.Continuous{} }, Workers: 1},
		newApp, kind)
}

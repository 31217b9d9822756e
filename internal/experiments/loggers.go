// Logging-vs-task-based comparison (extension grounded in the paper's §2
// and §7.2): JustDo-style resume-from-instruction logging against Alpaca
// and EaseIO on the uni-task benchmarks, under continuous power and under
// the emulated failures.
//
// The point the paper makes by argument, demonstrated by measurement:
// logging wastes almost nothing when power fails but pays per-operation
// overhead on every execution, so its continuous-power baseline is the
// worst of the field — the wrong trade for energy-scarce devices whose
// first constraint is the per-charge budget.

package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"easeio/internal/apps"
	"easeio/internal/frontend"
	"easeio/internal/justdo"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
)

// LoggerRow is one (app, runtime) comparison entry.
type LoggerRow struct {
	App, Runtime string
	// Cont is the continuous-power execution time (steady-state cost).
	Cont time.Duration
	// Int is the mean intermittent execution time.
	Int time.Duration
	// Overhead and Wasted are the mean intermittent work splits.
	Overhead, Wasted time.Duration
	// Repeats counts redundant re-executions summed over the runs.
	Repeats int
}

// storeDenseApp builds a workload dominated by fine-grained non-volatile
// reads and writes — a sort over an NV buffer — where JustDo's
// per-operation logging dominates. The paper's benchmarks are I/O-bound
// with few, large operations, which flatters logging; real sensing
// applications also filter, sort and aggregate in place.
func storeDenseApp() (*apps.Bench, error) {
	a := task.NewApp("store-dense")
	const n = 48
	init := make([]uint16, n)
	for i := range init {
		init[i] = uint16((i * 37) % 101)
	}
	buf := a.NVBuf("buf", n).WithInit(init)
	var fin *task.Task
	// Selection sort: O(n²) loads, O(n) stores, all non-volatile.
	a.AddTask("sort", func(e task.Exec) {
		for i := 0; i < n-1; i++ {
			minIdx := i
			minVal := e.LoadAt(buf, i)
			for j := i + 1; j < n; j++ {
				if v := e.LoadAt(buf, j); v < minVal {
					minVal, minIdx = v, j
				}
			}
			if minIdx != i {
				e.StoreAt(buf, minIdx, e.LoadAt(buf, i))
				e.StoreAt(buf, i, minVal)
			}
			e.Compute(10)
		}
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })

	want := make([]int, n)
	for i, w := range init {
		want[i] = int(w)
	}
	sort.Ints(want)
	a.CheckOutput = func(m task.CheckMem) bool {
		for i := 0; i < n; i++ {
			if int(m.Read(buf, i)) != want[i] {
				return false
			}
		}
		return true
	}
	if err := frontend.Analyze(a); err != nil {
		return nil, err
	}
	return &apps.Bench{App: a}, nil
}

// Loggers runs the comparison over the three uni-task benchmarks plus the
// store-dense microbenchmark.
func Loggers(cfg Config) ([]LoggerRow, error) {
	cfg = cfg.fill()
	kinds := []struct {
		label string
		newRT func() kernel.Hooks
		kind  RuntimeKind
	}{
		{"Alpaca", nil, Alpaca},
		{"EaseIO", nil, EaseIO},
		{"JustDo", func() kernel.Hooks { return justdo.New() }, -1},
	}
	cases := UniTaskCases()
	cases = append(cases, UniTaskCase{Label: "Store-dense", New: storeDenseApp})
	var out []LoggerRow
	for _, c := range cases {
		for _, k := range kinds {
			var cont time.Duration
			var sum stats.Summary
			if k.newRT == nil {
				g, err := GoldenTime(c.New, k.kind)
				if err != nil {
					return nil, err
				}
				cont = g.MeanOnTime
				s, err := RunMany(cfg, c.New, k.kind)
				if err != nil {
					return nil, err
				}
				sum = s
			} else {
				var err error
				cont, sum, err = runCustom(cfg, c.New, k.newRT)
				if err != nil {
					return nil, err
				}
			}
			out = append(out, LoggerRow{
				App: c.Label, Runtime: k.label,
				Cont: cont, Int: sum.MeanTotalTime(),
				Overhead: sum.Work[stats.Overhead].T,
				Wasted:   sum.Work[stats.Wasted].T,
				Repeats:  sum.IORepeats + sum.DMARepeats,
			})
		}
	}
	return out, nil
}

// runCustom sweeps a runtime outside the RuntimeKind registry, reusing
// one session (device + runtime instance) across the seeds.
func runCustom(cfg Config, newApp AppFactory, newRT func() kernel.Hooks) (time.Duration, stats.Summary, error) {
	// Continuous baseline on its own runtime instance.
	bench, err := newApp()
	if err != nil {
		return 0, stats.Summary{}, err
	}
	gdev := kernel.NewDevice(power.Continuous{}, 0)
	if err := kernel.RunApp(gdev, newRT(), bench.App); err != nil {
		return 0, stats.Summary{}, err
	}
	cont := gdev.Clock.OnTime()

	bench, err = newApp()
	if err != nil {
		return 0, stats.Summary{}, err
	}
	rt := newRT()
	sess := kernel.NewSession(rt, bench.App, cfg.Supply())
	agg := stats.NewAggregator()
	var errs []error
	for i := 0; i < cfg.Runs; i++ {
		seed := cfg.BaseSeed + int64(i)
		run, err := sess.Run(seed)
		if err != nil {
			errs = append(errs, fmt.Errorf("experiments: %s on %s (seed %d): %w",
				bench.App.Name, rt.Name(), seed, err))
			continue
		}
		agg.Add(run)
	}
	return cont, agg.Summary(), errors.Join(errs...)
}

// RenderLoggers prints the comparison.
func RenderLoggers(rows []LoggerRow) string {
	header := []string{"App", "Runtime", "Cont (ms)", "Int (ms)",
		"Overhead (ms)", "Wasted (ms)", "Redundant re-exe"}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.App, r.Runtime, fmtMS(r.Cont), fmtMS(r.Int),
			fmtMS(r.Overhead), fmtMS(r.Wasted), fmt.Sprintf("%d", r.Repeats)}
	}
	var b strings.Builder
	b.WriteString("Logging vs task-based — JustDo resume-from-instruction comparator (§2, §7.2)\n")
	b.WriteString(Table(header, out))
	return b.String()
}

// LoggersDataset exports the comparison.
func LoggersDataset(rows []LoggerRow) Dataset {
	ds := Dataset{
		Name:  "loggers",
		Title: "Logging vs task-based comparison",
		Header: []string{"app", "runtime", "cont_ms", "int_ms", "overhead_ms",
			"wasted_ms", "redundant_reexecs"},
	}
	for _, r := range rows {
		ds.Rows = append(ds.Rows, []string{r.App, r.Runtime, fmtMS(r.Cont),
			fmtMS(r.Int), fmtMS(r.Overhead), fmtMS(r.Wasted), fmt.Sprintf("%d", r.Repeats)})
	}
	return ds
}

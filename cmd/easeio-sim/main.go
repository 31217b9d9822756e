// Command easeio-sim runs one benchmark application under one runtime and
// prints the full measurement record — a single-run view of what the
// bench harness aggregates.
//
// Usage:
//
//	easeio-sim [-app NAME] [-rt NAME] [-seed N] [-continuous]
//	           [-distance INCHES] [-trace out.json] [-timeline] [-gantt] [-lint]
//
// -app accepts the registered blueprint names (easeio-served's registry:
// dma, temp, sensor, lea, fir, fir-op, weather, weather-db, branch and
// fig6, the paper's Figure 6 WAR-via-DMA scenario). -rt accepts Alpaca,
// InK, EaseIO and JustDo, case-insensitively (the paper's "EaseIO/Op." is
// -app fir-op -rt easeio).
//
// -trace writes the run as Chrome trace_event JSON — open the file in
// chrome://tracing or https://ui.perfetto.dev to see power spans, task
// attempts and every I/O decision on a timeline. -timeline prints the
// same events as text lines; -gantt draws an ASCII chart.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"easeio"
	"easeio/internal/experiments"
	"easeio/internal/service"
	"easeio/internal/stats"
)

func main() {
	var (
		appName    = flag.String("app", "weather", "application: a registered blueprint name")
		rtName     = flag.String("rt", "easeio", "runtime: Alpaca, InK, EaseIO or JustDo (any case)")
		seed       = flag.Int64("seed", 1, "random seed")
		continuous = flag.Bool("continuous", false, "disable power failures")
		distance   = flag.Float64("distance", 0, "if > 0, use the RF harvester at this distance (inches)")
		trace      = flag.String("trace", "", "write the run as Chrome trace_event JSON to this file (\"-\" for stdout; open in Perfetto)")
		timeline   = flag.Bool("timeline", false, "print the execution timeline (boots, failures, I/O decisions)")
		gantt      = flag.Bool("gantt", false, "print an ASCII Gantt chart of the run")
		lint       = flag.Bool("lint", false, "run the front-end's static checks before executing")
	)
	flag.Parse()

	bench, rt, err := resolve(*appName, *rtName)
	fail(err)

	opts := []easeio.Option{easeio.WithSeed(*seed)}
	switch {
	case *continuous:
		opts = append(opts, easeio.WithContinuousPower())
	case *distance > 0:
		opts = append(opts, easeio.WithRFHarvester(*distance))
	}
	// One buffer serves every observer of the run's timeline.
	var buf *easeio.TraceBuffer
	if *gantt || *timeline || *trace != "" {
		buf = &easeio.TraceBuffer{}
		opts = append(opts, easeio.WithTracer(buf))
	}
	if *lint {
		findings, err := easeio.Lint(bench.App, easeio.DefaultLintConfig())
		fail(err)
		for _, f := range findings {
			fmt.Println("lint:", f)
		}
	}

	res, err := easeio.Run(bench.App, rt, opts...)
	fail(err)

	fmt.Printf("app=%s runtime=%s seed=%d\n", res.App, res.Runtime, res.Seed)
	fmt.Printf("execution time : %v on, %v wall (%d boots, %d power failures)\n",
		res.OnTime, res.WallTime, res.PowerFailures+1, res.PowerFailures)
	fmt.Printf("work breakdown : app=%v overhead=%v wasted=%v\n",
		res.Work[stats.App].T, res.Work[stats.Overhead].T, res.Work[stats.Wasted].T)
	fmt.Printf("energy         : %v total (app=%v overhead=%v wasted=%v)\n",
		res.TotalEnergy(), res.Work[stats.App].E, res.Work[stats.Overhead].E,
		res.Work[stats.Wasted].E)
	fmt.Printf("tasks          : %d attempts, %d commits\n", res.TaskAttempts, res.TaskCommits)
	fmt.Printf("I/O            : %d executed, %d redundant, %d skipped\n",
		res.IOExecs, res.IORepeats, res.IOSkips)
	fmt.Printf("DMA            : %d executed, %d redundant, %d skipped\n",
		res.DMAExecs, res.DMARepeats, res.DMASkips)
	fmt.Printf("output correct : %v\n", res.Correct)
	if *timeline && buf != nil {
		fmt.Println()
		buf.Dump(os.Stdout)
	}
	if *gantt && buf != nil {
		fmt.Println()
		easeio.RenderGantt(buf, 100, os.Stdout)
	}
	if *trace != "" && buf != nil {
		fail(writeTrace(*trace, buf))
	}
	if res.Stuck {
		fmt.Println("NOTE: the harvester could not recharge the capacitor; run abandoned")
	}
}

// writeTrace exports the buffered timeline as Chrome trace_event JSON to
// path ("-" streams to stdout).
func writeTrace(path string, buf *easeio.TraceBuffer) error {
	if path == "-" {
		return easeio.WriteChromeTrace(buf, os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := easeio.WriteChromeTrace(buf, f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("(wrote %s — open in chrome://tracing or https://ui.perfetto.dev)\n", path)
	return nil
}

// resolve builds the named app through the same registry easeio-served
// and easeio-check use and the named runtime through the experiment
// harness's runtime table.
func resolve(appName, rtName string) (*easeio.Bench, easeio.Runtime, error) {
	reg := service.NewRegistry()
	if err := service.RegisterBenches(reg); err != nil {
		return nil, nil, err
	}
	newApp, ok := reg.LookupFactory(appName)
	if !ok {
		return nil, nil, fmt.Errorf("unknown app %q (want one of %s)",
			appName, strings.Join(reg.Names(), ", "))
	}
	kind, err := experiments.ParseRuntimeKind(rtName)
	if err != nil {
		return nil, nil, err
	}
	bench, err := newApp()
	if err != nil {
		return nil, nil, err
	}
	return bench, experiments.NewRuntime(kind), nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "easeio-sim:", err)
		os.Exit(1)
	}
}

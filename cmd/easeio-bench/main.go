// Command easeio-bench regenerates the tables and figures of the EaseIO
// paper's evaluation (EuroSys 2023, §5) from the simulator.
//
// Usage:
//
//	easeio-bench [-exp all|table3|fig7|table4|fig8|fig10|fig11|fig12|table5|table6|fig13] [-runs N] [-seed S]
//
// Each experiment prints the same rows or series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured record. After the experiments
// a timing breakdown reports where the host's wall-clock time went, per
// experiment and — for sweep experiments — per engine stage (build vs.
// run), so performance regressions are diagnosable from run artifacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"easeio/internal/experiments"
)

// expTiming is one experiment's host-side cost record.
type expTiming struct {
	name   string
	wall   time.Duration
	stages experiments.StageTimings
}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment to run (all, table1, table3, fig7, table4, fig8, fig10, fig11, fig12, table5, table6, fig13, sensitivity, loggers, diurnal)")
		runs   = flag.Int("runs", 1000, "seeded runs per configuration (the paper uses 1000)")
		seed   = flag.Int64("seed", 1, "base seed")
		csvDir = flag.String("csv", "", "if set, also write <dir>/<experiment>.csv data files")
	)
	flag.Parse()
	if *runs <= 0 {
		fmt.Fprintf(os.Stderr, "easeio-bench: -runs needs a positive run count (got %d)\n", *runs)
		flag.Usage()
		os.Exit(2)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
	}
	writeCSV := func(ds experiments.Dataset) {
		if *csvDir == "" {
			return
		}
		path := filepath.Join(*csvDir, ds.Name+".csv")
		if err := os.WriteFile(path, []byte(ds.CSV()), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("(wrote %s)\n", path)
	}

	cfg := experiments.Config{Runs: *runs, BaseSeed: *seed}
	want := func(name string) bool { return *exp == "all" || *exp == name }
	start := time.Now()

	// timed brackets one experiment, recording its wall time and — when
	// the experiment threads stages through its Config — the engine's
	// stage breakdown.
	var timings []expTiming
	timed := func(name string, stages *experiments.StageTimings, f func()) {
		expStart := time.Now()
		f()
		et := expTiming{name: name, wall: time.Since(expStart)}
		if stages != nil {
			et.stages = *stages
		}
		timings = append(timings, et)
	}

	if want("table1") {
		timed("table1", nil, func() {
			fmt.Println(experiments.RenderTable1(experiments.Table1()))
		})
	}
	if want("table3") {
		timed("table3", nil, func() {
			rows, err := experiments.Table3()
			fail(err)
			fmt.Println(experiments.RenderTable3(rows))
		})
	}
	if want("fig7") || want("table4") || want("fig8") {
		ucfg := cfg
		ucfg.Timings = &experiments.StageTimings{}
		timed("unitask", ucfg.Timings, func() {
			uni, err := experiments.UniTask(ucfg)
			fail(err)
			if want("fig7") {
				fmt.Println(uni.RenderFigure7())
			}
			if want("table4") {
				fmt.Println(uni.RenderTable4())
			}
			if want("fig8") {
				fmt.Println(uni.RenderFigure8())
			}
			writeCSV(uni.Dataset())
		})
	}
	if want("fig10") || want("fig11") || want("fig12") {
		mcfg := cfg
		mcfg.Timings = &experiments.StageTimings{}
		timed("multitask", mcfg.Timings, func() {
			multi, err := experiments.MultiTask(mcfg)
			fail(err)
			if want("fig10") {
				fmt.Println(multi.RenderFigure10())
			}
			if want("fig11") {
				fmt.Println(multi.RenderFigure11())
			}
			if want("fig12") {
				fmt.Println(multi.RenderFigure12())
			}
			writeCSV(multi.Dataset())
		})
	}
	if want("table5") {
		t5cfg := cfg
		if *exp == "all" && t5cfg.Runs > 300 {
			t5cfg.Runs = 300 // 2 modes × 3 runtimes: keep "all" quick
		}
		t5cfg.Timings = &experiments.StageTimings{}
		timed("table5", t5cfg.Timings, func() {
			t5, err := experiments.Table5(t5cfg)
			fail(err)
			fmt.Println(t5.Render())
			writeCSV(t5.Dataset())
		})
	}
	if want("table6") {
		timed("table6", nil, func() {
			t6, err := experiments.Table6()
			fail(err)
			fmt.Println(t6.Render())
			writeCSV(t6.Dataset())
		})
	}
	if want("sensitivity") {
		scfg := experiments.DefaultSensitivityConfig()
		if *exp == "sensitivity" {
			scfg.Runs = *runs
		}
		timed("sensitivity", nil, func() {
			points, err := experiments.Sensitivity(scfg)
			fail(err)
			fmt.Println(experiments.RenderSensitivity(points))
			writeCSV(experiments.SensitivityDataset(points))
		})
	}
	if want("loggers") {
		lcfg := cfg
		if *exp == "all" && lcfg.Runs > 300 {
			lcfg.Runs = 300
		}
		lcfg.Timings = &experiments.StageTimings{}
		timed("loggers", lcfg.Timings, func() {
			rows, err := experiments.Loggers(lcfg)
			fail(err)
			fmt.Println(experiments.RenderLoggers(rows))
			writeCSV(experiments.LoggersDataset(rows))
		})
	}
	if want("diurnal") {
		timed("diurnal", nil, func() {
			dcfg := experiments.DefaultDiurnalConfig()
			rows, err := experiments.Diurnal(dcfg)
			fail(err)
			fmt.Println(experiments.RenderDiurnal(rows))
			writeCSV(experiments.DiurnalDataset(rows))
		})
	}
	if want("fig13") {
		fcfg := experiments.DefaultFig13Config()
		if *exp == "fig13" && *runs != 1000 {
			fcfg.Runs = *runs
		}
		timed("fig13", nil, func() {
			f13, err := experiments.Fig13(fcfg)
			fail(err)
			fmt.Println(f13.Render())
			writeCSV(f13.Dataset())
		})
	}
	if !anyExperiment(*exp) {
		fmt.Fprintf(os.Stderr, "easeio-bench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if len(timings) > 0 {
		fmt.Println("timing breakdown (host wall clock):")
		for _, t := range timings {
			if t.stages.Wall > 0 {
				fmt.Printf("  %-12s %8v  (sweeps: %s)\n",
					t.name, t.wall.Round(time.Millisecond), t.stages)
			} else {
				fmt.Printf("  %-12s %8v\n", t.name, t.wall.Round(time.Millisecond))
			}
		}
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
}

func anyExperiment(name string) bool {
	known := "all table1 table3 fig7 table4 fig8 fig10 fig11 fig12 table5 table6 fig13 sensitivity loggers diurnal"
	for _, k := range strings.Fields(known) {
		if name == k {
			return true
		}
	}
	return false
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "easeio-bench:", err)
		os.Exit(1)
	}
}

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5), plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark executes a reduced sweep per
// iteration and reports the figure's headline quantities as custom
// metrics, so `go test -bench=. -benchmem` regenerates the whole
// evaluation. Use cmd/easeio-bench for full-resolution tables.
package easeio

import (
	"context"
	"runtime"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/check"
	"easeio/internal/core"
	"easeio/internal/experiments"
	"easeio/internal/frontend"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
)

// benchRuns is the per-iteration sweep size (the paper uses 1000 per
// configuration; benchmarks trade resolution for iteration speed).
const benchRuns = 120

func benchCfg() experiments.Config {
	return experiments.Config{Runs: benchRuns, BaseSeed: 1}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkTable3 regenerates the application inventory.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			totalTasks := 0
			for _, r := range rows {
				totalTasks += r.Tasks
			}
			b.ReportMetric(float64(totalTasks), "tasks")
		}
	}
}

// uniTaskBench runs the phase-1 sweep and reports one case's headline
// numbers: total time per runtime and EaseIO's savings.
func uniTaskBench(b *testing.B, caseIdx int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		data, err := experiments.UniTask(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			sums := data.Summaries[caseIdx]
			b.ReportMetric(ms(sums[0].MeanTotalTime()), "alpaca-ms")
			b.ReportMetric(ms(sums[1].MeanTotalTime()), "ink-ms")
			b.ReportMetric(ms(sums[2].MeanTotalTime()), "easeio-ms")
			b.ReportMetric(ms(sums[2].Work[stats.Wasted].T), "easeio-wasted-ms")
			b.ReportMetric(ms(sums[0].Work[stats.Wasted].T), "alpaca-wasted-ms")
		}
	}
}

// BenchmarkFigure7a: Single-semantics DMA application.
func BenchmarkFigure7a(b *testing.B) { uniTaskBench(b, 0) }

// BenchmarkFigure7b: Timely-semantics temperature application.
func BenchmarkFigure7b(b *testing.B) { uniTaskBench(b, 1) }

// BenchmarkFigure7c: Always-semantics LEA application.
func BenchmarkFigure7c(b *testing.B) { uniTaskBench(b, 2) }

// BenchmarkTable4: power failures and redundant I/O counts.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.UniTask(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			alp, ease := data.Summaries[0][0], data.Summaries[0][2]
			b.ReportMetric(float64(alp.PowerFailures)/benchRuns, "alpaca-pf/run")
			b.ReportMetric(float64(ease.PowerFailures)/benchRuns, "easeio-pf/run")
			b.ReportMetric(float64(alp.IORepeats+alp.DMARepeats)/benchRuns, "alpaca-reexe/run")
			b.ReportMetric(float64(ease.IORepeats+ease.DMARepeats)/benchRuns, "easeio-reexe/run")
		}
	}
}

// BenchmarkFigure8: average energy per uni-task execution.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.UniTask(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(data.Summaries[0][0].MeanEnergy.Microjoules(), "alpaca-single-uJ")
			b.ReportMetric(data.Summaries[0][2].MeanEnergy.Microjoules(), "easeio-single-uJ")
		}
	}
}

// BenchmarkFigure10: multi-task execution-time breakdown.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.MultiTask(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Weather app, indexed like experiments.OpConfigs:
			// [EaseIO/Op., EaseIO, InK, Alpaca].
			w := data.Summaries[1]
			b.ReportMetric(ms(w[3].MeanTotalTime()), "weather-alpaca-ms")
			b.ReportMetric(ms(w[1].MeanTotalTime()), "weather-easeio-ms")
			b.ReportMetric(ms(w[0].MeanTotalTime()), "weather-easeioOp-ms")
			f := data.Summaries[0]
			b.ReportMetric(ms(f[3].MeanTotalTime()), "fir-alpaca-ms")
			b.ReportMetric(ms(f[1].MeanTotalTime()), "fir-easeio-ms")
		}
	}
}

// BenchmarkFigure11: multi-task energy.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.MultiTask(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(data.Summaries[1][3].MeanEnergy.Microjoules(), "weather-alpaca-uJ")
			b.ReportMetric(data.Summaries[1][1].MeanEnergy.Microjoules(), "weather-easeio-uJ")
		}
	}
}

// BenchmarkFigure12: FIR correctness counts.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.MultiTask(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fir := data.Summaries[0]
			b.ReportMetric(float64(fir[1].IncorrectRuns), "easeio-incorrect")
			b.ReportMetric(float64(fir[2].IncorrectRuns), "ink-incorrect")
			b.ReportMetric(float64(fir[3].IncorrectRuns), "alpaca-incorrect")
		}
	}
}

// BenchmarkTable5: weather classifier, double vs single buffer.
func BenchmarkTable5(b *testing.B) {
	cfg := benchCfg()
	cfg.Runs = 60 // 2 modes × 3 runtimes per iteration
	for i := 0; i < b.N; i++ {
		data, err := experiments.Table5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range data.Rows {
				if row.Kind == experiments.EaseIO {
					b.ReportMetric(ms(row.Cont[apps.SingleBuffer]), "easeio-cont-ms")
					b.ReportMetric(ms(row.Int[apps.SingleBuffer]), "easeio-int-ms")
				}
				if row.Kind == experiments.Alpaca {
					b.ReportMetric(float64(row.Incorrect[apps.SingleBuffer]), "alpaca-single-incorrect")
				}
			}
		}
	}
}

// BenchmarkTable6: memory and code-size measurement.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// DMA app row: EaseIO FRAM includes the 4 KB privatization
			// buffer, Temp row does not use it.
			for ai, label := range data.Apps {
				if label == "DMA" {
					b.ReportMetric(float64(data.Cells[ai][2].FRAM), "dma-easeio-fram-B")
					b.ReportMetric(float64(data.Cells[ai][0].FRAM), "dma-alpaca-fram-B")
				}
			}
		}
	}
}

// BenchmarkFigure13: the RF-harvester distance sweep.
func BenchmarkFigure13(b *testing.B) {
	cfg := experiments.DefaultFig13Config()
	cfg.Runs = 20
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(data.Times) - 1
			b.ReportMetric(ms(data.Times[0][3]-data.Times[0][0]), "near-alpaca-dt-ms")
			b.ReportMetric(ms(data.Times[last][3]-data.Times[last][0]), "far-alpaca-dt-ms")
			b.ReportMetric(data.Failures[last][3], "far-pf/run")
		}
	}
}

// --- Ablation benches (design-choice isolation) ---

// BenchmarkAblationRegionalPrivatization compares the weather app's
// single-buffer correctness and overhead under the front end's plan and
// with every privatization region emptied (frontend.StripRegions).
func BenchmarkAblationRegionalPrivatization(b *testing.B) {
	for _, strip := range []bool{false, true} {
		name := "plan"
		if strip {
			name = "stripped"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				incorrect := 0
				var overhead time.Duration
				for seed := int64(1); seed <= 60; seed++ {
					bench, err := apps.NewWeatherApp(apps.DefaultWeatherConfig())
					if err != nil {
						b.Fatal(err)
					}
					if strip {
						if err := frontend.StripRegions(bench.App); err != nil {
							b.Fatal(err)
						}
					}
					sess := kernel.NewSession(core.New(), bench.App, power.NewTimer(power.DefaultTimerConfig()))
					if _, err := sess.Run(seed); err != nil {
						b.Fatal(err)
					}
					dev := sess.Device()
					if !dev.Run.Correct {
						incorrect++
					}
					overhead += dev.Run.Work[stats.Overhead].T
				}
				if i == 0 {
					b.ReportMetric(float64(incorrect), "incorrect/60")
					b.ReportMetric(ms(overhead/60), "overhead-ms")
				}
			}
		})
	}
}

// BenchmarkAblationExclude isolates the Exclude annotation's effect on
// the FIR filter's runtime overhead.
func BenchmarkAblationExclude(b *testing.B) {
	for _, exclude := range []bool{false, true} {
		name := "privatized"
		if exclude {
			name = "excluded"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var overhead, total time.Duration
				for seed := int64(1); seed <= 60; seed++ {
					fc := apps.DefaultFIRConfig()
					fc.ExcludeCoef = exclude
					bench, err := apps.NewFIRApp(fc)
					if err != nil {
						b.Fatal(err)
					}
					sess := kernel.NewSession(core.New(), bench.App, power.NewTimer(power.DefaultTimerConfig()))
					if _, err := sess.Run(seed); err != nil {
						b.Fatal(err)
					}
					dev := sess.Device()
					overhead += dev.Run.Work[stats.Overhead].T
					total += dev.Run.OnTime
				}
				if i == 0 {
					b.ReportMetric(ms(overhead/60), "overhead-ms")
					b.ReportMetric(ms(total/60), "total-ms")
				}
			}
		})
	}
}

// BenchmarkAblationValuePrivatization measures the branch-stability
// mechanism: a Single sensor read restores its private value after a
// power failure, while an Always read re-executes and may take the other
// branch (Figure 2c's bug). Regions are stripped in both arms, so
// regional recovery cannot mask the difference.
func BenchmarkAblationValuePrivatization(b *testing.B) {
	for _, sem := range []task.Semantic{task.Single, task.Always} {
		b.Run(sem.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				unsafeRuns := 0
				for seed := int64(1); seed <= 120; seed++ {
					cfg := apps.DefaultBranchConfig()
					cfg.Semantics = sem
					bench, err := apps.NewBranchApp(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := frontend.StripRegions(bench.App); err != nil {
						b.Fatal(err)
					}
					sess := kernel.NewSession(core.New(), bench.App, power.NewTimer(power.DefaultTimerConfig()))
					if _, err := sess.Run(seed); err != nil {
						b.Fatal(err)
					}
					dev := sess.Device()
					if !dev.Run.Correct {
						unsafeRuns++
					}
				}
				if i == 0 {
					b.ReportMetric(float64(unsafeRuns), "unsafe/120")
				}
			}
		})
	}
}

// BenchmarkSweepThroughput measures the sweep engine's pooled
// device-reuse path on the DMA bench, reporting runs per second and heap
// allocations per run. It runs single-worker so the number isolates
// per-run cost rather than scheduling, and the copy is shortened from
// the default so that per-word simulation work does not drown the
// per-run setup cost. The sub-benchmark keeps its "pooled" name: the
// bench gate keys on BenchmarkSweepThroughput/pooled.
func BenchmarkSweepThroughput(b *testing.B) {
	const sweep = 32
	dmaCfg := apps.DefaultDMAConfig()
	dmaCfg.Words = 1000
	dmaApp := func() (*apps.Bench, error) { return apps.NewDMAApp(dmaCfg) }
	b.Run("pooled", func(b *testing.B) {
		cfg := experiments.Config{Runs: sweep, BaseSeed: 1, Workers: 1}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunMany(cfg, dmaApp, experiments.EaseIO); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		totalRuns := float64(b.N) * sweep
		b.ReportMetric(totalRuns/b.Elapsed().Seconds(), "runs/s")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/totalRuns, "allocs/run")
	})
}

// BenchmarkCheckThroughput compares the model checker's two replay paths
// on exhaustive runs: checkpointed suffix replay (the default — restore
// a golden-prefix snapshot, simulate only the post-failure suffix)
// against from-boot re-simulation of every point. fig6 is the paper's
// WAR-via-DMA scenario; its single dominant task restarts from its
// beginning after any failure, so the suffix is nearly the whole run and
// the checkpointed win is bounded by the prefix skipped (~1.5×
// asymptotically). weather is a multi-task pipeline whose committed
// prefix stays committed, where suffix replay pays only the interrupted
// task and the gap widens with app length. weather/k2 is the nested
// (failure-during-recovery) check at depth 2, checkpointed, counting
// the points replayed at every depth. Single-worker so the ratio
// isolates per-point replay cost rather than scheduling; both paths
// render byte-identical reports.
func BenchmarkCheckThroughput(b *testing.B) {
	weather := func() (*apps.Bench, error) { return apps.NewWeatherApp(apps.DefaultWeatherConfig()) }
	cases := []struct {
		name     string
		newApp   experiments.AppFactory
		failures int
		fromBoot bool
	}{
		{"fig6/checkpointed", check.Fig6Bench, 1, false},
		{"fig6/fromboot", check.Fig6Bench, 1, true},
		{"weather/checkpointed", weather, 1, false},
		{"weather/fromboot", weather, 1, true},
		{"weather/k2/checkpointed", weather, 2, false},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := check.Config{Exhaustive: true, Workers: 1, FromBoot: tc.fromBoot, Failures: tc.failures}
			points := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := check.Run(context.Background(), tc.newApp, experiments.EaseIO, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Passed() {
					b.Fatalf("%s diverged:\n%s", tc.name, rep.Render())
				}
				points += rep.Explored
				for _, d := range rep.Depths {
					points += d.Explored
				}
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: one full
// weather-app run per iteration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench, err := apps.NewWeatherApp(apps.DefaultWeatherConfig())
		if err != nil {
			b.Fatal(err)
		}
		sess := kernel.NewSession(core.New(), bench.App, power.NewTimer(power.DefaultTimerConfig()))
		if _, err := sess.Run(int64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivity: the extension sweep — EaseIO's speedup across
// energy-environment harshness.
func BenchmarkSensitivity(b *testing.B) {
	cfg := experiments.DefaultSensitivityConfig()
	cfg.Runs = 60
	for i := 0; i < b.N; i++ {
		points, err := experiments.Sensitivity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(points[0].Speedup(), "harsh-speedup")
			b.ReportMetric(points[len(points)-1].Speedup(), "mild-speedup")
		}
	}
}

// BenchmarkLoggers: the JustDo logging comparator on the uni-task apps.
func BenchmarkLoggers(b *testing.B) {
	cfg := benchCfg()
	cfg.Runs = 60
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Loggers(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.App == "Single (DMA)" {
					switch r.Runtime {
					case "JustDo":
						b.ReportMetric(ms(r.Cont), "justdo-cont-ms")
						b.ReportMetric(ms(r.Int), "justdo-int-ms")
					case "EaseIO":
						b.ReportMetric(ms(r.Cont), "easeio-cont-ms")
						b.ReportMetric(ms(r.Int), "easeio-int-ms")
					}
				}
			}
		}
	}
}

// BenchmarkDiurnal: completions per synthetic solar day.
func BenchmarkDiurnal(b *testing.B) {
	cfg := experiments.DefaultDiurnalConfig()
	cfg.Runs = 4
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Diurnal(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				switch r.Runtime {
				case "Alpaca":
					b.ReportMetric(r.Completions, "alpaca-completions")
				case "EaseIO":
					b.ReportMetric(r.Completions, "easeio-completions")
				}
			}
		}
	}
}

// --- Micro-benchmarks of the simulator itself ---

// BenchmarkChargeLoop measures the kernel's cost-charging hot path: one
// task body, run by a session under continuous power (so with the boot's
// credit, as every run has), charges 100 cycles b.N times.
func BenchmarkChargeLoop(b *testing.B) {
	n := 0
	a := task.NewApp("charge")
	a.AddTask("loop", func(e task.Exec) {
		for i := 0; i < n; i++ {
			e.Compute(100)
		}
		e.Done()
	})
	if err := frontend.Analyze(a); err != nil {
		b.Fatal(err)
	}
	sess := kernel.NewSession(core.New(), a, power.Continuous{})
	if _, err := sess.Run(1); err != nil {
		b.Fatal(err)
	}
	n = b.N
	b.ResetTimer()
	if _, err := sess.Run(1); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLEAFirKernel measures the FIR data plane.
func BenchmarkLEAFirKernel(b *testing.B) {
	dev := kernel.NewDevice(power.Continuous{}, 1)
	ctx := kernelCtxForBench(dev)
	for i := 0; i < 287; i++ {
		ctx.WriteLEA(i, uint16(i))
	}
	for i := 0; i < 32; i++ {
		ctx.WriteLEA(320+i, 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.LEAFir(0, 320, 400, 287, 32)
	}
}

// kernelCtxForBench builds a context on a no-op runtime.
func kernelCtxForBench(dev *kernel.Device) *kernel.Ctx {
	bench, err := apps.NewLEAApp(apps.DefaultLEAConfig())
	if err != nil {
		panic(err)
	}
	rt := core.New()
	if err := rt.Attach(dev, bench.App); err != nil {
		panic(err)
	}
	return &kernel.Ctx{Dev: dev, RT: rt}
}

// Command easeio-check model-checks crash consistency: it enumerates
// every charge-slice boundary of a golden continuous-power run, replays
// the app with a single power failure injected at each explored boundary,
// and differentially compares final non-volatile memory, the output
// verdict and the work ledger against the golden run.
//
// Usage:
//
//	easeio-check [-app NAME|all] [-runtime NAME|all] [-k N] [-exhaustive]
//	             [-grid N] [-seed S] [-off D] [-workers N] [-fromboot] [-broken]
//
// Replays restore golden-prefix checkpoints and simulate only the
// post-failure suffix by default; -fromboot re-simulates every replay
// from boot instead. Both modes render byte-identical reports.
//
// -k explores failure-during-recovery schedules: every schedule injects
// up to k failures, each landing on a charge-slice boundary of the
// previous failure's recovery trajectory (see the checkpoint tree in
// internal/check). The default k=1 is the single-failure checker.
//
// -app accepts the registered blueprint names (easeio-served's registry,
// which includes "fig6", the paper's Figure 6 WAR-via-DMA scenario), or
// "all" for every one of them, fig6 first. -broken empties every
// privatization region of each checked app (frontend.StripRegions) and
// names the target NAME/no-regions — the seeded-bug demonstration: fig6
// under EaseIO must report a minimal failing schedule. Only EaseIO reads
// those regions, so -broken with any -runtime but EaseIO is a usage
// error.
//
// Exit status: 0 when every checked cell passes, 1 on divergence, 2 on
// usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"easeio/internal/apps"
	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/frontend"
	"easeio/internal/service"
)

func main() {
	var cfg check.Config
	flag.IntVar(&cfg.Failures, "k", 1, fmt.Sprintf("failures per schedule: k > 1 explores failure-during-recovery (max %d)", check.MaxFailures))
	flag.BoolVar(&cfg.Exhaustive, "exhaustive", false, "replay every candidate failure point (sound mode)")
	flag.IntVar(&cfg.Grid, "grid", 128, "coarse grid size of the adaptive exploration")
	flag.Int64Var(&cfg.Seed, "seed", 0, "seed for the golden run and every replay")
	flag.DurationVar(&cfg.Off, "off", time.Millisecond, "recharge duration of the injected failure")
	flag.IntVar(&cfg.Workers, "workers", 0, "parallel replays (0 = GOMAXPROCS); results are worker-invariant")
	flag.BoolVar(&cfg.FromBoot, "fromboot", false, "re-simulate every replay from boot instead of restoring golden-prefix checkpoints (slower; reports are byte-identical)")
	var (
		app      = flag.String("app", "fig6", "blueprint to check (a registered name, \"fig6\", or \"all\")")
		runtimeF = flag.String("runtime", "EaseIO", "runtime to check (Alpaca, InK, EaseIO, JustDo, or \"all\")")
		broken   = flag.Bool("broken", false, "seeded-bug demo: empty every privatization region of each checked app (EaseIO only; fig6 must fail)")
	)
	flag.Parse()

	kinds, err := resolveKinds(*runtimeF)
	if err != nil {
		usageError(err)
	}
	if err := validateFlags(cfg, *broken, kinds); err != nil {
		usageError(err)
	}
	targets, err := resolveTargets(*app)
	if err != nil {
		usageError(err)
	}
	if *broken {
		for i, tgt := range targets {
			targets[i] = stripRegions(tgt)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	reports, err := check.Matrix(ctx, targets, kinds, cfg)
	for _, rep := range reports {
		fmt.Println(rep.Render())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "easeio-check:", err)
		os.Exit(1)
	}
	if len(reports) > 1 {
		fmt.Println(check.RenderMatrix(reports))
	}
	for _, rep := range reports {
		if !rep.Passed() {
			os.Exit(1)
		}
	}
}

// resolveTargets maps -app to check targets through the same registry
// easeio-served uses. "all" is every registered app, fig6 first.
func resolveTargets(name string) ([]check.Target, error) {
	reg := service.NewRegistry()
	if err := service.RegisterBenches(reg); err != nil {
		return nil, err
	}
	names := []string{name}
	if name == "all" {
		rest := slices.DeleteFunc(reg.Names(), func(n string) bool { return n == "fig6" })
		names = append([]string{"fig6"}, rest...)
	}
	var targets []check.Target
	for _, n := range names {
		f, ok := reg.LookupFactory(n)
		if !ok {
			return nil, fmt.Errorf("unknown app %q (want all or one of %s)",
				n, strings.Join(reg.Names(), ", "))
		}
		targets = append(targets, check.Target{Name: n, New: f})
	}
	return targets, nil
}

// stripRegions wraps a target so every app it builds runs with empty
// privatization regions, and names it so the reports show the edit.
func stripRegions(tgt check.Target) check.Target {
	return check.Target{Name: tgt.Name + "/no-regions", New: func() (*apps.Bench, error) {
		bench, err := tgt.New()
		if err != nil {
			return nil, err
		}
		return bench, frontend.StripRegions(bench.App)
	}}
}

func resolveKinds(name string) ([]experiments.RuntimeKind, error) {
	if name == "all" {
		return []experiments.RuntimeKind{
			experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
		}, nil
	}
	kind, err := experiments.ParseRuntimeKind(name)
	if err != nil {
		return nil, err
	}
	return []experiments.RuntimeKind{kind}, nil
}

// validateFlags rejects what check.Config.Validate rejects — a -k above
// check.MaxFailures, and a negative -k, -grid, -off or -workers, where
// zero selects each default — and -broken under any runtime but EaseIO. Only EaseIO reads the privatization regions -broken empties,
// so under the other runtimes it would repeat the plain check's verdicts
// at full cost.
func validateFlags(cfg check.Config, broken bool, kinds []experiments.RuntimeKind) error {
	if broken && !slices.Equal(kinds, []experiments.RuntimeKind{experiments.EaseIO}) {
		return fmt.Errorf("-broken empties regions only EaseIO reads: use it with -runtime EaseIO")
	}
	return cfg.Validate()
}

func usageError(err error) {
	fmt.Fprintln(os.Stderr, "easeio-check:", err)
	flag.Usage()
	os.Exit(2)
}

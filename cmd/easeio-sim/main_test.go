package main

import (
	"strings"
	"testing"

	"easeio"
	"easeio/internal/experiments"
	"easeio/internal/service"
)

// TestResolveRunsEveryApp runs every registered blueprint plus fig6 under
// every runtime kind, one continuous-power run each, through the names
// the -app and -rt flags accept.
func TestResolveRunsEveryApp(t *testing.T) {
	reg := service.NewRegistry()
	if err := service.RegisterPaperBenches(reg); err != nil {
		t.Fatal(err)
	}
	kinds := []experiments.RuntimeKind{
		experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
	}
	for _, app := range append([]string{"fig6"}, reg.Names()...) {
		for _, kind := range kinds {
			bench, rt, err := resolve(app, kind.String())
			if err != nil {
				t.Errorf("%s/%s: %v", app, kind, err)
				continue
			}
			res, err := easeio.Run(bench.App, rt, easeio.WithContinuousPower(), easeio.WithSeed(1))
			if err != nil {
				t.Errorf("%s/%s: %v", app, kind, err)
				continue
			}
			if res.PowerFailures != 0 || !res.Correct || res.Runtime != rt.Name() {
				t.Errorf("%s/%s: %d failures, correct=%v, runtime %q",
					app, kind, res.PowerFailures, res.Correct, res.Runtime)
			}
		}
	}
}

func TestResolveNames(t *testing.T) {
	if _, rt, err := resolve("weather", "easeio"); err != nil || rt.Name() != "EaseIO" {
		t.Errorf("the default -app/-rt pair: %v", err)
	}
	if _, _, err := resolve("dma", "JUSTDO"); err != nil {
		t.Errorf("runtime names are case-insensitive: %v", err)
	}
	if _, _, err := resolve("nope", "easeio"); err == nil || !strings.Contains(err.Error(), "fir-op") {
		t.Errorf("unknown app: %v, want an error listing the registered names", err)
	}
	if _, _, err := resolve("dma", "nope"); err == nil {
		t.Error("unknown runtime accepted")
	}
}

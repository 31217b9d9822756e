package experiments

import (
	"testing"

	"easeio/internal/apps"
	"easeio/internal/power"
	"easeio/internal/stats"
)

// TestSmokeAllAppsAllRuntimes runs every benchmark under every runtime,
// both continuously and intermittently, and sanity-checks the accounting.
func TestSmokeAllAppsAllRuntimes(t *testing.T) {
	factories := map[string]AppFactory{
		"dma":     func() (*apps.Bench, error) { return apps.NewDMAApp(apps.DefaultDMAConfig()) },
		"temp":    func() (*apps.Bench, error) { return apps.NewTempApp(apps.DefaultTempConfig()) },
		"lea":     func() (*apps.Bench, error) { return apps.NewLEAApp(apps.DefaultLEAConfig()) },
		"fir":     func() (*apps.Bench, error) { return apps.NewFIRApp(apps.DefaultFIRConfig()) },
		"weather": func() (*apps.Bench, error) { return apps.NewWeatherApp(apps.DefaultWeatherConfig()) },
		"branch":  func() (*apps.Bench, error) { return apps.NewBranchApp(apps.DefaultBranchConfig()) },
	}
	for name, f := range factories {
		for _, kind := range []RuntimeKind{Alpaca, InK, EaseIO} {
			// Continuous power: must run with zero failures and correct
			// output under every runtime.
			run, err := freshRun(f, kind, power.Continuous{}, 1)
			if err != nil {
				t.Fatalf("%s/%s continuous: %v", name, kind, err)
			}
			if run.PowerFailures != 0 {
				t.Errorf("%s/%s continuous: %d power failures", name, kind, run.PowerFailures)
			}
			if !run.Correct {
				t.Errorf("%s/%s continuous: incorrect output", name, kind)
			}
			if run.Work[stats.Wasted].T != 0 {
				t.Errorf("%s/%s continuous: wasted work %v", name, kind, run.Work[stats.Wasted].T)
			}
			t.Logf("%s/%s continuous: app=%v ovh=%v total=%v ioexecs=%d",
				name, kind, run.Work[stats.App].T, run.Work[stats.Overhead].T,
				run.OnTime, run.IOExecs)

			// Intermittent power: must terminate.
			irun, err := freshRun(f, kind, TimerSupply(), 42)
			if err != nil {
				t.Fatalf("%s/%s intermittent: %v", name, kind, err)
			}
			t.Logf("%s/%s intermittent: pf=%d repeats=%d+%d skips=%d+%d wasted=%v total=%v correct=%v",
				name, kind, irun.PowerFailures, irun.IORepeats, irun.DMARepeats,
				irun.IOSkips, irun.DMASkips, irun.Work[stats.Wasted].T, irun.OnTime, irun.Correct)
		}
	}
}

package check

import (
	"context"
	"testing"

	"easeio/internal/apps"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
)

// TestRootPrefixIsHighWater pins what a checkpoint carries: each bank's
// words below the device's high-water mark, not the runtime's
// allocations. A large, barely written buffer (JustDo's 4 096-word value
// log, EaseIO's 2 048-word DMA privatization buffer, whose bump pointer
// sits below it) adds nothing. The table is the FRAM high-water mark at
// the end of a continuous seed-1 run; the end-of-run checkpoint's prefix
// must equal it in every bank, and every level-1 root of a k=2 plan — a
// checkpoint of the same continuous golden run, shipped in fleet shards
// and job records — must hold no more than the run's final mark.
func TestRootPrefixIsHighWater(t *testing.T) {
	factories := map[string]experiments.AppFactory{
		"fig6":    Fig6Bench,
		"sensor":  func() (*apps.Bench, error) { return apps.NewSensorApp(apps.DefaultSensorConfig()) },
		"fir":     func() (*apps.Bench, error) { return apps.NewFIRApp(apps.DefaultFIRConfig()) },
		"weather": func() (*apps.Bench, error) { return apps.NewWeatherApp(apps.DefaultWeatherConfig()) },
	}
	want := map[string]map[experiments.RuntimeKind]int{
		"fig6":    {experiments.EaseIO: 19, experiments.JustDo: 10, experiments.Alpaca: 5, experiments.InK: 13},
		"sensor":  {experiments.EaseIO: 18, experiments.JustDo: 5, experiments.Alpaca: 3, experiments.InK: 7},
		"fir":     {experiments.EaseIO: 723, experiments.JustDo: 377, experiments.Alpaca: 324, experiments.InK: 649},
		"weather": {experiments.EaseIO: 2941, experiments.JustDo: 1717, experiments.Alpaca: 1712, experiments.InK: 3433},
	}
	for name, factory := range factories {
		for _, kind := range allKinds {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				bench, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				sess := kernel.NewSession(experiments.NewRuntime(kind), bench.App, power.Continuous{})
				if _, err := sess.Run(1); err != nil {
					t.Fatal(err)
				}
				dev := sess.Device()
				cp := dev.SnapshotInto(&kernel.Checkpoint{}, sess.Runtime())
				var final [mem.NumBanks]int
				for b := mem.Bank(0); b < mem.Bank(mem.NumBanks); b++ {
					final[b] = dev.Mem.HighWater(b)
					if n := len(cp.Mem.Used[b]); n != final[b] {
						t.Errorf("end-of-run %v prefix holds %d words, high-water mark %d", b, n, final[b])
					}
				}
				if w := want[name][kind]; final[mem.FRAM] != w {
					t.Errorf("FRAM high-water mark %d words (%d allocated), want %d",
						final[mem.FRAM], dev.Mem.Allocated(mem.FRAM), w)
				}

				cfg := Config{Seed: 1, Failures: 2, Workers: 1, Exhaustive: name == "fig6"}
				p, err := Plan(context.Background(), factory, kind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				roots := 0
				for _, u := range p.Units {
					if u.Root == nil {
						continue
					}
					roots++
					for b := mem.Bank(0); b < mem.Bank(mem.NumBanks); b++ {
						if n := len(u.Root.Mem.Used[b]); n > final[b] {
							t.Fatalf("root at %v: %v prefix holds %d words, past the run's final high-water mark %d",
								u.Schedule, b, n, final[b])
						}
					}
				}
				if roots == 0 {
					t.Error("the k=2 plan has no checkpoint roots")
				}
			})
		}
	}
}

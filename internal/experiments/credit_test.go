// Reference tests for the kernel's charging rule. A supply with a FireAt
// method gives the kernel a per-boot on-time credit: every charge or
// slice that ends before the failure point is booked without stepping
// the supply. A cut sink zeroes the credit, so every slice is stepped —
// the per-slice reference path. Since a sink only observes, a run with a
// no-op sink attached must be the run without one, for every registered
// app under every runtime and supply.

package experiments_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/service"
	"easeio/internal/stats"
	"easeio/internal/units"
)

var creditRuntimes = []experiments.RuntimeKind{
	experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
}

// nopSink observes nothing; attaching it only zeroes the credit.
type nopSink struct{}

func (nopSink) NoteCut(time.Duration) {}

// cutRecorder collects a golden run's charge-slice boundaries.
type cutRecorder struct{ cuts []time.Duration }

func (c *cutRecorder) NoteCut(onTime time.Duration) { c.cuts = append(c.cuts, onTime) }

// countingTimer is the sweep's timer supply counting its Step calls.
type countingTimer struct {
	*power.Timer
	steps int
}

func (c *countingTimer) Reset(seed int64) {
	c.steps = 0
	c.Timer.Reset(seed)
}

func (c *countingTimer) Step(wall, onTime, dt time.Duration, e units.Energy) bool {
	c.steps++
	return c.Timer.Step(wall, onTime, dt, e)
}

// creditPair runs one app under one runtime twice per seed: a session
// with credit and a session whose no-op cut sink steps every slice.
type creditPair struct {
	t           *testing.T
	app         *apps.Bench
	credit, ref *kernel.Session
}

func newCreditPair(t *testing.T, bench *apps.Bench, kind experiments.RuntimeKind, credit, ref power.Supply) *creditPair {
	p := &creditPair{
		t:      t,
		app:    bench,
		credit: kernel.NewSession(experiments.NewRuntime(kind), bench.App, credit),
		ref:    kernel.NewSession(experiments.NewRuntime(kind), bench.App, ref),
	}
	p.ref.Cuts = nopSink{}
	return p
}

// run runs seed on both sessions and fails unless their statistics and
// every variable's final words agree. It returns the credit run.
func (p *creditPair) run(what string, seed int64) *stats.Run {
	p.t.Helper()
	got, err := p.credit.Run(seed)
	if err != nil {
		p.t.Fatalf("%s: %v", what, err)
	}
	gotWords := p.words(p.credit)
	want, err := p.ref.Run(seed)
	if err != nil {
		p.t.Fatalf("%s with a cut sink: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("%s: run with credit diverged from per-slice run:\n%+v\nvs\n%+v", what, got, want)
	}
	if wantWords := p.words(p.ref); !reflect.DeepEqual(gotWords, wantWords) {
		p.t.Fatalf("%s: final variable words differ from the per-slice run", what)
	}
	return got
}

// words reads every variable's final words from a session's device.
func (p *creditPair) words(s *kernel.Session) [][]uint16 {
	out := make([][]uint16, len(p.app.App.Vars))
	for vi, v := range p.app.App.Vars {
		for i := 0; i < v.Words; i++ {
			out[vi] = append(out[vi], kernel.ReadVar(s.Device(), s.Runtime(), v, i))
		}
	}
	return out
}

// harvestedStalls names the registered apps that never terminate under
// the Figure 13 supply, at any of its distances: every run ends in the
// engine's non-termination error after 200 000 boots, about a second
// each. Figure 13 itself runs weather with a delay-loop send.
var harvestedStalls = map[string]bool{"fir": true, "fir-op": true, "weather": true, "weather-db": true}

// TestCreditMatchesSliced pins the credit rule against the per-slice
// path for every app service.RegisterBenches registers, plus the fused
// load-run app and the Figure 13 build of weather (its send a delay
// loop), under all four runtimes and three supplies:
//   - the sweep's timer, seeds 1–20, where the supply must also be
//     stepped exactly once per power failure (only the slice that reaches
//     the failure point is stepped);
//   - a schedule failing at one golden cut, for about 50 cuts spread
//     evenly over a continuous golden run;
//   - the Figure 13 harvested supply at its farthest distance, seeds
//     1–3, which has no FireAt and so no credit (apps in harvestedStalls
//     excepted).
func TestCreditMatchesSliced(t *testing.T) {
	reg := service.NewRegistry()
	if err := service.RegisterBenches(reg); err != nil {
		t.Fatal(err)
	}
	factories := map[string]experiments.AppFactory{
		"sum": experiments.SumApp(true),
		"fig13-weather": func() (*apps.Bench, error) {
			cfg := apps.DefaultWeatherConfig()
			cfg.DelayLoopSend = true
			return apps.NewWeatherApp(cfg)
		},
	}
	for _, name := range reg.Names() {
		factories[name], _ = reg.LookupFactory(name)
	}
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	slices.Sort(names)
	fig13 := experiments.DefaultFig13Config()
	far := fig13.DistancesInches[len(fig13.DistancesInches)-1]
	for _, name := range names {
		bench, err := factories[name]()
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range creditRuntimes {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				timer := &countingTimer{Timer: power.NewTimer(power.DefaultTimerConfig())}
				p := newCreditPair(t, bench, kind, timer, experiments.TimerSupply())
				for seed := int64(1); seed <= 20; seed++ {
					run := p.run("timer", seed)
					if timer.steps != run.PowerFailures {
						t.Fatalf("timer seed %d: supply stepped %d times for %d power failures",
							seed, timer.steps, run.PowerFailures)
					}
				}

				golden := &cutRecorder{}
				gsess := kernel.NewSession(experiments.NewRuntime(kind), bench.App, power.Continuous{})
				gsess.Cuts = golden
				if _, err := gsess.Run(1); err != nil {
					t.Fatal(err)
				}
				sched, refSched := power.NewSchedule(), power.NewSchedule()
				p = newCreditPair(t, bench, kind, sched, refSched)
				stride := max(1, len(golden.cuts)/50)
				for i := stride / 2; i < len(golden.cuts); i += stride {
					sched.FailAt = []time.Duration{golden.cuts[i]}
					refSched.FailAt = sched.FailAt
					p.run("schedule", 1)
				}

				if harvestedStalls[name] {
					return
				}
				p = newCreditPair(t, bench, kind, experiments.Fig13Supply(fig13, far), experiments.Fig13Supply(fig13, far))
				for seed := int64(1); seed <= 3; seed++ {
					p.run("harvested", seed)
				}
			})
		}
	}
}

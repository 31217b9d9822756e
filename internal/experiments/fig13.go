// Figure 13 (§5.5): the real-world evaluation — an RF power transmitter
// charges the capacitor, and the transmitter–device distance sweeps from
// 52 to 64 inches. Close in, harvested power sustains execution with no
// power failures; further out, failures appear and the runtimes separate.
// The paper plots each runtime's execution time minus EaseIO/Op.'s.
//
// Substitution note: the harvested power at the reference distance and the
// capacitor size are scaled to this simulator's energy model (the paper's
// absolute powers correspond to its board's draw). The anchor preserves
// the figure's structure: zero difference at 52 in, growing differences
// with distance.

package experiments

import (
	"fmt"
	"time"

	"easeio/internal/apps"
	"easeio/internal/energy"
	"easeio/internal/power"
	"easeio/internal/units"
)

// Fig13Config parameterizes the harvested-power sweep.
type Fig13Config struct {
	// DistancesInches are the transmitter–device separations (the paper
	// uses 52…64 in steps of 3).
	DistancesInches []float64
	// RefPower is the harvested power at 52 inches.
	RefPower units.Power
	// Capacitance of the storage capacitor.
	Capacitance units.Capacitance
	// Runs per configuration (energy-driven runs are slower than
	// timer-driven ones; the default sweep uses fewer).
	Runs int
	// BaseSeed offsets run seeds.
	BaseSeed int64
}

// DefaultFig13Config anchors the sweep so that 52 inches sustains the FIR
// workload continuously, matching the left edge of the paper's figure:
// harvested power at 52 in (~0.8 mW) comfortably exceeds the workload's
// ~0.45 mW draw, and the steep near-ground path loss pushes the far
// distances into deficit. The WISP-scale capacitor gives a per-charge
// budget of a few microjoules, so each deficit crossing costs a recharge
// whose duration grows with distance.
func DefaultFig13Config() Fig13Config {
	return Fig13Config{
		DistancesInches: []float64{52, 55, 58, 61, 64},
		RefPower:        550 * units.Microwatt,
		Capacitance:     2700 * units.Nanofarad,
		Runs:            60,
		BaseSeed:        1,
	}
}

// Fig13Data holds mean execution times: [distance][config], indexed like
// OpConfigs.
type Fig13Data struct {
	Cfg   Fig13Config
	Times [][]time.Duration
	// Failures holds mean power-failure counts for context.
	Failures [][]float64
}

// Fig13 runs the sweep with the weather application (capture and
// transmit simulated by delay loops, exactly as §5.4.1 describes), whose
// Single/Timely operations give EaseIO per-charge-cycle savings.
func Fig13(cfg Fig13Config) (*Fig13Data, error) {
	if len(cfg.DistancesInches) == 0 {
		cfg = DefaultFig13Config()
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 60
	}
	out := &Fig13Data{Cfg: cfg}
	for _, d := range cfg.DistancesInches {
		times := make([]time.Duration, len(OpConfigs))
		fails := make([]float64, len(OpConfigs))
		for ki, oc := range OpConfigs {
			rc := Config{
				Runs:     cfg.Runs,
				BaseSeed: cfg.BaseSeed,
				Supply:   func() power.Supply { return fig13Supply(cfg, d) },
			}
			factory := func() (*apps.Bench, error) {
				wc := apps.DefaultWeatherConfig()
				wc.ExcludeWeights = oc.Exclude
				wc.DelayLoopSend = true
				return apps.NewWeatherApp(wc)
			}
			sum, err := RunMany(rc, factory, oc.Kind)
			if err != nil {
				return nil, fmt.Errorf("fig13 d=%.0f %s: %w", d, oc.Label, err)
			}
			times[ki] = sum.MeanWallTime
			fails[ki] = float64(sum.PowerFailures) / float64(sum.Runs)
		}
		out.Times = append(out.Times, times)
		out.Failures = append(out.Failures, fails)
	}
	return out, nil
}

// fig13Supply returns the harvested supply at d inches: the RF harvester
// scaled to cfg.RefPower, cfg's capacitor, starting at the boot threshold.
func fig13Supply(cfg Fig13Config, d float64) *power.Harvested {
	h := energy.DefaultRF(d)
	h.RefPower = cfg.RefPower
	s := power.NewHarvested(h)
	s.Cap.C = cfg.Capacitance
	s.StartAtVon = true
	s.Jitter = 0.15 // per-run channel fading
	s.Reset(0)
	return s
}

// Render prints per-distance wall-clock completion-time differences
// against EaseIO/Op., like the paper's bar groups. Wall time includes
// recharge periods: that is what a harvested deployment observes.
func (d *Fig13Data) Render() string {
	header := []string{"Distance (in)"}
	for _, oc := range OpConfigs {
		header = append(header, "Δt "+oc.Label+" (ms)")
	}
	header = append(header, "PF/run (Alpaca)")
	rows := make([][]string, len(d.Times))
	for di, times := range d.Times {
		ref := times[0] // EaseIO/Op.
		row := []string{fmt.Sprintf("%.0f", d.Cfg.DistancesInches[di])}
		for _, t := range times {
			row = append(row, fmtMS(t-ref))
		}
		row = append(row, fmt.Sprintf("%.2f", d.Failures[di][len(OpConfigs)-1]))
		rows[di] = row
	}
	return "Figure 13 — execution time difference vs EaseIO/Op. under the RF harvester\n" +
		Table(header, rows)
}

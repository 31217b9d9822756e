// Diurnal throughput (extension): how many application iterations each
// runtime completes on one synthetic solar day. The paper's Figure 1
// motivates everything with exactly this picture — unpredictable energy,
// "important to ensure efficient use of energy in order to ensure maximum
// program progress" — and this experiment measures program progress
// directly: completions per day.

package experiments

import (
	"fmt"
	"strings"
	"time"

	"easeio/internal/apps"
	"easeio/internal/energy"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/units"
)

// DiurnalConfig parameterizes the solar-day throughput run.
type DiurnalConfig struct {
	// Solar is the irradiance profile.
	Solar energy.SolarConfig
	// Capacitance of the storage capacitor.
	Capacitance units.Capacitance
	// Budget is the wall-clock horizon (one day by default).
	Budget time.Duration
	// Runs averages over cloud seeds.
	Runs int
}

// DefaultDiurnalConfig pairs the compressed solar day with a WISP-scale
// capacitor.
func DefaultDiurnalConfig() DiurnalConfig {
	return DiurnalConfig{
		Solar:       energy.DefaultSolarConfig(),
		Capacitance: 2200 * units.Nanofarad,
		Budget:      10 * time.Second,
		Runs:        10,
	}
}

// DiurnalRow is one runtime's day.
type DiurnalRow struct {
	Runtime string
	// Completions is the mean number of full app executions per day.
	Completions float64
	// Failures is the mean power-failure count per day.
	Failures float64
	// OnFraction is powered-on time over the whole day.
	OnFraction float64
}

// Diurnal measures Single-semantics DMA-app completions over one solar
// day per configuration (the workload whose dominant operation EaseIO can
// skip; the sensitivity sweep covers how the advantage scales with
// failure density).
func Diurnal(cfg DiurnalConfig) ([]DiurnalRow, error) {
	if cfg.Budget <= 0 {
		cfg = DefaultDiurnalConfig()
	}
	kinds := []RuntimeKind{Alpaca, InK, EaseIO}
	var out []DiurnalRow
	for _, k := range kinds {
		var comps, fails, onFrac float64
		for run := 0; run < cfg.Runs; run++ {
			scfg := cfg.Solar
			scfg.Seed = uint64(run + 1)
			completions, failures, on, err := dayRun(cfg, scfg, k)
			if err != nil {
				return nil, fmt.Errorf("diurnal %s run %d: %w", k, run, err)
			}
			comps += float64(completions)
			fails += float64(failures)
			onFrac += on
		}
		n := float64(cfg.Runs)
		out = append(out, DiurnalRow{
			Runtime:     k.String(),
			Completions: comps / n,
			Failures:    fails / n,
			OnFraction:  onFrac / n,
		})
	}
	return out, nil
}

// dayRun executes the weather app back to back until the day's budget is
// spent. The device's clock, capacitor and cloud pattern persist across
// app executions; only the runtime's application state is re-attached.
func dayRun(cfg DiurnalConfig, scfg energy.SolarConfig, k RuntimeKind) (completions, failures int, onFraction float64, err error) {
	supply := power.NewHarvested(energy.NewSolar(scfg))
	supply.Cap.C = cfg.Capacitance
	supply.StartAtVon = true
	supply.MaxOff = cfg.Budget
	supply.Reset(1)

	var wall, on time.Duration
	for wall < cfg.Budget {
		bench, berr := apps.NewDMAApp(apps.DefaultDMAConfig())
		if berr != nil {
			return 0, 0, 0, berr
		}
		sess := kernel.NewSession(NewRuntime(k), bench.App, &resumedSupply{Supply: supply, base: wall})
		run, rerr := sess.Run(int64(completions) + 1)
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		wall += run.WallTime
		on += run.OnTime
		failures += run.PowerFailures
		if run.Stuck {
			// The harvester cannot boot the device again: the day ends here.
			break
		}
		if wall <= cfg.Budget {
			completions++
		}
	}
	return completions, failures, float64(on) / float64(cfg.Budget), nil
}

// resumedSupply offsets a shared harvested supply's notion of wall time so
// that back-to-back app executions see a continuous solar day rather than
// each starting at dawn. Reset is swallowed: capacitor charge persists
// across executions.
type resumedSupply struct {
	Supply *power.Harvested
	base   time.Duration
}

// Reset implements power.Supply (state persists across app executions).
func (r *resumedSupply) Reset(int64) {}

// Step implements power.Supply.
func (r *resumedSupply) Step(wall, onTime, dt time.Duration, e units.Energy) bool {
	return r.Supply.Step(r.base+wall, onTime, dt, e)
}

// Recharge implements power.Supply.
func (r *resumedSupply) Recharge(wall time.Duration) (time.Duration, bool) {
	return r.Supply.Recharge(r.base + wall)
}

// RenderDiurnal prints the day's throughput.
func RenderDiurnal(rows []DiurnalRow) string {
	header := []string{"Runtime", "Completions/day", "Failures/day", "On fraction"}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Runtime,
			fmt.Sprintf("%.1f", r.Completions),
			fmt.Sprintf("%.1f", r.Failures),
			fmt.Sprintf("%.0f%%", 100*r.OnFraction)}
	}
	var b strings.Builder
	b.WriteString("Diurnal — DMA-app completions over one synthetic solar day\n")
	b.WriteString(Table(header, out))
	return b.String()
}

// DiurnalDataset exports the day's throughput.
func DiurnalDataset(rows []DiurnalRow) Dataset {
	ds := Dataset{
		Name:   "diurnal",
		Title:  "Diurnal solar-day throughput",
		Header: []string{"runtime", "completions_per_day", "failures_per_day", "on_fraction"},
	}
	for _, r := range rows {
		ds.Rows = append(ds.Rows, []string{r.Runtime,
			fmt.Sprintf("%.2f", r.Completions),
			fmt.Sprintf("%.2f", r.Failures),
			fmt.Sprintf("%.3f", r.OnFraction)})
	}
	return ds
}

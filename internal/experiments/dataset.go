// Dataset: a uniform tabular view of every experiment's results, used for
// CSV export (easeio-bench -csv) alongside the human-oriented renderers.

package experiments

import (
	"encoding/csv"
	"fmt"
	"strings"

	"easeio/internal/apps"
	"easeio/internal/stats"
)

// Dataset is one experiment's results as named columns.
type Dataset struct {
	// Name is a file-system-friendly identifier ("table4", "fig7").
	Name string
	// Title describes the dataset.
	Title  string
	Header []string
	Rows   [][]string
}

// CSV renders the dataset as RFC-4180 CSV with a header row.
func (d Dataset) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	// Errors are impossible when writing to a strings.Builder, but keep
	// the protocol honest.
	if err := w.Write(d.Header); err != nil {
		panic(err)
	}
	if err := w.WriteAll(d.Rows); err != nil {
		panic(err)
	}
	w.Flush()
	return b.String()
}

// Render prints the dataset as an aligned text table.
func (d Dataset) Render() string {
	return d.Title + "\n" + Table(d.Header, d.Rows)
}

// workRow flattens one summary into the shared column set.
func workRow(label string, s stats.Summary) []string {
	return []string{
		label,
		fmtMS(s.Work[stats.App].T),
		fmtMS(s.Work[stats.Overhead].T),
		fmtMS(s.Work[stats.Wasted].T),
		fmtMS(s.MeanTotalTime()),
		fmtMS(s.P50TotalTime),
		fmtMS(s.P95TotalTime),
		fmtUJ(s.MeanEnergy),
		fmt.Sprintf("%d", s.PowerFailures),
		fmt.Sprintf("%d", s.IORepeats+s.DMARepeats),
		fmt.Sprintf("%d", s.IOSkips+s.DMASkips),
		fmt.Sprintf("%d", s.IncorrectRuns),
	}
}

var workHeader = []string{"config", "app_ms", "overhead_ms", "wasted_ms",
	"total_ms", "p50_ms", "p95_ms", "energy_uJ", "power_failures",
	"redundant_reexecs", "skips", "incorrect_runs"}

// Dataset exports the phase-1 sweep (Figures 7/8 and Table 4 in one
// table).
func (d *UniTaskData) Dataset() Dataset {
	ds := Dataset{
		Name:   "unitask",
		Title:  "Phase 1 — uni-task applications (Figs 7, 8; Table 4)",
		Header: workHeader,
	}
	for ci, c := range d.Cases {
		for ki, k := range UniTaskKinds {
			ds.Rows = append(ds.Rows, workRow(c.Label+"/"+k.String(), d.Summaries[ci][ki]))
		}
	}
	return ds
}

// Dataset exports the phase-2 sweep (Figures 10/11/12 in one table).
func (d *MultiTaskData) Dataset() Dataset {
	ds := Dataset{
		Name:   "multitask",
		Title:  "Phase 2 — multi-task applications (Figs 10, 11, 12)",
		Header: workHeader,
	}
	for ci, c := range d.Cases {
		for ki, oc := range OpConfigs {
			ds.Rows = append(ds.Rows, workRow(c.Label+"/"+oc.Label, d.Summaries[ci][ki]))
		}
	}
	return ds
}

// Dataset exports Table 5.
func (d *Table5Data) Dataset() Dataset {
	ds := Dataset{
		Name:  "table5",
		Title: "Table 5 — weather classifier, double vs single buffer",
		Header: []string{"runtime", "buffers", "cont_ms", "int_ms",
			"incorrect_runs", "runs"},
	}
	for _, r := range d.Rows {
		// Fixed mode order: ranging over the map would make the CSV row
		// order nondeterministic.
		for _, mode := range []apps.BufferMode{apps.DoubleBuffer, apps.SingleBuffer} {
			cont, ok := r.Cont[mode]
			if !ok {
				continue
			}
			ds.Rows = append(ds.Rows, []string{
				r.Kind.String(), mode.String(), fmtMS(cont), fmtMS(r.Int[mode]),
				fmt.Sprintf("%d", r.Incorrect[mode]), fmt.Sprintf("%d", r.Runs),
			})
		}
	}
	return ds
}

// Dataset exports Table 6.
func (d *Table6Data) Dataset() Dataset {
	ds := Dataset{
		Name:   "table6",
		Title:  "Table 6 — memory and code size (bytes)",
		Header: []string{"app", "runtime", "text_B", "ram_B", "fram_B"},
	}
	for ai, label := range d.Apps {
		for ki, k := range Table6Kinds {
			c := d.Cells[ai][ki]
			ds.Rows = append(ds.Rows, []string{label, k.String(),
				fmt.Sprintf("%d", c.Text), fmt.Sprintf("%d", c.RAM),
				fmt.Sprintf("%d", c.FRAM)})
		}
	}
	return ds
}

// Dataset exports the Figure 13 sweep.
func (d *Fig13Data) Dataset() Dataset {
	ds := Dataset{
		Name:   "fig13",
		Title:  "Figure 13 — RF harvester distance sweep (wall-clock ms)",
		Header: []string{"distance_in", "config", "wall_ms", "dt_vs_op_ms", "pf_per_run"},
	}
	for di, times := range d.Times {
		ref := times[0]
		for ki, oc := range OpConfigs {
			ds.Rows = append(ds.Rows, []string{
				fmt.Sprintf("%.0f", d.Cfg.DistancesInches[di]),
				oc.Label, fmtMS(times[ki]), fmtMS(times[ki] - ref),
				fmt.Sprintf("%.2f", d.Failures[di][ki]),
			})
		}
	}
	return ds
}

// SensitivityDataset exports the sensitivity sweep.
func SensitivityDataset(points []SensitivityPoint) Dataset {
	ds := Dataset{
		Name:  "sensitivity",
		Title: "Sensitivity — EaseIO advantage vs energy-cycle length",
		Header: []string{"interval_scale", "alpaca_total_ms", "easeio_total_ms",
			"speedup", "alpaca_pf_per_run", "easeio_pf_per_run"},
	}
	for _, p := range points {
		ds.Rows = append(ds.Rows, []string{
			fmt.Sprintf("%.1f", p.Scale),
			fmtMS(p.Alpaca.MeanTotalTime()), fmtMS(p.EaseIO.MeanTotalTime()),
			fmt.Sprintf("%.3f", p.Speedup()),
			fmt.Sprintf("%.3f", float64(p.Alpaca.PowerFailures)/float64(p.Alpaca.Runs)),
			fmt.Sprintf("%.3f", float64(p.EaseIO.PowerFailures)/float64(p.EaseIO.Runs)),
		})
	}
	return ds
}

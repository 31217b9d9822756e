// Phase 2 of the evaluation (§5.4): the FIR filter and the DNN weather
// classifier, including the "EaseIO/Op." Exclude configuration. One sweep
// feeds Figure 10 (time breakdown), Figure 11 (energy) and Figure 12 (FIR
// correctness).

package experiments

import (
	"fmt"
	"strings"

	"easeio/internal/apps"
	"easeio/internal/stats"
)

// OpConfig is one configuration compared in phase 2 and Figure 13: a
// runtime plus whether the app is built with its Exclude annotations
// enabled. Label is the paper's legend entry.
type OpConfig struct {
	Label   string
	Kind    RuntimeKind
	Exclude bool
}

// OpConfigs are the configurations of Figures 10–13, in the paper's
// legend order. "EaseIO/Op." is EaseIO on the Exclude-annotated app.
var OpConfigs = []OpConfig{
	{"EaseIO/Op.", EaseIO, true},
	{"EaseIO", EaseIO, false},
	{"InK", InK, false},
	{"Alpaca", Alpaca, false},
}

// MultiTaskCase is one phase-2 benchmark.
type MultiTaskCase struct {
	Label string
	// New builds the app; excludeOps enables the application's Exclude
	// annotations (the "EaseIO/Op." configuration).
	New func(excludeOps bool) (*apps.Bench, error)
}

// MultiTaskCases returns the two phase-2 benchmarks.
func MultiTaskCases() []MultiTaskCase {
	return []MultiTaskCase{
		{Label: "FIR Filter", New: func(ex bool) (*apps.Bench, error) {
			cfg := apps.DefaultFIRConfig()
			cfg.ExcludeCoef = ex
			return apps.NewFIRApp(cfg)
		}},
		{Label: "Weather App.", New: func(ex bool) (*apps.Bench, error) {
			cfg := apps.DefaultWeatherConfig()
			cfg.ExcludeWeights = ex
			return apps.NewWeatherApp(cfg)
		}},
	}
}

// MultiTaskData is the phase-2 sweep result: [case][config] summaries,
// indexed like OpConfigs.
type MultiTaskData struct {
	Cases     []MultiTaskCase
	Summaries [][]stats.Summary
}

// MultiTask runs the phase-2 sweep.
func MultiTask(cfg Config) (*MultiTaskData, error) {
	cases := MultiTaskCases()
	out := &MultiTaskData{Cases: cases, Summaries: make([][]stats.Summary, len(cases))}
	for ci, c := range cases {
		out.Summaries[ci] = make([]stats.Summary, len(OpConfigs))
		for ki, oc := range OpConfigs {
			factory := func() (*apps.Bench, error) { return c.New(oc.Exclude) }
			s, err := RunMany(cfg, factory, oc.Kind)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", c.Label, oc.Label, err)
			}
			out.Summaries[ci][ki] = s
		}
	}
	return out, nil
}

// RenderFigure10 prints the phase-2 execution-time breakdown.
func (d *MultiTaskData) RenderFigure10() string {
	var b strings.Builder
	b.WriteString("Figure 10 — execution time, runtime overhead and wasted work (multi-task)\n")
	for ci, c := range d.Cases {
		fmt.Fprintf(&b, "%s:\n", c.Label)
		scale := BarScale(d.Summaries[ci])
		for ki, oc := range OpConfigs {
			b.WriteString(StackedBar(oc.Label, d.Summaries[ci][ki].Work, scale, 48))
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigure11 prints average energy for the multi-task apps.
func (d *MultiTaskData) RenderFigure11() string {
	header := []string{"App"}
	for _, oc := range OpConfigs {
		header = append(header, oc.Label+" (µJ)")
	}
	rows := make([][]string, len(d.Cases))
	for ci, c := range d.Cases {
		row := []string{c.Label}
		for ki := range OpConfigs {
			row = append(row, fmtUJ(d.Summaries[ci][ki].MeanEnergy))
		}
		rows[ci] = row
	}
	return "Figure 11 — average energy per execution (multi-task)\n" + Table(header, rows)
}

// RenderFigure12 prints FIR correctness counts, like Figure 12.
func (d *MultiTaskData) RenderFigure12() string {
	fir := d.Summaries[0]
	header := []string{"Runtime", "Correct", "Incorrect", "Incorrect %"}
	// The paper's Figure 12 compares EaseIO, InK and Alpaca.
	rows := [][]string{}
	for ki, oc := range OpConfigs {
		if oc.Exclude {
			continue
		}
		s := fir[ki]
		rows = append(rows, []string{
			oc.Label,
			fmt.Sprintf("%d", s.CorrectRuns),
			fmt.Sprintf("%d", s.IncorrectRuns),
			pct(s.IncorrectRuns, s.Runs),
		})
	}
	return "Figure 12 — correct and incorrect executions of the FIR filter\n" +
		Table(header, rows)
}

package experiments

import (
	"testing"

	"easeio/internal/stats"
)

// TestReproductionHeadlines pins the paper's headline claims at reduced
// run counts, with bands wide enough for sampling noise but tight enough
// that a regression in any runtime or the cost model trips them. The
// full-resolution record lives in EXPERIMENTS.md.
func TestReproductionHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction sweep skipped in -short mode")
	}
	cfg := Config{Runs: 300, BaseSeed: 7}

	uni, err := UniTask(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		iAlpaca = 0
		iInK    = 1
		iEaseIO = 2
	)

	// Figure 7a / §1: EaseIO cuts the Single benchmark's total execution
	// time by ~44 % ("up to 44%").
	alp := uni.Summaries[0][iAlpaca]
	ease := uni.Summaries[0][iEaseIO]
	if ratio := float64(ease.MeanTotalTime()) / float64(alp.MeanTotalTime()); ratio > 0.70 || ratio < 0.40 {
		t.Errorf("fig7a total-time ratio = %.2f, want ≈ 0.56 (the paper's −44%%)", ratio)
	}

	// §1: EaseIO avoids ~76 % of redundant I/O on Single.
	alpRe := alp.IORepeats + alp.DMARepeats
	easeRe := ease.IORepeats + ease.DMARepeats
	if red := 1 - float64(easeRe)/float64(alpRe); red < 0.55 || red > 0.85 {
		t.Errorf("Single redundant-I/O reduction = %.0f%%, want ≈ 69-76%%", 100*red)
	}

	// Table 4: Timely reduction ≈ 43 %.
	alpT := uni.Summaries[1][iAlpaca]
	easeT := uni.Summaries[1][iEaseIO]
	if red := 1 - float64(easeT.IORepeats)/float64(alpT.IORepeats); red < 0.25 || red > 0.60 {
		t.Errorf("Timely redundant-I/O reduction = %.0f%%, want ≈ 42%%", 100*red)
	}

	// Figure 7c: Always is parity (±5 %).
	alpL := uni.Summaries[2][iAlpaca].MeanTotalTime()
	easeL := uni.Summaries[2][iEaseIO].MeanTotalTime()
	if r := float64(easeL) / float64(alpL); r < 0.95 || r > 1.05 {
		t.Errorf("fig7c ratio = %.3f, want parity", r)
	}

	// §5.3.1: EaseIO's overhead exceeds the baselines' (the price of the
	// flag machinery), for every uni-task case.
	for ci := range uni.Cases {
		if uni.Summaries[ci][iEaseIO].Work[stats.Overhead].T <=
			uni.Summaries[ci][iAlpaca].Work[stats.Overhead].T {
			t.Errorf("%s: EaseIO overhead not above Alpaca's", uni.Cases[ci].Label)
		}
	}

	multi, err := MultiTask(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// OpConfigs order: EaseIO/Op., EaseIO, InK, Alpaca.
	fir, weather := multi.Summaries[0], multi.Summaries[1]

	// Figure 12: EaseIO zero incorrect; baselines 10–35 % incorrect.
	if fir[1].IncorrectRuns != 0 {
		t.Errorf("fig12: EaseIO incorrect = %d, want 0", fir[1].IncorrectRuns)
	}
	for _, ki := range []int{2, 3} {
		frac := float64(fir[ki].IncorrectRuns) / float64(fir[ki].Runs)
		if frac < 0.10 || frac > 0.35 {
			t.Errorf("fig12: %s incorrect fraction = %.2f, want ≈ 0.16-0.22",
				OpConfigs[ki].Label, frac)
		}
	}

	// §5.4.2 / Figure 10: weather wasted work cut ≈ 3×.
	if ratio := float64(weather[3].Work[stats.Wasted].T) /
		float64(weather[1].Work[stats.Wasted].T); ratio < 2.0 {
		t.Errorf("weather wasted-work factor = %.1f, want ≥ 2 (paper: up to 3×)", ratio)
	}

	// Figure 10: EaseIO/Op. ≤ EaseIO (Exclude only removes overhead).
	if multi.Summaries[0][0].Work[stats.Overhead].T > multi.Summaries[0][1].Work[stats.Overhead].T {
		t.Error("fir: EaseIO/Op. overhead above plain EaseIO")
	}

	// Figure 11: EaseIO uses less energy than the baselines on both apps.
	for ci, label := range []string{"fir", "weather"} {
		if multi.Summaries[ci][1].MeanEnergy >= multi.Summaries[ci][3].MeanEnergy {
			t.Errorf("%s: EaseIO energy not below Alpaca's", label)
		}
	}
}

// TestReproductionTable6Shape pins the memory-report structure.
func TestReproductionTable6Shape(t *testing.T) {
	data, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for ai, label := range data.Apps {
		idx[label] = ai
	}
	// DMA-free apps: EaseIO FRAM metadata within tens of bytes (§5.4.5's
	// "6-byte overhead" observation; ours carries per-site flags too).
	for _, app := range []string{"LEA", "Temp."} {
		if got := data.Cells[idx[app]][2].FRAM; got > 100 {
			t.Errorf("%s: EaseIO FRAM = %dB, want tiny (no DMA buffer)", app, got)
		}
	}
	// DMA app: EaseIO carries the 4 KB privatization buffer.
	dma := idx["DMA"]
	if diff := data.Cells[dma][2].FRAM - data.Cells[dma][0].FRAM; diff < 4096 {
		t.Errorf("DMA: EaseIO-Alpaca FRAM delta = %dB, want ≥ 4096 (the buffer)", diff)
	}
	// InK's double buffering dominates FRAM on every app with real state.
	if data.Cells[dma][1].FRAM <= data.Cells[dma][0].FRAM {
		t.Error("DMA: InK FRAM not above Alpaca's")
	}
	// EaseIO costs ≈ +1 KB of code on the weather app.
	w := idx["Weather App."]
	if diff := data.Cells[w][2].Text - data.Cells[w][0].Text; diff < 500 {
		t.Errorf("weather: EaseIO-Alpaca text delta = %dB, want ≥ 500", diff)
	}
}

// TestReproductionFig13Shape pins the harvested sweep's structure.
func TestReproductionFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig13 sweep skipped in -short mode")
	}
	cfg := DefaultFig13Config()
	cfg.Runs = 30
	d, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failures[0][3] != 0 {
		t.Errorf("failures at the nearest distance: %v", d.Failures[0][3])
	}
	last := len(d.Times) - 1
	if d.Failures[last][3] == 0 {
		t.Error("no failures at the farthest distance")
	}
	if d.Times[last][3] <= d.Times[last][0] {
		t.Errorf("far distance: Alpaca %v not slower than EaseIO/Op. %v",
			d.Times[last][3], d.Times[last][0])
	}
	// Failure counts grow with distance for every runtime.
	for ki, oc := range OpConfigs {
		if d.Failures[0][ki] > d.Failures[last][ki] {
			t.Errorf("%s: failures decrease with distance", oc.Label)
		}
	}
}

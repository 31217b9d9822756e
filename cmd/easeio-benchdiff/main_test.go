package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	gateName  = "BenchmarkSweepThroughput/pooled"
	checkName = "BenchmarkCheckThroughput/weather/checkpointed"
)

// TestParseBench pins the parser's contract for the sweep gate, whose
// ledger tracks allocs/run: exact-name lines with both metrics score
// best-of; a GOMAXPROCS-suffixed name or a matched line missing a metric
// is a hard parse error (the gate must never pass on output it cannot
// compare against the ledger); everything else is skipped silently.
func TestParseBench(t *testing.T) {
	cases := []struct {
		name       string
		input      string
		wantLines  int
		wantRate   float64
		wantAllocs float64
		wantErr    string
	}{
		{
			name:       "single line",
			input:      "BenchmarkSweepThroughput/pooled 200 60000 ns/op 290000 runs/s 3.00 allocs/run\n",
			wantLines:  1,
			wantRate:   290000,
			wantAllocs: 3,
		},
		{
			name: "best of repetitions",
			input: "BenchmarkSweepThroughput/pooled 200 60000 ns/op 280000 runs/s 4.00 allocs/run\n" +
				"BenchmarkSweepThroughput/pooled 200 60000 ns/op 291000 runs/s 3.00 allocs/run\n" +
				"BenchmarkSweepThroughput/pooled 200 60000 ns/op 285000 runs/s 3.50 allocs/run\n",
			wantLines:  3,
			wantRate:   291000,
			wantAllocs: 3,
		},
		{
			name: "unrelated lines skipped",
			input: "goos: linux\n" +
				"BenchmarkCheckThroughput/fig6 100 1000 ns/op\n" +
				"BenchmarkSweepThroughput/pooled 200 60000 ns/op 290000 runs/s 3.00 allocs/run\n" +
				"PASS\n",
			wantLines:  1,
			wantRate:   290000,
			wantAllocs: 3,
		},
		{
			name:    "missing allocs column",
			input:   "BenchmarkSweepThroughput/pooled 200 60000 ns/op 290000 runs/s\n",
			wantErr: "no allocs/run metric",
		},
		{
			name:    "missing rate column",
			input:   "BenchmarkSweepThroughput/pooled 200 60000 ns/op 3.00 allocs/run\n",
			wantErr: "no runs/s metric",
		},
		{
			name:    "cpu-suffixed name",
			input:   "BenchmarkSweepThroughput/pooled-8 200 60000 ns/op 290000 runs/s 3.00 allocs/run\n",
			wantErr: "GOMAXPROCS suffix",
		},
		{
			name: "mixed good line does not mask a broken one",
			input: "BenchmarkSweepThroughput/pooled 200 60000 ns/op 290000 runs/s 3.00 allocs/run\n" +
				"BenchmarkSweepThroughput/pooled 200 60000 ns/op 295000 runs/s\n",
			wantErr: "no allocs/run metric",
		},
		{
			name:      "non-numeric suffix is a different benchmark",
			input:     "BenchmarkSweepThroughput/pooled-batch 200 60000 ns/op 290000 runs/s 3.00 allocs/run\n",
			wantLines: 0,
		},
		{
			name:      "empty input",
			input:     "",
			wantLines: 0,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, lines, err := parseBench(strings.NewReader(tc.input), gateName, "runs/s", true)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseBench: %v", err)
			}
			if lines != tc.wantLines {
				t.Fatalf("matched %d lines, want %d", lines, tc.wantLines)
			}
			if tc.wantLines == 0 {
				return
			}
			if got.rate != tc.wantRate || got.allocsPerRun != tc.wantAllocs {
				t.Fatalf("best = %.0f runs/s, %.2f allocs/run; want %.0f, %.2f",
					got.rate, got.allocsPerRun, tc.wantRate, tc.wantAllocs)
			}
			if !got.hasRate || !got.hasAllocs {
				t.Fatalf("metrics incomplete: %+v", got)
			}
		})
	}
}

// TestParseCheckBench pins the checker gate: its lines carry points/s
// and no allocs/run, which is fine because its ledger tracks none, while
// a line without the rate or with a GOMAXPROCS suffix still fails.
func TestParseCheckBench(t *testing.T) {
	in := "BenchmarkCheckThroughput/fig6/checkpointed 100 1000 ns/op 120000 points/s\n" +
		checkName + " 10 127000000 ns/op 45020 points/s\n" +
		checkName + " 10 126000000 ns/op 45500 points/s\n" +
		"BenchmarkCheckThroughput/weather/k2/checkpointed 5 251000000 ns/op 45748 points/s\n"
	got, lines, err := parseBench(strings.NewReader(in), checkName, "points/s", false)
	if err != nil || lines != 2 || got.rate != 45500 || got.hasAllocs {
		t.Fatalf("parseBench = %+v over %d lines, %v; want 45500 points/s over 2 lines", got, lines, err)
	}
	for bad, want := range map[string]string{
		checkName + " 10 127000000 ns/op\n":                  "no points/s metric",
		checkName + " 10 127000000 ns/op 45020 runs/s\n":     "no points/s metric",
		checkName + "-2 10 127000000 ns/op 45020 points/s\n": "GOMAXPROCS suffix",
	} {
		if _, _, err := parseBench(strings.NewReader(bad), checkName, "points/s", false); err == nil ||
			!strings.Contains(err.Error(), want) {
			t.Errorf("parseBench(%q) error = %v, want one containing %q", bad, err, want)
		}
	}
}

// TestMedian pins the paired gate's statistic: the middle value of an
// odd count, the mean of the two middle values of an even one, in any
// order.
func TestMedian(t *testing.T) {
	if got := median([]float64{300, 100, 200}); got != 200 {
		t.Errorf("median of 300, 100, 200 = %v, want 200", got)
	}
	if got := median([]float64{300, 100, 1000, 200}); got != 250 {
		t.Errorf("median of 300, 100, 1000, 200 = %v, want 250", got)
	}
}

// TestPaired pins the paired gate: line i of each file is pair i, the
// gate scores the median pair ratio (a host slow for the whole base
// side in one pair does not sink it), and sides that do not pair up are
// a usage error.
func TestPaired(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rates ...int) string {
		var b strings.Builder
		for _, r := range rates {
			fmt.Fprintf(&b, "%s 500 1 ns/op 3.00 allocs/run %d runs/s\n", gateName, r)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", 100, 200, 400)
	for _, tc := range []struct {
		head  []int
		floor float64
		want  int
	}{
		{[]int{100, 200, 100}, 0.9, 0}, // ratios 1, 1, 0.25
		{[]int{80, 160, 400}, 0.9, 1},  // ratios 0.8, 0.8, 1
		{[]int{80, 160, 400}, 0.75, 0},
		{[]int{100, 200}, 0.9, 2},
	} {
		if got := paired(write("head", tc.head...), base, gateName, "runs/s", tc.floor); got != tc.want {
			t.Errorf("paired(%v vs 100 200 400, floor %.2f) = %d, want %d", tc.head, tc.floor, got, tc.want)
		}
	}
}

// TestLedgersReadable reads the tracked datapoints the make bench-gate
// invocations gate on: the sweep ledger tracks runs/s and allocs/run,
// the checker ledger points/s alone.
func TestLedgersReadable(t *testing.T) {
	for _, tc := range []struct {
		path, key, unit string
		allocs          bool
	}{
		{"../../BENCH_sweep.json", "pooled", "runs/s", true},
		{"../../BENCH_check.json", "weather/checkpointed", "points/s", false},
	} {
		m, _, err := readBaseline(tc.path, tc.key, tc.unit)
		if err != nil {
			t.Errorf("%s: %v", tc.path, err)
			continue
		}
		if !m.hasRate || m.rate <= 0 || m.hasAllocs != tc.allocs {
			t.Errorf("%s[%s] = %+v, want a positive %s and allocs tracked=%v", tc.path, tc.key, m, tc.unit, tc.allocs)
		}
	}
	if _, _, err := readBaseline("../../BENCH_check.json", "weather/checkpointed", "runs/s"); err == nil {
		t.Error("a unit the ledger does not track was accepted")
	}
}

// TestIsCPUSuffixed covers the suffix detector's edges.
func TestIsCPUSuffixed(t *testing.T) {
	cases := []struct {
		got  string
		want bool
	}{
		{gateName + "-8", true},
		{gateName + "-16", true},
		{gateName, false},
		{gateName + "-", false},
		{gateName + "-8x", false},
		{gateName + "-batch", false},
		{"Benchmark-8", false},
	}
	for _, tc := range cases {
		if got := isCPUSuffixed(tc.got, gateName); got != tc.want {
			t.Errorf("isCPUSuffixed(%q) = %v, want %v", tc.got, got, tc.want)
		}
	}
}

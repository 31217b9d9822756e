// Command easeio-benchdiff is the CI bench-regression gate: it parses
// `go test -bench` output for the gated benchmark, compares the measured
// rate (and, where the ledger tracks it, the allocation count) against
// the latest tracked datapoint in one of the repository's benchmark
// ledgers (BENCH_sweep.json, BENCH_check.json), and exits non-zero when
// the measurement regresses past the tolerances.
//
// Usage:
//
//	easeio-benchdiff [-bench FILE] [-baseline FILE] [-name NAME]
//	                 [-key NAME] [-unit UNIT] [-min-ratio R] [-alloc-slack N]
//	easeio-benchdiff -bench FILE -base-bench FILE [-name NAME] [-unit UNIT]
//	                 [-min-ratio R]
//
// -bench reads the benchmark output ("-" or empty reads stdin). Lines
// whose first field is exactly -name are parsed for the rate metric -unit
// (default "runs/s"; the checker bench reports "points/s") and for
// "allocs/run" (the value is the field preceding the unit). With
// -count > 1 several lines match; the gate scores the best of them — max
// rate, min allocs/run — because the gate asks "can this commit still
// reach the tracked rate", and the minimum over repetitions is noise, not
// capability. A matched line missing a gated metric is a parse error,
// not a skip: a gate that silently scores half a line (or passes on
// none) hides a broken bench invocation. So is a line whose name carries
// the testing package's -N GOMAXPROCS suffix ("…/pooled-8"): the ledgers
// are recorded at -cpu 1, so a suffixed name means the bench ran without
// it and the numbers are not comparable.
//
// The baseline is datapoints[-1].results[key] of -baseline: the ledger
// appends a datapoint whenever performance changes materially, so the
// latest entry is the current expectation. The rate is read from the
// field named after -unit with "/" spelled "_per_" ("runs/s" reads
// runs_per_s, "points/s" reads points_per_s). allocs/run is gated only
// when the tracked result has an allocs_per_run field; the checker
// ledger has none, so its bench lines need not carry the metric.
//
// Tolerances: the run fails when the measured rate drops below
// -min-ratio times the tracked rate (default 0.75 — CI runners are
// slower and noisier than the machine that recorded the ledger), or when
// measured allocs/run exceeds the tracked count by more than
// -alloc-slack (default 2 — allocation counts are nearly deterministic,
// so even a small rise means a new allocation on a per-run path).
//
// Escape hatch: a PR that intentionally changes the gated performance (a
// slower-but-correct fix, or a speedup worth re-anchoring on) must
// refresh the ledger in the same PR — run the refresh command in the
// ledger's description and append the new datapoint with a note. The
// gate then compares future PRs against the new expectation.
//
// Paired mode (-base-bench): -bench holds the change's build and
// -base-bench the base build, run in alternating pairs on one host (make
// bench-pair), line i of each being pair i; the gate fails when the
// median pair ratio of their rates is below -min-ratio. Both runs of a
// pair see the host at one moment, which a ledger recorded elsewhere
// does not; allocations are left to the ledger gate.
//
// Exit status: 0 within tolerance, 1 on regression, 2 on usage or parse
// errors.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

type metrics struct {
	rate         float64
	allocsPerRun float64
	hasRate      bool
	hasAllocs    bool
}

func main() {
	var (
		benchPath  = flag.String("bench", "-", "benchmark output file (\"-\" = stdin)")
		basePath   = flag.String("baseline", "BENCH_sweep.json", "benchmark ledger with tracked datapoints")
		baseBench  = flag.String("base-bench", "", "benchmark output of the base build, run in alternating pairs with -bench; gates the median pair ratio instead of the ledger")
		name       = flag.String("name", "BenchmarkSweepThroughput/pooled", "exact benchmark name to gate on")
		key        = flag.String("key", "pooled", "results key of the tracked datapoint")
		unit       = flag.String("unit", "runs/s", "rate metric to gate (ledger field: unit with \"/\" as \"_per_\")")
		minRatio   = flag.Float64("min-ratio", 0.75, "minimum measured/tracked rate ratio")
		allocSlack = flag.Float64("alloc-slack", 2, "maximum allocs/run increase over tracked")
	)
	flag.Parse()

	if *baseBench != "" {
		os.Exit(paired(*benchPath, *baseBench, *name, *unit, *minRatio))
	}

	tracked, commit, err := readBaseline(*basePath, *key, *unit)
	if err != nil {
		fatalf(2, "benchdiff: %v", err)
	}

	in := io.Reader(os.Stdin)
	if *benchPath != "" && *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fatalf(2, "benchdiff: %v", err)
		}
		defer f.Close()
		in = f
	}
	got, lines, err := parseBench(in, *name, *unit, tracked.hasAllocs)
	if err != nil {
		fatalf(2, "benchdiff: %v", err)
	}
	if lines == 0 {
		fatalf(2, "benchdiff: no %q lines in benchmark output", *name)
	}

	fmt.Printf("benchdiff: %s over %d line(s): measured %.0f %s%s\n",
		*name, lines, got.rate, *unit, allocsNote(got))
	fmt.Printf("benchdiff: tracked (%s, %q): %.0f %s%s\n",
		*basePath, commit, tracked.rate, *unit, allocsNote(tracked))

	failed := false
	if floor := *minRatio * tracked.rate; got.rate < floor {
		fmt.Printf("benchdiff: FAIL: %.0f %s is below %.2fx the tracked rate (floor %.0f)\n",
			got.rate, *unit, *minRatio, floor)
		failed = true
	}
	if ceil := tracked.allocsPerRun + *allocSlack; tracked.hasAllocs && got.allocsPerRun > ceil {
		fmt.Printf("benchdiff: FAIL: %.2f allocs/run exceeds tracked %.2f + %.0f slack\n",
			got.allocsPerRun, tracked.allocsPerRun, *allocSlack)
		failed = true
	}
	if failed {
		fmt.Printf("benchdiff: if this change is intentional, refresh %s in the same PR (see its description for the refresh command) and document why in the datapoint note\n", *basePath)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: OK (rate %.2fx tracked", got.rate/tracked.rate)
	if tracked.hasAllocs {
		fmt.Printf(", allocs %+.2f", got.allocsPerRun-tracked.allocsPerRun)
	}
	fmt.Println(")")
}

// paired runs the paired gate (see the package doc) and returns its exit
// status; files that do not pair up are a usage error.
func paired(headPath, basePath, name, unit string, minRatio float64) int {
	var sides [2][]metrics
	for i, path := range []string{headPath, basePath} {
		raw, err := os.ReadFile(path)
		if err == nil {
			sides[i], err = parseLines(bytes.NewReader(raw), name, unit, false)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			return 2
		}
	}
	n := len(sides[0])
	if n == 0 || n != len(sides[1]) {
		fmt.Fprintf(os.Stderr, "benchdiff: %d %q lines in %s and %d in %s; want the same non-zero count\n",
			n, name, headPath, len(sides[1]), basePath)
		return 2
	}
	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = sides[0][i].rate / sides[1][i].rate
	}
	ratio := median(ratios)
	fmt.Printf("benchdiff: %s over %d pairs: median %s ratio %.2fx the base build\n", name, n, unit, ratio)
	if ratio < minRatio {
		fmt.Printf("benchdiff: FAIL: below the %.2fx floor\n", minRatio)
		return 1
	}
	fmt.Println("benchdiff: OK")
	return 0
}

// allocsNote formats m's allocs/run for the report lines, when it has one.
func allocsNote(m metrics) string {
	if !m.hasAllocs {
		return ""
	}
	return fmt.Sprintf(", %.2f allocs/run", m.allocsPerRun)
}

// parseBench returns the best measurement across parseLines' lines plus
// their count.
func parseBench(r io.Reader, name, unit string, needAllocs bool) (metrics, int, error) {
	ms, err := parseLines(r, name, unit, needAllocs)
	var best metrics
	for _, m := range ms {
		if !best.hasRate || m.rate > best.rate {
			best.rate, best.hasRate = m.rate, true
		}
		if needAllocs && (!best.hasAllocs || m.allocsPerRun < best.allocsPerRun) {
			best.allocsPerRun, best.hasAllocs = m.allocsPerRun, true
		}
	}
	return best, len(ms), err
}

// parseLines returns the measurement of every line of the gated
// benchmark in benchmark output. Only lines whose first field is
// exactly name count; a matched line that does not carry the unit rate
// (and allocs/run, when needAllocs), or a name wearing the testing
// package's -N GOMAXPROCS suffix, is an error — the gate must refuse to
// score output it cannot compare.
func parseLines(r io.Reader, name, unit string, needAllocs bool) ([]metrics, error) {
	var ms []metrics
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] != name {
			if isCPUSuffixed(fields[0], name) {
				return ms, fmt.Errorf(
					"benchmark name %q carries a GOMAXPROCS suffix (want exactly %q); run the bench with -cpu 1, the configuration the ledger was recorded at", fields[0], name)
			}
			continue
		}
		var m metrics
		for i := 0; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case unit:
				m.rate, m.hasRate = v, true
			case "allocs/run":
				m.allocsPerRun, m.hasAllocs = v, true
			}
		}
		switch {
		case !m.hasRate:
			return ms, fmt.Errorf(
				"benchmark line %q has no %s metric; the gate needs it on every %q line", line, unit, name)
		case needAllocs && !m.hasAllocs:
			return ms, fmt.Errorf(
				"benchmark line %q has no allocs/run metric; the ledger tracks it, so the gate needs it on every %q line", line, name)
		}
		ms = append(ms, m)
	}
	return ms, sc.Err()
}

// median returns the median of xs (non-empty), sorting xs.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// isCPUSuffixed reports whether got is name plus the "-N" suffix the
// testing package appends when GOMAXPROCS != 1 — the signature of a
// bench run without -cpu 1.
func isCPUSuffixed(got, name string) bool {
	rest, ok := strings.CutPrefix(got, name+"-")
	if !ok || rest == "" {
		return false
	}
	for _, r := range rest {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// readBaseline extracts the latest tracked datapoint's results[key]: the
// rate stored under unit's ledger field and, when present, allocs_per_run.
func readBaseline(path, key, unit string) (metrics, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return metrics{}, "", err
	}
	var ledger struct {
		Datapoints []struct {
			Commit  string                        `json:"commit"`
			Results map[string]map[string]float64 `json:"results"`
		} `json:"datapoints"`
	}
	if err := json.Unmarshal(raw, &ledger); err != nil {
		return metrics{}, "", fmt.Errorf("%s: %w", path, err)
	}
	if len(ledger.Datapoints) == 0 {
		return metrics{}, "", fmt.Errorf("%s: no datapoints", path)
	}
	last := ledger.Datapoints[len(ledger.Datapoints)-1]
	res, ok := last.Results[key]
	if !ok {
		return metrics{}, "", fmt.Errorf("%s: latest datapoint has no %q results", path, key)
	}
	field := strings.ReplaceAll(unit, "/", "_per_")
	if res[field] <= 0 {
		return metrics{}, "", fmt.Errorf("%s: tracked %s must be positive", path, field)
	}
	m := metrics{rate: res[field], hasRate: true}
	m.allocsPerRun, m.hasAllocs = res["allocs_per_run"]
	return m, last.Commit, nil
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

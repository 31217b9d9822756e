package main

// Compare mode: the rule for claiming a gain on a small, noisy host. Both
// files are JSON lines written with -record, alternating parent and change
// runs of the same benchmark settings; the i-th parent run of a workload
// pairs with the i-th change run of it.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// recorded is one -record line.
type recorded struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r recorded) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads the untraced runs of a file, grouped by workload in
// file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r recorded
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one workload × metric comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest alternating pairs a gain may rest on.
const minPairs = 10

// verdict applies the rule to one metric's paired values:
//   - improved: at least minPairs pairs, the change better in at least
//     nine tenths of them (ties count for neither), and the medians apart by
//     more than the parent's interquartile range, in the better direction;
//   - worse: the change's median worse than the parent's by more than the
//     bound (a share of the parent's median);
//   - unresolved: otherwise, when the parent's own spread (IQR over median)
//     exceeds the bound, unless every change run beats every parent run;
//   - unchanged: otherwise.
//
// It also returns the number of pairs the change won.
func verdict(parent, change []float64, higherBetter bool, bound float64) (string, int) {
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	n := min(len(parent), len(change))
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	if n >= minPairs && wins*10 >= 9*n && better(mc, mp) && math.Abs(mc-mp) > iqr {
		return improved, wins
	}
	if better(mp, mc) && math.Abs(mc-mp) > bound*math.Abs(mp) {
		return worse, wins
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if iqr > bound*math.Abs(mp) && !allBetter {
		return unresolved, wins
	}
	return unchanged, wins
}

// compareFiles prints one row per workload × end-to-end metric.
func compareFiles(w io.Writer, specPath, parentPath, changePath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-20s %5s %5s %14s %14s %14s %14s %s\n",
		"workload", "metric", "pairs", "wins", "parent_median", "parent_iqr", "change_median", "change_iqr", "verdict")
	for _, wl := range workloads {
		ps, cs := parent[wl.Name], change[wl.Name]
		if len(ps) == 0 || len(cs) == 0 {
			fmt.Fprintf(w, "%-15s (no runs in both files)\n", wl.Name)
			continue
		}
		for _, m := range spec.EndToEnd {
			var pv, cv []float64
			for _, r := range ps {
				pv = append(pv, r.Metrics[m.Name].Value)
			}
			for _, r := range cs {
				cv = append(cv, r.Metrics[m.Name].Value)
			}
			v, wins := verdict(pv, cv, m.Better == "higher", m.Bound)
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-15s %-20s %5d %5d %14.6g %14.6g %14.6g %14.6g %s\n",
				wl.Name, m.Name, min(len(pv), len(cv)), wins, median(pv), pq3-pq1, median(cv), cq3-cq1, v)
		}
	}
	return nil
}

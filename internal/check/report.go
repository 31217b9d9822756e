// The checker's result records and text renderers, following the
// experiments package's table idiom so check output sits next to the
// paper's figures in the CLI.

package check

import (
	"context"
	"fmt"
	"strings"
	"time"

	"easeio/internal/experiments"
)

// Divergence is one failure schedule whose replay did not match the
// golden run.
type Divergence struct {
	// At is the final injected failure's on-time; Index is its position
	// in its level's candidate enumeration (the golden cut list at level
	// 1, the expanded subtree's trajectory cut list below it).
	At    time.Duration
	Index int
	// Kind classifies the oracle that fired: "memory" (a non-volatile
	// word differs from golden), "output" (CheckOutput failed), "ledger"
	// (work accounting broke), "timely" (an input consumed past its
	// staleness bound, for apps declaring freshness bounds) or "error"
	// (the replay returned an error: it did not terminate, or app or
	// runtime code panicked).
	Kind string
	// Detail pins the first offending word, verdict or invariant.
	Detail string
	// Schedule is the full failure schedule (ascending cut on-times)
	// when it injects more than one failure — a failure-during-recovery
	// divergence. nil for single-failure divergences, where At is the
	// whole schedule.
	Schedule []time.Duration `json:",omitempty"`
}

// DepthStats books one nested exploration level (depth ≥ 2).
type DepthStats struct {
	// Depth is the number of failures per schedule at this level.
	Depth int
	// Expanded counts the subtree roots explored at this depth;
	// Collapsed counts the evaluated passing nodes represented by a
	// hash-identical expanded sibling (their subtrees were not
	// re-explored).
	Expanded  int
	Collapsed int
	// Candidates is the union of the expanded subtrees' trajectory cut
	// points; Explored of them were replayed, the rest pruned by the
	// per-subtree bisection.
	Candidates int
	Explored   int
	Pruned     int
}

// Report is the deterministic result of one checker run: same blueprint,
// config and seed ⇒ byte-identical Render output, regardless of Workers.
type Report struct {
	Header

	// Explored of the Candidates were replayed, the rest pruned by the
	// adaptive bisection.
	Explored int
	Pruned   int

	// Depths books the nested exploration levels (empty for k=1
	// reports).
	Depths []DepthStats `json:",omitempty"`

	// Divergences lists every explored failure schedule that broke an
	// oracle: level 1 in candidate order, then each deeper level in
	// (subtree, candidate) order.
	Divergences []Divergence
	// Minimal is the minimal failing schedule — fewest failures, then
	// earliest (nil when every explored schedule passed).
	Minimal []time.Duration
}

// Passed reports whether the golden run satisfied the app's own output
// check and no explored failure point diverged. Every replay is compared
// against the golden run, so a report whose golden run is wrong proves
// nothing and fails.
func (r *Report) Passed() bool { return r.GoldenCorrect && len(r.Divergences) == 0 }

// renderShownDivergences bounds the per-report divergence table.
const renderShownDivergences = 10

// Render prints the report as a text block in the experiments table
// style.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check %s under %s (seed %d, off %v)\n", r.App, r.Runtime, r.Seed, r.Off)
	fmt.Fprintf(&b, "  golden: on-time %v, correct=%v\n", r.GoldenOnTime, r.GoldenCorrect)
	fmt.Fprintf(&b, "  candidates %d, explored %d, pruned %d\n", r.Candidates, r.Explored, r.Pruned)
	// The per-depth lines render only for nested runs, so k=1 reports
	// stay byte-identical to the single-failure checker's output.
	for _, ds := range r.Depths {
		fmt.Fprintf(&b, "  depth %d: expanded %d subtree(s) (%d collapsed), candidates %d, explored %d, pruned %d\n",
			ds.Depth, ds.Expanded, ds.Collapsed, ds.Candidates, ds.Explored, ds.Pruned)
	}
	if r.Note != "" {
		fmt.Fprintf(&b, "  note: %s\n", r.Note)
	}
	if r.Passed() {
		b.WriteString("  PASS: every explored failure point matches the golden run\n")
		return b.String()
	}
	if !r.GoldenCorrect {
		b.WriteString("  FAIL: the golden continuous-power run fails the app's output check (correct=false)\n")
		if len(r.Divergences) == 0 {
			return b.String()
		}
	}
	fmt.Fprintf(&b, "  FAIL: %d diverging failure point(s); minimal failing schedule: fail at %v\n",
		len(r.Divergences), r.Minimal)
	rows := make([][]string, 0, renderShownDivergences)
	for i, d := range r.Divergences {
		if i == renderShownDivergences {
			rows = append(rows, []string{"…", "", fmt.Sprintf("(%d more)", len(r.Divergences)-i), ""})
			break
		}
		at := fmt.Sprintf("%v", d.At)
		if len(d.Schedule) > 1 {
			at = fmt.Sprintf("%v", d.Schedule)
		}
		rows = append(rows, []string{at, fmt.Sprintf("%d", d.Index), d.Kind, d.Detail})
	}
	b.WriteString(indent(experiments.Table([]string{"fail at", "index", "kind", "detail"}, rows), "  "))
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// Target names one app blueprint for a matrix check.
type Target struct {
	Name string
	New  experiments.AppFactory
}

// Matrix checks every target under every runtime kind, returning one
// report per cell in row-major (target, kind) order. The first hard error
// (an app that cannot even build or complete its golden run) aborts the
// matrix; divergences do not — they are results.
func Matrix(ctx context.Context, targets []Target, kinds []experiments.RuntimeKind, cfg Config) ([]*Report, error) {
	reports := make([]*Report, 0, len(targets)*len(kinds))
	for _, tgt := range targets {
		for _, kind := range kinds {
			rep, err := Run(ctx, tgt.New, kind, cfg)
			if err != nil {
				return reports, fmt.Errorf("check: %s under %s: %w", tgt.Name, kind, err)
			}
			rep.App = tgt.Name // registry name, so matrix rows match registered blueprints
			reports = append(reports, rep)
		}
	}
	return reports, nil
}

// RenderMatrix prints one row per app and one column per runtime, each
// cell "pass" or "FAIL(n)" with the cell's explored point count.
func RenderMatrix(reports []*Report) string {
	var apps []string
	var kinds []string
	cells := map[string]map[string]*Report{}
	for _, r := range reports {
		if cells[r.App] == nil {
			cells[r.App] = map[string]*Report{}
			apps = append(apps, r.App)
		}
		if _, seen := cells[r.App][r.Runtime]; !seen {
			cells[r.App][r.Runtime] = r
		}
		found := false
		for _, k := range kinds {
			if k == r.Runtime {
				found = true
				break
			}
		}
		if !found {
			kinds = append(kinds, r.Runtime)
		}
	}
	header := append([]string{"app \\ runtime"}, kinds...)
	rows := make([][]string, 0, len(apps))
	for _, a := range apps {
		row := []string{a}
		for _, k := range kinds {
			r := cells[a][k]
			switch {
			case r == nil:
				row = append(row, "-")
			case r.Passed():
				row = append(row, fmt.Sprintf("pass (%d pts)", r.Explored))
			case len(r.Minimal) == 0:
				row = append(row, "FAIL(golden)")
			default:
				row = append(row, fmt.Sprintf("FAIL(%d) @%v", len(r.Divergences), r.Minimal[0]))
			}
		}
		rows = append(rows, row)
	}
	return experiments.Table(header, rows)
}

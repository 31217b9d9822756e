package check

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/core"
	"easeio/internal/experiments"
	"easeio/internal/frontend"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/task"
)

func dmaFactory() (*apps.Bench, error)  { return apps.NewDMAApp(apps.DefaultDMAConfig()) }
func tempFactory() (*apps.Bench, error) { return apps.NewTempApp(apps.DefaultTempConfig()) }

// TestCutRecorderEnumeratesBoundaries checks the golden pass sees every
// charge-slice boundary: strictly increasing on-times ending exactly at
// the run's total on-time.
func TestCutRecorderEnumeratesBoundaries(t *testing.T) {
	bench, err := Fig6Bench()
	if err != nil {
		t.Fatal(err)
	}
	rec := &cutRecorder{}
	sess := kernel.NewSession(core.New(), bench.App, power.Continuous{})
	sess.Cuts = rec
	run, err := sess.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.cuts) == 0 {
		t.Fatal("golden pass recorded no cut points")
	}
	for i := 1; i < len(rec.cuts); i++ {
		if rec.cuts[i] <= rec.cuts[i-1] {
			t.Fatalf("cuts[%d] = %v not after cuts[%d] = %v", i, rec.cuts[i], i-1, rec.cuts[i-1])
		}
	}
	if last := rec.cuts[len(rec.cuts)-1]; last != run.OnTime {
		t.Errorf("final cut %v != golden on-time %v", last, run.OnTime)
	}
}

// TestSeedPoints pins the initial grid: exhaustive and small sets take
// every index; larger sets take Grid evenly spaced indices including both
// ends, without duplicates.
// TestValidateFailures pins the depth bounds Config.Validate holds the
// CLI, the service and the fleet to: only depths 1..MaxFailures are
// schedulable, and 0 selects the default depth 1.
func TestValidateFailures(t *testing.T) {
	cases := []struct {
		k       int
		wantErr string
	}{
		{k: 1},
		{k: 2},
		{k: MaxFailures},
		{k: 0},
		{k: -1, wantErr: "check: failure depth -1 out of range [1, 4]"},
		{k: MaxFailures + 1, wantErr: "check: failure depth 5 out of range [1, 4]"},
	}
	for _, c := range cases {
		err := Config{Failures: c.k}.Validate()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("k=%d rejected: %v", c.k, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("k=%d accepted", c.k)
		case c.wantErr != "" && err.Error() != c.wantErr:
			t.Errorf("k=%d: error = %q, want %q", c.k, err, c.wantErr)
		}
	}
}

func TestSeedPoints(t *testing.T) {
	if got := seedPoints(Config{Exhaustive: true, Grid: 4}, 0, 10); len(got) != 10 || got[0] != 0 || got[9] != 9 {
		t.Errorf("exhaustive seedPoints over [0,10) = %v", got)
	}
	if got := seedPoints(Config{Grid: 4}, 0, 3); len(got) != 3 {
		t.Errorf("n<=Grid seedPoints over [0,3) = %v, want all indices", got)
	}
	got := seedPoints(Config{Grid: 4}, 0, 100)
	if len(got) != 4 || got[0] != 0 || got[len(got)-1] != 99 {
		t.Errorf("seedPoints over [0,100) = %v, want 4 points spanning [0,99]", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("seedPoints not strictly increasing: %v", got)
		}
	}

	// A shard range: exhaustive indices stay absolute and in range.
	if got := seedPoints(Config{Exhaustive: true, Grid: 4}, 5, 8); len(got) != 3 || got[0] != 5 || got[2] != 7 {
		t.Errorf("exhaustive seedPoints over [5,8) = %v", got)
	}
	// Grid over a shard range spans exactly [lo, hi-1].
	got = seedPoints(Config{Grid: 4}, 10, 110)
	if len(got) != 4 || got[0] != 10 || got[len(got)-1] != 109 {
		t.Errorf("grid seedPoints over [10,110) = %v, want 4 points spanning [10,109]", got)
	}
	// An empty range seeds nothing.
	if got := seedPoints(Config{Exhaustive: true, Grid: 4}, 4, 4); len(got) != 0 {
		t.Errorf("seedPoints over empty range = %v", got)
	}
}

// TestNextRound pins the bisection rule: only adjacent evaluated pairs
// with a gap and differing hashes are split, at the midpoint.
func TestNextRound(t *testing.T) {
	out := make([]outcome, 9)
	set := func(i int, h uint64) { out[i] = outcome{evaluated: true, hash: h} }
	set(0, 1)
	set(4, 1) // same hash as 0: pruned, no bisection
	set(8, 2) // differs from 4: bisect at 6
	if got := nextRound(out); len(got) != 1 || got[0] != 6 {
		t.Fatalf("nextRound = %v, want [6]", got)
	}
	set(6, 2) // 4..6 still differs: bisect at 5; 6..8 agree
	if got := nextRound(out); len(got) != 1 || got[0] != 5 {
		t.Fatalf("nextRound = %v, want [5]", got)
	}
	set(5, 2) // adjacent everywhere hashes differ: converged
	if got := nextRound(out); got != nil {
		t.Fatalf("nextRound = %v, want nil after convergence", got)
	}
}

// TestFig6ExhaustivePass is the checker's core soundness claim on its
// deterministic scenario: under full EaseIO every single failure point
// reproduces the golden state.
func TestFig6ExhaustivePass(t *testing.T) {
	rep, err := Run(context.Background(), Fig6Bench, experiments.EaseIO,
		Config{Exhaustive: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GoldenCorrect {
		t.Fatal("golden continuous run must satisfy CheckOutput")
	}
	if !rep.Passed() {
		t.Fatalf("divergences under full EaseIO:\n%s", rep.Render())
	}
	if rep.Explored != rep.Candidates || rep.Pruned != 0 {
		t.Errorf("exhaustive mode explored %d of %d (pruned %d)",
			rep.Explored, rep.Candidates, rep.Pruned)
	}
	if !strings.Contains(rep.Render(), "PASS") {
		t.Errorf("Render misses the PASS verdict:\n%s", rep.Render())
	}
}

// strippedFig6 builds the Figure 6 scenario with every privatization
// region emptied: the paper's §4.4 ablation as a plan edit.
func strippedFig6() (*apps.Bench, error) {
	bench, err := Fig6Bench()
	if err != nil {
		return nil, err
	}
	return bench, frontend.StripRegions(bench.App)
}

// TestSeededBugDetected is the checker's end-to-end detection test: with
// every privatization region emptied the Figure 6 WAR scenario must
// diverge in memory, and the report must pin a single-failure minimal
// schedule inside the golden run.
func TestSeededBugDetected(t *testing.T) {
	rep, err := Run(context.Background(), strippedFig6, experiments.EaseIO,
		Config{Exhaustive: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatalf("seeded bug not detected:\n%s", rep.Render())
	}
	if len(rep.Minimal) != 1 {
		t.Fatalf("Minimal = %v, want a single-failure schedule", rep.Minimal)
	}
	at := rep.Minimal[0]
	if at <= 0 || at > rep.GoldenOnTime {
		t.Errorf("minimal failing point %v outside (0, %v]", at, rep.GoldenOnTime)
	}
	if at != rep.Divergences[0].At {
		t.Errorf("Minimal[0] = %v, want earliest divergence %v", at, rep.Divergences[0].At)
	}
	for _, d := range rep.Divergences {
		if d.Kind != "memory" {
			t.Errorf("divergence at %v is %q, want memory", d.At, d.Kind)
		}
	}
	r := rep.Render()
	if !strings.Contains(r, "FAIL") || !strings.Contains(r, "minimal failing schedule") {
		t.Errorf("Render misses the failure verdict:\n%s", r)
	}

	// The reported schedule must actually reproduce the divergence when
	// replayed directly — the report is actionable, not just a flag.
	bench, err := strippedFig6()
	if err != nil {
		t.Fatal(err)
	}
	sess := kernel.NewSession(experiments.NewRuntime(experiments.EaseIO), bench.App, power.NewSchedule(rep.Minimal...))
	if _, err := sess.Run(0); err != nil {
		t.Fatal(err)
	}
	dev := sess.Device()
	if dev.Run.Correct {
		t.Error("replaying the minimal schedule did not reproduce the divergence")
	}
}

// TestDeterministicAcrossWorkers: same blueprint and config must render
// byte-identically on one worker and many — the explored set is a pure
// function of the outcomes, never of scheduling.
func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, cfg := range []Config{
		{Grid: 16},         // bisection path
		{Exhaustive: true}, // exhaustive path
	} {
		seq := cfg
		seq.Workers = 1
		a, err := Run(context.Background(), tempFactory, experiments.EaseIO, seq)
		if err != nil {
			t.Fatal(err)
		}
		par := cfg
		par.Workers = 4
		b, err := Run(context.Background(), tempFactory, experiments.EaseIO, par)
		if err != nil {
			t.Fatal(err)
		}
		if a.Render() != b.Render() {
			t.Errorf("exhaustive=%v: workers=1 vs 4 reports differ:\n%s\nvs\n%s",
				cfg.Exhaustive, a.Render(), b.Render())
		}
	}
}

// TestBisectionPrunes: on a long run the grid mode must explore fewer
// points than exhaustive while reaching the same verdict.
func TestBisectionPrunes(t *testing.T) {
	rep, err := Run(context.Background(), dmaFactory, experiments.EaseIO, Config{Grid: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("dma under EaseIO diverged:\n%s", rep.Render())
	}
	if rep.Candidates <= 16 {
		t.Skipf("only %d candidates; grid covers everything", rep.Candidates)
	}
	if rep.Pruned == 0 {
		t.Errorf("no pruning on %d candidates with grid 16", rep.Candidates)
	}
	if rep.Explored+rep.Pruned != rep.Candidates {
		t.Errorf("explored %d + pruned %d != candidates %d",
			rep.Explored, rep.Pruned, rep.Candidates)
	}
}

// TestMatrixCleanRuntimes: the shipped uni-task apps must pass
// exhaustively under every compared runtime — these are exactly the
// configurations the paper reports as always-correct.
func TestMatrixCleanRuntimes(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix check is the long pass")
	}
	targets := []Target{
		{Name: "dma", New: dmaFactory},
		{Name: "temp", New: tempFactory},
	}
	kinds := []experiments.RuntimeKind{
		experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
	}
	reports, err := Matrix(context.Background(), targets, kinds, Config{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(targets)*len(kinds) {
		t.Fatalf("%d reports, want %d", len(reports), len(targets)*len(kinds))
	}
	for _, rep := range reports {
		if !rep.Passed() {
			t.Errorf("%s under %s diverged:\n%s", rep.App, rep.Runtime, rep.Render())
		}
	}
	m := RenderMatrix(reports)
	if !strings.Contains(m, "dma") || !strings.Contains(m, "JustDo") {
		t.Errorf("matrix render misses rows or columns:\n%s", m)
	}
}

// TestFig6BaselinesDiverge: the checker must rediscover the paper's
// motivating bug — Alpaca and InK do not privatize the WAR dependency
// flowing through the Single-semantics DMA, so the Figure 6 scenario has
// failure points that corrupt a[0]. EaseIO and the logging comparator
// survive every point (previous tests); the baselines must not.
func TestFig6BaselinesDiverge(t *testing.T) {
	for _, kind := range []experiments.RuntimeKind{experiments.Alpaca, experiments.InK} {
		rep, err := Run(context.Background(), Fig6Bench, kind, Config{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passed() {
			t.Errorf("fig6 under %s passed; the paper's Figure 6 bug should manifest", kind)
			continue
		}
		if d := rep.Divergences[0]; d.Kind != "memory" || !strings.Contains(d.Detail, "a[0]") {
			t.Errorf("%s: first divergence %s (%s), want the a[0] WAR corruption",
				kind, d.Kind, d.Detail)
		}
	}
}

// TestFig6JustDoPasses covers the checkpointing comparator on the
// deterministic scenario (the kinds the matrix test skips in -short).
func TestFig6JustDoPasses(t *testing.T) {
	rep, err := Run(context.Background(), Fig6Bench, experiments.JustDo, Config{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("fig6 under JustDo diverged:\n%s", rep.Render())
	}
}

// TestRunCancellation: a cancelled context stops exploration and returns
// the context error with a partial report.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, Fig6Bench, experiments.EaseIO, Config{Exhaustive: true, Workers: 1})
	if err == nil {
		t.Fatal("cancelled context must surface an error")
	}
	if rep == nil {
		t.Fatal("cancellation must still return the partial report")
	}
	if rep.Explored != 0 {
		t.Errorf("%d points explored under a dead context", rep.Explored)
	}
}

// TestProgressReachesPlanned: the progress hook must report a final count
// equal to the explored total.
func TestProgressReachesPlanned(t *testing.T) {
	var last, lastPlanned int
	cfg := Config{Exhaustive: true, Workers: 1}
	cfg.Progress = func(explored, planned int) { last, lastPlanned = explored, planned }
	rep, err := Run(context.Background(), Fig6Bench, experiments.EaseIO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last != rep.Explored || lastPlanned != rep.Explored {
		t.Errorf("progress ended at %d/%d, want %d/%d",
			last, lastPlanned, rep.Explored, rep.Explored)
	}
}

// TestOffDurationRecorded: a custom recharge duration flows into the
// report and the replays still pass.
func TestOffDurationRecorded(t *testing.T) {
	rep, err := Run(context.Background(), Fig6Bench, experiments.EaseIO,
		Config{Exhaustive: true, Off: 250 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Off != 250*time.Microsecond {
		t.Errorf("report off = %v", rep.Off)
	}
	if !rep.Passed() {
		t.Errorf("fig6 diverged with a 250µs recharge:\n%s", rep.Render())
	}
}

// TestCutRangeShardsMergeExhaustive pins the distributed checker's k=1
// merge contract: in exhaustive mode, splitting the boot unit's cut range
// [0, Candidates) into pieces, running each piece on its own (with its
// own golden pass, like a fleet worker), and merging the results onto the
// plan's header reproduces the unsharded report exactly.
func TestCutRangeShardsMergeExhaustive(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			cfg := Config{Exhaustive: true, Workers: 2}
			full, err := Run(ctx, Fig6Bench, kind, cfg)
			if err != nil {
				t.Fatal(err)
			}

			plan, err := Plan(ctx, Fig6Bench, kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Candidates != full.Candidates {
				t.Fatalf("plan counts %d candidates, full run %d", plan.Candidates, full.Candidates)
			}

			for _, nShards := range []int{2, 3} {
				groups := plan.Split(nShards)
				if len(groups) != nShards {
					t.Fatalf("Split(%d) made %d groups", nShards, len(groups))
				}
				parts := []UnitReport{plan.Level1}
				for s, g := range groups {
					u := g[0]
					part, err := RunUnits(ctx, Fig6Bench, kind, cfg, g)
					if err != nil {
						t.Fatal(err)
					}
					if d := part.Depths[0]; d.Explored != u.CutHi-u.CutLo || d.Pruned != 0 {
						t.Errorf("shard %d explored %d (pruned %d) of %d points",
							s, d.Explored, d.Pruned, u.CutHi-u.CutLo)
					}
					parts = append(parts, part)
				}
				if merged := Merge(plan.Header, parts); !reflect.DeepEqual(merged, full) {
					t.Errorf("%d-shard merge differs from unsharded report:\n--- merged ---\n%s--- full ---\n%s",
						nShards, merged.Render(), full.Render())
				}
			}
		})
	}
}

// TestReplayPanicIsErrorDivergence: a task body that panics once a
// failure has been injected (its re-execution sees the recharge time on
// the clock; the golden run never does) books an "error" divergence,
// and the report does not depend on Workers — the inline one-worker
// path and the replay goroutines of the pooled path treat the panic
// alike.
func TestReplayPanicIsErrorDivergence(t *testing.T) {
	factory := func() (*apps.Bench, error) {
		a := task.NewApp("panics-after-failure")
		n := a.NVInt("n")
		var fin *task.Task
		a.AddTask("work", func(e task.Exec) {
			if e.Now() >= 10*time.Millisecond {
				panic("boom after a failure")
			}
			e.Compute(2000)
			e.Store(n, 1)
			e.Next(fin)
		})
		fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
		if err := frontend.Analyze(a); err != nil {
			return nil, err
		}
		return &apps.Bench{App: a}, nil
	}
	var reps []*Report
	for _, w := range []int{1, 2} {
		rep, err := Run(context.Background(), factory, experiments.EaseIO,
			Config{Exhaustive: true, Workers: w, Off: 10 * time.Millisecond})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if rep.GoldenOnTime >= 10*time.Millisecond {
			t.Fatalf("golden run takes %v; the panic condition needs it under 10ms", rep.GoldenOnTime)
		}
		reps = append(reps, rep)
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Errorf("report differs across Workers:\n%s\nvs\n%s", reps[0].Render(), reps[1].Render())
	}
	found := false
	for _, d := range reps[0].Divergences {
		found = found || d.Kind == "error" && strings.Contains(d.Detail, "boom after a failure")
	}
	if !found {
		t.Errorf("no error divergence carries the panic:\n%s", reps[0].Render())
	}
}

// TestGoldenFailureFailsReport: an app whose own output check fails
// under continuous power fails the check even though every replay
// matches that golden run — matching a wrong reference proves nothing.
func TestGoldenFailureFailsReport(t *testing.T) {
	factory := func() (*apps.Bench, error) {
		a := task.NewApp("wrong-golden")
		n := a.NVInt("n")
		var fin *task.Task
		a.AddTask("work", func(e task.Exec) {
			e.Compute(2000)
			e.Store(n, 1)
			e.Next(fin)
		})
		fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
		a.CheckOutput = func(m task.CheckMem) bool { return m.Read(n, 0) == 2 }
		if err := frontend.Analyze(a); err != nil {
			return nil, err
		}
		return &apps.Bench{App: a}, nil
	}
	rep, err := Run(context.Background(), factory, experiments.EaseIO, Config{Exhaustive: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoldenCorrect || len(rep.Divergences) != 0 || rep.Candidates == 0 {
		t.Fatalf("want a wrong golden run with candidates and no divergence:\n%s", rep.Render())
	}
	if rep.Passed() {
		t.Error("a report whose golden run fails its output check passed")
	}
	if r := rep.Render(); !strings.Contains(r, "FAIL: the golden continuous-power run fails") || strings.Contains(r, "PASS") {
		t.Errorf("Render does not fail on the golden verdict:\n%s", r)
	}
	if m := RenderMatrix([]*Report{rep}); !strings.Contains(m, "FAIL(golden)") {
		t.Errorf("RenderMatrix does not fail the cell:\n%s", m)
	}
}

// Tests for the sweep engine's two load-bearing guarantees: the worker
// count must not change results (sharded shards merge back into the
// sequential fold), and a reused session must reproduce a fresh device's
// run exactly (the blueprint/instance split loses no state).

package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"easeio/internal/apps"
	"easeio/internal/frontend"
	"easeio/internal/justdo"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
)

func dmaFactory() (*apps.Bench, error)  { return apps.NewDMAApp(apps.DefaultDMAConfig()) }
func tempFactory() (*apps.Bench, error) { return apps.NewTempApp(apps.DefaultTempConfig()) }
func firFactory() (*apps.Bench, error)  { return apps.NewFIRApp(apps.DefaultFIRConfig()) }
func weatherFactory() (*apps.Bench, error) {
	return apps.NewWeatherApp(apps.DefaultWeatherConfig())
}
func sensorFactory() (*apps.Bench, error) {
	return apps.NewSensorApp(apps.DefaultSensorConfig())
}

// freshRun executes one seeded run of the app under the runtime kind as
// a new session's first run — the fresh device and attach the reuse
// paths are checked against.
func freshRun(newApp AppFactory, kind RuntimeKind, supply power.Supply, seed int64) (*stats.Run, error) {
	bench, err := newApp()
	if err != nil {
		return nil, err
	}
	return kernel.NewSession(NewRuntime(kind), bench.App, supply).Run(seed)
}

// TestRunManyDeterminism checks that identical seeds produce a
// byte-identical Summary whether the sweep runs on one worker or many,
// and that the pooled sweep equals a fold of fresh-device runs.
func TestRunManyDeterminism(t *testing.T) {
	cases := []struct {
		name string
		new  AppFactory
		runs int
	}{
		{"dma", dmaFactory, 24},
		{"temp", tempFactory, 24},
		{"fir", firFactory, 12},
		// Weather's sensing body is pooled across sessions (apps'
		// senseRead): a many-worker sweep under -race exercises the pool.
		{"weather", weatherFactory, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := Config{Runs: c.runs, BaseSeed: 11, Workers: 1}
			seq, err := RunMany(base, c.new, EaseIO)
			if err != nil {
				t.Fatal(err)
			}
			par := base
			par.Workers = runtime.GOMAXPROCS(0)
			got, err := RunMany(par, c.new, EaseIO)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, got) {
				t.Errorf("Workers=1 vs Workers=%d summaries differ:\n%+v\nvs\n%+v",
					par.Workers, seq, got)
			}
			fresh := stats.NewAggregator()
			for i := 0; i < c.runs; i++ {
				run, err := freshRun(c.new, EaseIO, TimerSupply(), base.BaseSeed+int64(i))
				if err != nil {
					t.Fatal(err)
				}
				fresh.Add(run)
			}
			if got := fresh.Summary(); !reflect.DeepEqual(seq, got) {
				t.Errorf("pooled vs fresh-device summaries differ:\n%+v\nvs\n%+v", seq, got)
			}
		})
	}
}

// TestSessionResetReproducesFreshRun checks the reuse path directly: a
// session that has already completed a run must, after its device
// rewinds to the attach image, produce exactly the stats.Run, the final
// FRAM words and the runtime bookkeeping a fresh device and attach would
// for the same seed.
func TestSessionResetReproducesFreshRun(t *testing.T) {
	// sensor's freshness-bounded site exercises the per-run sample table
	// a pooled record keeps across resets; weather's DMAs and regions
	// give EaseIO its largest attach image.
	factories := map[string]AppFactory{
		"dma": dmaFactory, "temp": tempFactory, "sensor": sensorFactory, "weather": weatherFactory,
	}
	for name, factory := range factories {
		for _, kind := range []RuntimeKind{Alpaca, InK, EaseIO, JustDo} {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				bench, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				sess := kernel.NewSession(NewRuntime(kind), bench.App, TimerSupply())
				if _, err := sess.Run(5); err != nil {
					t.Fatal(err)
				}
				reused, err := sess.Run(9)
				if err != nil {
					t.Fatal(err)
				}
				bench, err = factory()
				if err != nil {
					t.Fatal(err)
				}
				freshSess := kernel.NewSession(NewRuntime(kind), bench.App, TimerSupply())
				fresh, err := freshSess.Run(9)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(reused, fresh) {
					t.Errorf("reused device diverged from fresh device:\n%+v\nvs\n%+v",
						reused, fresh)
				}
				dev, freshDev := sess.Device(), freshSess.Device()
				got := dev.SnapshotInto(&kernel.Checkpoint{}).Mem.Words(mem.FRAM)
				want := freshDev.SnapshotInto(&kernel.Checkpoint{}).Mem.Words(mem.FRAM)
				if !slices.Equal(got, want) {
					t.Errorf("reused device's final FRAM (%d words) differs from a fresh device's (%d words)",
						len(got), len(want))
				}
				if !reflect.DeepEqual(dev.Runtime, freshDev.Runtime) {
					t.Errorf("reused device's runtime bookkeeping differs from a fresh device's:\n%+v\nvs\n%+v",
						dev.Runtime, freshDev.Runtime)
				}
			})
		}
	}
}

// TestSessionResetJustDo covers the logging runtime's reset path on the
// store-dense workload, whose sort advances JustDo's durable progress
// counter at every store.
func TestSessionResetJustDo(t *testing.T) {
	bench, err := storeDenseApp()
	if err != nil {
		t.Fatal(err)
	}
	sess := kernel.NewSession(justdo.New(), bench.App, TimerSupply())
	if _, err := sess.Run(5); err != nil {
		t.Fatal(err)
	}
	reused, err := sess.Run(9)
	if err != nil {
		t.Fatal(err)
	}

	bench2, err := storeDenseApp()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := kernel.NewSession(justdo.New(), bench2.App, power.NewTimer(power.DefaultTimerConfig())).Run(9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Errorf("reused JustDo device diverged from fresh device:\n%+v\nvs\n%+v",
			reused, fresh)
	}
}

// TestRunManyCtxCancelStopsAtSeedBoundary cancels a single-worker sweep
// from inside its own progress hook after the third seed: the sweep must
// stop before running a fourth, return the partial summary, and report
// the cancellation.
func TestRunManyCtxCancelStopsAtSeedBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Runs: 100, BaseSeed: 1, Workers: 1}
	cfg.Progress = func(done, total int) {
		if total != 100 {
			t.Errorf("progress total = %d, want 100", total)
		}
		if done == 3 {
			cancel()
		}
	}
	sum, err := RunManyCtx(ctx, cfg, dmaFactory, EaseIO)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if sum.Runs != 3 {
		t.Errorf("summary covers %d runs, want exactly 3 (cancel at the seed boundary)", sum.Runs)
	}

	// The partial summary must equal a direct 3-run sweep: cancellation
	// truncates, it never distorts.
	direct, err2 := RunMany(Config{Runs: 3, BaseSeed: 1, Workers: 1}, dmaFactory, EaseIO)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !reflect.DeepEqual(sum, direct) {
		t.Errorf("cancelled prefix differs from direct 3-run sweep:\n%+v\nvs\n%+v", sum, direct)
	}
}

// TestRunManyCtxAlreadyCancelled checks a dead context produces an empty
// summary without running anything.
func TestRunManyCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := RunManyCtx(ctx, Config{Runs: 8, Workers: 2}, dmaFactory, EaseIO)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if sum.Runs != 0 {
		t.Errorf("%d runs executed under a cancelled context", sum.Runs)
	}
}

// TestRunManyProgressReachesTotal checks the progress hook fires once
// per seed and the final count equals the sweep total.
func TestRunManyProgressReachesTotal(t *testing.T) {
	var calls atomic.Int64
	var maxDone atomic.Int64
	cfg := Config{Runs: 12, BaseSeed: 5, Workers: 3}
	cfg.Progress = func(done, total int) {
		calls.Add(1)
		// Callbacks race, so the hook records the running maximum.
		for {
			cur := maxDone.Load()
			if int64(done) <= cur || maxDone.CompareAndSwap(cur, int64(done)) {
				break
			}
		}
	}
	if _, err := RunMany(cfg, tempFactory, EaseIO); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 12 {
		t.Errorf("progress fired %d times, want 12", got)
	}
	if got := maxDone.Load(); got != 12 {
		t.Errorf("max cumulative count = %d, want 12", got)
	}
}

// TestRunManyRecoversWorkerPanic checks a panicking factory fails its
// shard with a typed PanicError instead of crashing the process.
func TestRunManyRecoversWorkerPanic(t *testing.T) {
	boom := func() (*apps.Bench, error) { panic("boom") }
	sum, err := RunMany(Config{Runs: 4, Workers: 2}, boom, EaseIO)
	var pe PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a PanicError in the chain", err)
	}
	if sum.Runs != 0 {
		t.Errorf("summary reports %d runs", sum.Runs)
	}
}

// TestParseRuntimeKind pins the accepted spellings.
func TestParseRuntimeKind(t *testing.T) {
	for in, want := range map[string]RuntimeKind{
		"alpaca": Alpaca, "Alpaca": Alpaca, "InK": InK, "ink": InK,
		"EaseIO": EaseIO, "easeio": EaseIO,
		"JustDo": JustDo, "justdo": JustDo,
	} {
		got, err := ParseRuntimeKind(in)
		if err != nil || got != want {
			t.Errorf("ParseRuntimeKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"quickrecall", "EaseIO/Op.", "easeio-op"} {
		if _, err := ParseRuntimeKind(in); err == nil {
			t.Errorf("%q parsed; only runtimes are kinds", in)
		}
	}
}

// TestRunManyJoinsErrors checks that a sweep reports every failed seed
// rather than the first, and still summarizes the runs that completed.
func TestRunManyJoinsErrors(t *testing.T) {
	badApp := func() (*apps.Bench, error) { return nil, errStub }
	sum, err := RunMany(Config{Runs: 8, Workers: 2}, badApp, EaseIO)
	if err == nil {
		t.Fatal("expected an error from a factory that always fails")
	}
	if sum.Runs != 0 {
		t.Errorf("summary reports %d runs from a sweep with no successes", sum.Runs)
	}
}

var errStub = &stubError{}

type stubError struct{}

func (*stubError) Error() string { return "stub app failure" }

// TestAggregatorMergeMatchesSequential checks the aggregation algebra the
// engine relies on: folding shards and merging them in order equals one
// sequential fold.
func TestAggregatorMergeMatchesSequential(t *testing.T) {
	runs := make([]*stats.Run, 0, 10)
	for i := 0; i < 10; i++ {
		r, err := freshRun(tempFactory, EaseIO, TimerSupply(), int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	seq := stats.NewAggregator()
	for _, r := range runs {
		seq.Add(r)
	}
	a, b := stats.NewAggregator(), stats.NewAggregator()
	for _, r := range runs[:4] {
		a.Add(r)
	}
	for _, r := range runs[4:] {
		b.Add(r)
	}
	merged := stats.NewAggregator()
	merged.Merge(a)
	merged.Merge(b)
	if !reflect.DeepEqual(seq.Summary(), merged.Summary()) {
		t.Errorf("merged summary differs from sequential summary")
	}
}

// TestRunRangeAggMatchesRunMany pins the distributed sweep's merge
// contract: splitting [0, Runs) into contiguous ranges, executing each
// with RunRangeAgg (with varying inner worker counts), and merging the
// fold states in range order must reproduce RunMany's Summary exactly —
// including merging a copy of each shard's Aggregator value, the form a
// remote shard ships.
func TestRunRangeAggMatchesRunMany(t *testing.T) {
	cfg := Config{Runs: 18, BaseSeed: 11, Workers: 2}
	want, err := RunMany(cfg, dmaFactory, EaseIO)
	if err != nil {
		t.Fatal(err)
	}

	for _, cuts := range [][]int{{0, 18}, {0, 7, 18}, {0, 5, 6, 12, 18}} {
		agg := stats.NewAggregator()
		for i := 0; i+1 < len(cuts); i++ {
			part := cfg
			part.Workers = 1 + i%3 // shards must be worker-count-invariant too
			sh, err := RunRangeAgg(context.Background(), part, dmaFactory, EaseIO, cuts[i], cuts[i+1])
			if err != nil {
				t.Fatal(err)
			}
			shipped := *sh
			agg.Merge(&shipped)
		}
		if got := agg.Summary(); !reflect.DeepEqual(got, want) {
			t.Errorf("cuts %v: merged summary differs:\n%+v\nvs\n%+v", cuts, got, want)
		}
	}

	if _, err := RunRangeAgg(context.Background(), cfg, dmaFactory, EaseIO, 5, 3); err == nil {
		t.Error("inverted range did not error")
	}
}

// TestSplitRangeDegenerateParts pins the splitter's low-level guard:
// parts < 1 with work remaining must degrade to one covering piece, not
// an empty split (a fleet job planned with no shards has no completion
// path).
func TestSplitRangeDegenerateParts(t *testing.T) {
	cases := []struct {
		lo, hi, parts int
		want          [][2]int
	}{
		{0, 5, 0, [][2]int{{0, 5}}},
		{0, 5, -3, [][2]int{{0, 5}}},
		{2, 7, 0, [][2]int{{2, 7}}},
		{0, 5, 2, [][2]int{{0, 3}, {3, 5}}},
		{3, 3, 4, nil},
		{5, 3, 2, nil},
	}
	for _, tc := range cases {
		got := SplitRange(tc.lo, tc.hi, tc.parts)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitRange(%d, %d, %d) = %v, want %v", tc.lo, tc.hi, tc.parts, got, tc.want)
		}
	}
}

// TestRunManyPanickingSeedFailsOneRun: a body that panics on some seeds
// fails those seeds only — each is one joined error, and the sweep goes
// on — so the Summary and the error text are the same at every worker
// count.
func TestRunManyPanickingSeedFailsOneRun(t *testing.T) {
	factory := func() (*apps.Bench, error) {
		a := task.NewApp("panics-on-some-seeds")
		n := a.NVInt("n")
		a.AddTask("work", func(e task.Exec) {
			// Now is zero in the analysis run, which must not panic.
			if e.Now() > 0 && e.Rand().Intn(16) == 0 {
				panic("boom on this seed")
			}
			e.Store(n, 1)
			e.Done()
		})
		if err := frontend.Analyze(a); err != nil {
			return nil, err
		}
		return &apps.Bench{App: a}, nil
	}
	var sums []stats.Summary
	var texts []string
	for _, w := range []int{1, 2, 4} {
		sum, err := RunMany(Config{Runs: 64, BaseSeed: 1, Workers: w}, factory, EaseIO)
		if err == nil {
			t.Fatalf("workers=%d: no seed panicked; pick another draw", w)
		}
		var pe PanicError
		if errors.As(err, &pe) {
			t.Errorf("workers=%d: a run's panic failed its whole shard: %v", w, err)
		}
		if failed := len(err.(interface{ Unwrap() []error }).Unwrap()); sum.Runs+failed != 64 {
			t.Errorf("workers=%d: %d runs + %d failed seeds, want 64", w, sum.Runs, failed)
		}
		sums = append(sums, sum)
		texts = append(texts, err.Error())
	}
	for i := 1; i < len(sums); i++ {
		if !reflect.DeepEqual(sums[0], sums[i]) || texts[0] != texts[i] {
			t.Errorf("sweep %d differs from the one-worker sweep: runs %d vs %d\n%s\nvs\n%s",
				i, sums[i].Runs, sums[0].Runs, texts[i], texts[0])
		}
	}
}

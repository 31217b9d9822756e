// Tests for the fleet's load-bearing guarantees: a fleet-merged job is
// byte-identical to the in-process engines whatever the shard count,
// worker count or transport; the WAL survives torn tails and replays
// idempotently; leases expire and retries back off; and a recovered
// coordinator finishes what the crashed one started (the SIGKILL
// variants live in crash_test.go).

package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/wire"
)

// mapSource is the test BlueprintSource.
type mapSource map[string]experiments.AppFactory

func (m mapSource) LookupFactory(name string) (experiments.AppFactory, bool) {
	f, ok := m[name]
	return f, ok
}

var testApps = mapSource{
	"dma":    func() (*apps.Bench, error) { return apps.NewDMAApp(apps.DefaultDMAConfig()) },
	"temp":   func() (*apps.Bench, error) { return apps.NewTempApp(apps.DefaultTempConfig()) },
	"fir":    func() (*apps.Bench, error) { return apps.NewFIRApp(apps.DefaultFIRConfig()) },
	"branch": func() (*apps.Bench, error) { return apps.NewBranchApp(apps.DefaultBranchConfig()) },
	"fig6":   check.Fig6Bench,
	"sensor": func() (*apps.Bench, error) { return apps.NewSensorApp(apps.DefaultSensorConfig()) },
}

// kinds is the full runtime matrix sweeps and checks are pinned across
// (the checker's own test matrix).
var kinds = []experiments.RuntimeKind{
	experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
}

// newTestCoordinator opens a coordinator on a per-test WAL.
func newTestCoordinator(t *testing.T, mutate func(*CoordinatorConfig)) *Coordinator {
	t.Helper()
	cfg := CoordinatorConfig{
		WALPath: filepath.Join(t.TempDir(), "fleet.wal"),
		Source:  testApps,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startLoopback runs n loopback workers until the returned stop func.
func startLoopback(t *testing.T, c *Coordinator, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		name := "w" + string(rune('0'+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunLoopback(ctx, c, name, testApps, time.Millisecond); err != nil {
				t.Errorf("loopback worker %s: %v", name, err)
			}
		}()
	}
	stop = func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(stop)
	return stop
}

func waitResult(t *testing.T, c *Coordinator, id uint64) Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("job %d: %v", id, err)
	}
	return res
}

// TestFleetSweepByteIdentity pins the tentpole contract across the full
// app × runtime matrix: a sweep sharded over a loopback fleet merges
// into exactly the Summary experiments.RunMany produces.
func TestFleetSweepByteIdentity(t *testing.T) {
	c := newTestCoordinator(t, nil)
	startLoopback(t, c, 2)

	for _, app := range []string{"dma", "temp", "fir", "branch"} {
		for _, kind := range kinds {
			spec := Spec{
				Mode: ModeSweep, App: app, Runtime: kind.String(),
				Runs: 10, BaseSeed: 7, Shards: 3, ShardWorkers: 1 + len(app)%2,
			}
			id, err := c.Submit(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", app, kind, err)
			}
			res := waitResult(t, c, id)

			factory := testApps[app]
			want, werr := experiments.RunMany(
				experiments.Config{Runs: spec.Runs, BaseSeed: spec.BaseSeed, Workers: 2},
				factory, kind)
			if werr != nil {
				t.Fatalf("%s/%s reference: %v", app, kind, werr)
			}
			if !reflect.DeepEqual(res.Summary, want) {
				t.Errorf("%s/%s: fleet summary differs from RunMany:\n%+v\nvs\n%+v",
					app, kind, res.Summary, want)
			}
			if len(res.Errs) != 0 {
				t.Errorf("%s/%s: unexpected run errors %v", app, kind, res.Errs)
			}
		}
	}
}

// TestFleetCheckByteIdentity pins the checker half at k=1: an exhaustive
// check, whose boot unit is split by cut range, (and an adaptive check,
// whose boot unit stays whole) renders byte-identically to check.Run.
func TestFleetCheckByteIdentity(t *testing.T) {
	c := newTestCoordinator(t, nil)
	startLoopback(t, c, 2)

	for _, kind := range kinds {
		spec := Spec{
			Mode: ModeCheck, App: "fig6", Runtime: kind.String(),
			Check: check.Config{Exhaustive: true}, Shards: 2,
		}
		id, err := c.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res := waitResult(t, c, id)

		want, werr := check.Run(context.Background(), check.Fig6Bench, kind,
			check.Config{Exhaustive: true})
		if werr != nil {
			t.Fatalf("%s reference: %v", kind, werr)
		}
		if res.Report.Render() != want.Render() {
			t.Errorf("%s: fleet report differs from check.Run:\n--- fleet ---\n%s--- direct ---\n%s",
				kind, res.Report.Render(), want.Render())
		}
	}

	// Adaptive mode: the planner must collapse to one shard, and the
	// merged report must still match the in-process adaptive checker.
	spec := Spec{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Grid: 16}, Shards: 4}
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, c, id)
	want, werr := check.Run(context.Background(), check.Fig6Bench, experiments.EaseIO,
		check.Config{Grid: 16})
	if werr != nil {
		t.Fatal(werr)
	}
	if res.Report.Render() != want.Render() {
		t.Errorf("adaptive: fleet report differs:\n--- fleet ---\n%s--- direct ---\n%s",
			res.Report.Render(), want.Render())
	}
}

// TestFleetNestedCheckByteIdentity pins the k > 1 contract: a nested
// check job runs its level-1 exploration in the coordinator, cuts the
// level-1 frontier into subtree shards leased to workers that restore
// the root checkpoints and grow the subtrees, and the merged report —
// depth stats, multi-failure schedules, minimal schedule — renders
// byte-identically to check.Run. Alpaca diverges under nested failures
// on fig6; EaseIO must stay clean there but serves stale sensor
// readings, whose Timely divergences must survive the distribution.
func TestFleetNestedCheckByteIdentity(t *testing.T) {
	c := newTestCoordinator(t, nil)
	startLoopback(t, c, 2)

	for _, tc := range []struct {
		app        string
		factory    experiments.AppFactory
		kind       experiments.RuntimeKind
		wantDiverg bool
		wantShards int // level-1 representatives, capped by Shards
	}{
		{"fig6", check.Fig6Bench, experiments.Alpaca, true, 2},
		{"fig6", check.Fig6Bench, experiments.EaseIO, false, 1},
		{"sensor", testApps["sensor"], experiments.EaseIO, true, 2},
	} {
		tc := tc
		spec := Spec{
			Mode: ModeCheck, App: tc.app, Runtime: tc.kind.String(),
			Check: check.Config{Exhaustive: true, Failures: 2}, Shards: 4, ShardWorkers: 2,
		}
		id, err := c.Submit(spec)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.app, tc.kind, err)
		}
		res := waitResult(t, c, id)

		// The job must really have sharded: one shard per level-1
		// representative (fig6/EaseIO collapses to one — the degenerate
		// layout is pinned too, not skipped).
		if _, total, ok := c.Progress(id); !ok || total != tc.wantShards {
			t.Errorf("%s/%s: planned %d shards, want %d", tc.app, tc.kind, total, tc.wantShards)
		}

		want, werr := check.Run(context.Background(), tc.factory, tc.kind,
			check.Config{Exhaustive: true, Failures: 2, Workers: 2})
		if werr != nil {
			t.Fatalf("%s/%s reference: %v", tc.app, tc.kind, werr)
		}
		if res.Report.Render() != want.Render() {
			t.Errorf("%s/%s: fleet k=2 report differs from check.Run:\n--- fleet ---\n%s--- direct ---\n%s",
				tc.app, tc.kind, res.Report.Render(), want.Render())
		}
		if got := len(res.Report.Divergences) > 0; got != tc.wantDiverg {
			t.Errorf("%s/%s: divergences = %d, want some: %v",
				tc.app, tc.kind, len(res.Report.Divergences), tc.wantDiverg)
		}
		// Alpaca already fails fig6 under a single failure, so the
		// minimal schedule must stay the one-failure one even with
		// depth-2 divergences in the report.
		if tc.app == "fig6" && tc.wantDiverg && len(res.Report.Minimal) != 1 {
			t.Errorf("%s/%s: minimal schedule %v, want 1 failure", tc.app, tc.kind, res.Report.Minimal)
		}
	}

	// Adaptive k=2 jobs shard at the level-1 frontier too: bisection below
	// level 1 is local to each subtree, so the split is exact and the
	// merged report must be deep-equal to the in-process checker's.
	multi := false
	for _, app := range []string{"fig6", "sensor"} {
		for _, kind := range []experiments.RuntimeKind{experiments.Alpaca, experiments.EaseIO} {
			spec := Spec{
				Mode: ModeCheck, App: app, Runtime: kind.String(),
				Check: check.Config{Grid: 16, Failures: 2}, Shards: 3, ShardWorkers: 2,
			}
			id, err := c.Submit(spec)
			if err != nil {
				t.Fatalf("adaptive %s/%s: %v", app, kind, err)
			}
			res := waitResult(t, c, id)
			cfg := check.Config{Grid: 16, Failures: 2, Workers: 2}
			p, err := check.Plan(context.Background(), testApps[app], kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := len(p.Split(spec.Shards))
			if _, total, ok := c.Progress(id); !ok || total != want {
				t.Errorf("adaptive %s/%s: planned %d shards, want %d", app, kind, total, want)
			}
			multi = multi || want >= 2
			ref, err := check.Run(context.Background(), testApps[app], kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Report, ref) {
				t.Errorf("adaptive %s/%s: fleet k=2 report differs from check.Run:\n--- fleet ---\n%s--- direct ---\n%s",
					app, kind, res.Report.Render(), ref.Render())
			}
		}
	}
	if !multi {
		t.Error("no adaptive k=2 job planned more than one shard")
	}
}

// TestSpecValidation pins the planner's negative surface: the bounds of
// check.Config.Validate shared with the CLI and the service, the check
// fields a fleet job cannot carry, and check parameters on a sweep, which
// the service refuses too.
func TestSpecValidation(t *testing.T) {
	c := newTestCoordinator(t, nil)
	cases := []struct {
		name    string
		spec    Spec
		wantErr string
	}{
		{
			name:    "no app",
			spec:    Spec{Mode: ModeSweep, Runtime: "EaseIO", Runs: 1},
			wantErr: "fleet: spec has no app",
		},
		{
			name:    "unknown mode",
			spec:    Spec{Mode: "audit", App: "fig6", Runtime: "EaseIO"},
			wantErr: `fleet: unknown mode "audit"`,
		},
		{
			name:    "check with runs",
			spec:    Spec{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Runs: 3},
			wantErr: "fleet: check spec must not set Runs",
		},
		{
			name:    "failure depth too deep",
			spec:    Spec{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Failures: 5}},
			wantErr: "fleet: check: failure depth 5 out of range [1, 4]",
		},
		{
			name:    "negative failure depth",
			spec:    Spec{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Failures: -2}},
			wantErr: "fleet: check: failure depth -2 out of range [1, 4]",
		},
		{
			name:    "sweep with check parameters",
			spec:    Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, Check: check.Config{Seed: 7}},
			wantErr: "fleet: sweep spec must not set Check",
		},
		{
			name:    "sweep with exhaustive check",
			spec:    Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, Check: check.Config{Exhaustive: true}},
			wantErr: "fleet: sweep spec must not set Check",
		},
		{
			name:    "check with negative grid",
			spec:    Spec{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Grid: -3}},
			wantErr: "fleet: check grid -3 is negative (0 means the default)",
		},
		{
			name:    "check with off-time",
			spec:    Spec{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Off: time.Second}},
			wantErr: "fleet: check spec must not set Check.Off, FromBoot, Workers or Progress",
		},
		{
			name:    "check with workers",
			spec:    Spec{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Workers: 2}},
			wantErr: "fleet: check spec must not set Check.Off, FromBoot, Workers or Progress",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := c.Submit(tc.spec); err == nil || err.Error() != tc.wantErr {
				t.Errorf("Submit error = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestCoordinatorConfigRejectsNegatives pins the config-time guard: a
// negative knob is a caller bug and must fail New with a clear error
// naming the field, not be silently coerced to the default.
func TestCoordinatorConfigRejectsNegatives(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CoordinatorConfig)
	}{
		{"LeaseTTL", func(c *CoordinatorConfig) { c.LeaseTTL = -time.Second }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := CoordinatorConfig{
				WALPath: filepath.Join(t.TempDir(), "fleet.wal"),
				Source:  testApps,
			}
			tc.mutate(&cfg)
			c, err := New(cfg)
			if err == nil {
				c.Close()
				t.Fatalf("New accepted a negative %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Errorf("error %q does not name the offending field %s", err, tc.name)
			}
		})
	}
}

// TestSubmitAgainstZeroWorkerFleet is the satellite regression: a job
// submitted before any worker exists must still plan real shards (a
// zero-worker fleet must never produce a zero-shard plan), sit pending,
// and complete normally once a worker shows up.
func TestSubmitAgainstZeroWorkerFleet(t *testing.T) {
	c := newTestCoordinator(t, nil)
	id, err := c.Submit(Spec{Mode: ModeSweep, App: "fir", Runtime: "EaseIO", Runs: 6, BaseSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	done, total, ok := c.Progress(id)
	if !ok || total == 0 {
		t.Fatalf("job planned %d shards with no workers attached; want > 0", total)
	}
	if done != 0 {
		t.Fatalf("job reports %d done shards before any worker ran", done)
	}
	startLoopback(t, c, 1)
	res := waitResult(t, c, id)
	want, werr := experiments.RunMany(
		experiments.Config{Runs: 6, BaseSeed: 2, Workers: 2}, testApps["fir"], experiments.EaseIO)
	if werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(res.Summary, want) {
		t.Errorf("zero-worker-start summary differs from RunMany:\n%+v\nvs\n%+v", res.Summary, want)
	}
}

// TestFleetTCPByteIdentity runs the same contract over the real
// transport: a TCP worker fleet against a listening coordinator.
func TestFleetTCPByteIdentity(t *testing.T) {
	c := newTestCoordinator(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeFleet(ln, c)
	t.Cleanup(func() { ln.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		name := "tcp-w" + string(rune('0'+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunTCPWorker(ctx, ln.Addr().String(), name, testApps, time.Millisecond); err != nil {
				t.Errorf("tcp worker %s: %v", name, err)
			}
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })

	spec := Spec{Mode: ModeSweep, App: "temp", Runtime: "EaseIO", Runs: 12, BaseSeed: 3, Shards: 4}
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, c, id)
	want, werr := experiments.RunMany(
		experiments.Config{Runs: 12, BaseSeed: 3, Workers: 2}, testApps["temp"], experiments.EaseIO)
	if werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(res.Summary, want) {
		t.Errorf("TCP fleet summary differs from RunMany:\n%+v\nvs\n%+v", res.Summary, want)
	}

	// A nested check over the same TCP fleet: the subtree shards carry
	// full root checkpoints through the real framing, and the merged
	// report must still be byte-identical to the in-process checker.
	nspec := Spec{
		Mode: ModeCheck, App: "fig6", Runtime: "Alpaca",
		Check: check.Config{Exhaustive: true, Failures: 2}, Shards: 4, ShardWorkers: 2,
	}
	nid, err := c.Submit(nspec)
	if err != nil {
		t.Fatal(err)
	}
	nres := waitResult(t, c, nid)
	nwant, werr := check.Run(context.Background(), check.Fig6Bench, experiments.Alpaca,
		check.Config{Exhaustive: true, Failures: 2, Workers: 2})
	if werr != nil {
		t.Fatal(werr)
	}
	if nres.Report.Render() != nwant.Render() {
		t.Errorf("TCP fleet k=2 report differs from check.Run:\n--- fleet ---\n%s--- direct ---\n%s",
			nres.Report.Render(), nwant.Render())
	}
	if _, total, ok := c.Progress(nid); !ok || total < 2 {
		t.Errorf("TCP nested job planned %d shards, want >= 2", total)
	}
}

// walSamples holds records of every type: a sweep job, a k=1 check job
// with no tasks and a note, a nested check job with tasks and a
// non-default check configuration, a shard result and a failed shard
// attempt. A job record's header holds only what it journals: the
// golden pass's findings, not the spec's runtime or check parameters.
var walSamples = []record{
	{Type: recJob, Job: 3, Spec: Spec{
		Mode: ModeSweep, App: "dma", Runtime: "EaseIO",
		Runs: 40, BaseSeed: -9, Shards: 4, ShardWorkers: 2,
	}, Tasks: [][]byte{{4}, {5, 6}}},
	{Type: recJob, Job: 5, Spec: Spec{
		Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Seed: 3},
	}, Plan: check.Header{Note: "nothing to do"}, Level1: []byte{0xD}},
	{Type: recJob, Job: 6, Spec: Spec{
		Mode: ModeCheck, App: "fig6", Runtime: "Alpaca",
		Check:  check.Config{Seed: 17, Grid: 64, Exhaustive: true, Failures: 2},
		Shards: 2,
	}, Plan: check.Header{
		App: "fig6-app", GoldenOnTime: time.Second, GoldenCorrect: true, Candidates: 9,
	}, Level1: []byte{0xA, 0xB, 0xC},
		Tasks: [][]byte{{1}, {2, 3}}},
	{Type: recShardDone, Job: 3, Shard: 1, Payload: []byte{1, 2, 3}},
	{Type: recShardFail, Job: 3, Shard: 0, Err: "boom", At: 987654321},
}

// TestWALRecordRoundTrip covers every record type's encode/decode pair.
func TestWALRecordRoundTrip(t *testing.T) {
	for _, want := range walSamples {
		got, err := decodeRecord(want.encode())
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}

	// install fills what the job record leaves out of a check header from
	// the spec's runtime and its check configuration under check's
	// defaults.
	c := &Coordinator{cfg: CoordinatorConfig{}.fill(), jobs: make(map[uint64]*job)}
	wantPlan := check.Header{App: "fig6-app", Runtime: "Alpaca", Seed: 17, Off: time.Millisecond,
		Failures: 2, GoldenOnTime: time.Second, GoldenCorrect: true, Candidates: 9}
	if got := c.install(walSamples[2]).plan; got != wantPlan {
		t.Errorf("installed header = %+v, want %+v", got, wantPlan)
	}

	// Truncations must fail cleanly, never panic.
	full := walSamples[2].encode()
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeRecord(full[:cut]); err == nil {
			t.Errorf("truncated record (%d of %d bytes) decoded without error", cut, len(full))
		}
	}
	if _, err := decodeRecord(append(full, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// FuzzDecodeRecord drives the WAL record decoder, which New runs over
// every record frame of the log on disk: no input panics, and every
// input it accepts is exactly the encoding of the record it decodes to.
// The seeds are records of every type, then every frame of a log this
// build writes (recordLog), each whole, cut at its midpoint and one byte
// short of its end.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range walSamples {
		f.Add(r.encode())
	}
	for _, payload := range walFrames(f, recordLog(f)) {
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
		f.Add(payload[:len(payload)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRecord(b)
		if err != nil {
			return
		}
		if got := r.encode(); !bytes.Equal(got, b) {
			t.Fatalf("%s record re-encodes to %x, decoded from %x", r.Type, got, b)
		}
	})
}

// TestWALTornTail pins the crash-append contract: a half-written frame
// at the tail is truncated away on open and the log stays appendable.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	w, recs, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	r1 := record{Type: recJob, Job: 0, Spec: Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 8}}
	r2 := record{Type: recShardFail, Job: 0, Shard: 0, Err: "boom", At: 99}
	if err := w.append(r1); err != nil {
		t.Fatal(err)
	}
	if err := w.append(r2); err != nil {
		t.Fatal(err)
	}
	w.close()

	// Tear the tail: a frame whose bytes stop partway, as a crash
	// mid-write leaves it.
	torn := wire.AppendFrame(nil, r2.encode())
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, recs, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Type != recJob || recs[1].Type != recShardFail {
		t.Fatalf("replay after torn tail: %d records %v", len(recs), recs)
	}
	// The torn bytes are gone: a fresh append lands on a clean boundary.
	if err := w2.append(r2); err != nil {
		t.Fatal(err)
	}
	w2.close()
	_, recs, err = openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("after truncate+append replayed %d records, want 3", len(recs))
	}

	// A CRC flip inside the retained log is corruption, not a torn tail:
	// open must refuse rather than drop committed records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0x40
	bad := filepath.Join(t.TempDir(), "bad.wal")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(bad, nil); err == nil {
		t.Fatal("corrupt WAL opened without error")
	}
}

// TestCoordinatorRecovery reopens a WAL mid-job: completed shards keep
// their results, the rest re-lease, and the merged summary still
// matches the in-process engine.
func TestCoordinatorRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.wal")
	spec := Spec{Mode: ModeSweep, App: "fir", Runtime: "InK", Runs: 9, BaseSeed: 21, Shards: 3}

	c1, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Execute exactly one shard by hand, then abandon the coordinator
	// with the second shard still leased — the crash shape.
	task, ok := c1.Lease("w0")
	if !ok {
		t.Fatal("lease: nothing leased")
	}
	result, err := ExecuteShard(context.Background(), testApps, task)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Complete("w0", result); err != nil {
		t.Fatal(err)
	}
	if _, ok := c1.Lease("w0"); !ok {
		t.Fatal("second lease: nothing leased")
	}
	c1.Close()

	c2, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if done, total, ok := c2.Progress(id); !ok || done != 1 || total != 3 {
		t.Fatalf("recovered progress %d/%d ok=%v, want 1/3", done, total, ok)
	}
	startLoopback(t, c2, 2)
	res := waitResult(t, c2, id)

	want, werr := experiments.RunMany(
		experiments.Config{Runs: 9, BaseSeed: 21, Workers: 3}, testApps["fir"], experiments.InK)
	if werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(res.Summary, want) {
		t.Errorf("recovered fleet summary differs from RunMany:\n%+v\nvs\n%+v", res.Summary, want)
	}
}

// TestCheckPlanPanicFailsJob: a check job whose app factory panics is
// refused at submit with the panic as Submit's error, and nothing reaches
// the log: a coordinator reopened on it holds no job and never calls the
// factory.
func TestCheckPlanPanicFailsJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.wal")
	var builds atomic.Int32
	src := mapSource{"boom": func() (*apps.Bench, error) {
		builds.Add(1)
		panic("factory exploded")
	}}
	c, err := New(CoordinatorConfig{WALPath: path, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(Spec{Mode: ModeCheck, App: "boom", Runtime: "EaseIO", Check: check.Config{Exhaustive: true}})
	if err == nil || !strings.Contains(err.Error(), "factory exploded") {
		t.Fatalf("Submit = %d, %v; want the factory's panic", id, err)
	}
	if builds.Load() == 0 {
		t.Fatal("the factory was never called")
	}
	c.Close()

	builds.Store(0)
	c2, err := New(CoordinatorConfig{WALPath: path, Source: src})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if _, _, ok := c2.Progress(0); ok {
		t.Error("the reopened coordinator holds the refused job")
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("reopening called the factory %d times, want 0", n)
	}
}

// TestLeaseExpiryAndRetry drives the failure paths on a fake clock: an
// expired lease re-leases to another worker without burning an attempt,
// failed attempts back off, and maxAttempts fails the job.
func TestLeaseExpiryAndRetry(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	m := NewMetrics()
	c := newTestCoordinator(t, func(cfg *CoordinatorConfig) {
		cfg.Now = clock
		cfg.LeaseTTL = 10 * time.Second
		cfg.Metrics = m
	})
	id, err := c.Submit(Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}

	task, ok := c.Lease("w-dead")
	if !ok {
		t.Fatal("lease: nothing leased")
	}
	if _, ok := c.Lease("w-live"); ok {
		t.Fatal("second lease granted while the shard is held")
	}
	advance(11 * time.Second)
	task2, ok := c.Lease("w-live")
	if !ok {
		t.Fatal("post-expiry lease: nothing leased")
	}
	if string(task2) != string(task) {
		t.Error("expired shard re-leased as a different task")
	}
	if m.Expirations.Value("w-dead") != 1 {
		t.Errorf("expirations(w-dead) = %d, want 1", m.Expirations.Value("w-dead"))
	}

	// First failure: backoff gates the next lease, then it reopens.
	job, shard, err := wire.PeekShard(task2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FailShard("w-live", job, shard, "transient"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lease("w-live"); ok {
		t.Fatal("lease granted inside the retry backoff")
	}
	advance(2 * retryBackoff)
	task3, ok := c.Lease("w-live")
	if !ok {
		t.Fatal("post-backoff lease: nothing leased")
	}

	// The stale holder's completion still wins the race if it lands
	// first — results are byte-identical either way.
	staleResult, err := ExecuteShard(context.Background(), testApps, task)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("w-dead", staleResult); err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, c, id)
	if res.Summary.Runs != 4 {
		t.Errorf("summary covers %d runs, want 4", res.Summary.Runs)
	}
	// And the re-leased worker's duplicate completion is a no-op.
	dup, err := ExecuteShard(context.Background(), testApps, task3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("w-live", dup); err != nil {
		t.Fatal(err)
	}

	// A second job exhausting maxAttempts fails terminally.
	id2, err := c.Submit(Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxAttempts; i++ {
		advance(time.Minute)
		task, ok := c.Lease("w-flaky")
		if !ok {
			t.Fatalf("attempt %d lease: nothing leased", i)
		}
		job, shard, _ := wire.PeekShard(task)
		if err := c.FailShard("w-flaky", job, shard, "persistent"); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, id2); err == nil || !strings.Contains(err.Error(), "persistent") {
		t.Errorf("exhausted job returned %v, want the terminal shard failure", err)
	}
	if m.Retries.Value("w-flaky") != maxAttempts {
		t.Errorf("retries(w-flaky) = %d, want %d", m.Retries.Value("w-flaky"), maxAttempts)
	}
}

// TestRetryBackoffSurvivesRestart is the lease-replay regression: a
// failed shard's backoff gate is derived from the journaled failure
// time, so a coordinator that restarts right after the failure must NOT
// hand the still-broken shard straight back out — before the fix,
// replay only bumped the attempt counter and the re-lease was
// immediate, defeating the backoff exactly when a crash-looping worker
// was knocking the coordinator over too.
func TestRetryBackoffSurvivesRestart(t *testing.T) {
	now := time.Unix(5000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	path := filepath.Join(t.TempDir(), "fleet.wal")
	mkCfg := func() CoordinatorConfig {
		return CoordinatorConfig{
			WALPath: path, Source: testApps, Now: clock,
			LeaseTTL: time.Minute,
		}
	}
	c1, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	id, err := c1.Submit(Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	task, ok := c1.Lease("w0")
	if !ok {
		t.Fatal("lease: nothing leased")
	}
	job, shard, err := wire.PeekShard(task)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.FailShard("w0", job, shard, "transient"); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Restart with the clock unmoved: the gate must hold.
	c2, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Lease("w0"); ok {
		t.Fatal("lease granted inside the retry backoff after a restart")
	}
	advance(retryBackoff + time.Millisecond)
	task2, ok := c2.Lease("w0")
	if !ok {
		t.Fatal("post-backoff lease after restart: nothing leased")
	}
	// The job still completes normally on the recovered coordinator.
	result, err := ExecuteShard(context.Background(), testApps, task2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Complete("w0", result); err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, c2, id)
	if res.Summary.Runs != 4 {
		t.Errorf("summary covers %d runs, want 4", res.Summary.Runs)
	}
}

// TestAttemptLimitSurvivesRestart pins the attempt limit across a crash:
// the third shard-fail record alone fails the job, so a coordinator
// reopened on a log cut right after that record fails the job with the
// live coordinator's message and never grants the shard a fourth
// attempt.
func TestAttemptLimitSurvivesRestart(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	cfg := CoordinatorConfig{WALPath: filepath.Join(t.TempDir(), "fleet.wal"), Source: testApps, Now: clock}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c1.Submit(Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxAttempts; i++ {
		advance(time.Minute)
		task, ok := c1.Lease("w-flaky")
		if !ok {
			t.Fatalf("attempt %d lease: nothing leased", i)
		}
		job, shard, _ := wire.PeekShard(task)
		if err := c1.FailShard("w-flaky", job, shard, fmt.Sprintf("attempt %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	_, liveErr := c1.Wait(context.Background(), id)
	if liveErr == nil || !strings.Contains(liveErr.Error(), "shard 0 failed 3 times, last: attempt 2") {
		t.Fatalf("live job outcome %v, want the attempt-limit failure", liveErr)
	}
	c1.Close()

	// Keep the log up to the third shard-fail record: the shortest log a
	// crash after that record's fsync can leave.
	var cut []byte
	fails := 0
	for _, payload := range walFrames(t, cfg.WALPath) {
		cut = wire.AppendFrame(cut, payload)
		if recType(payload[0]) == recShardFail {
			if fails++; fails == maxAttempts {
				break
			}
		}
	}
	if err := os.WriteFile(cfg.WALPath, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	advance(time.Hour)
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if task, ok := c2.Lease("w0"); ok {
		t.Fatalf("reopened coordinator leased %x: a fourth attempt", task)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c2.Wait(ctx, id); err == nil || err.Error() != liveErr.Error() {
		t.Errorf("reopened job outcome %v, want the live %v", err, liveErr)
	}
}

// fsyncCount reads the number of WAL fsyncs the metric set observed.
func fsyncCount(t *testing.T, m *Metrics) string {
	t.Helper()
	var b bytes.Buffer
	m.WALFsync.Expose(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if count, ok := strings.CutPrefix(line, "easeio_fleet_wal_fsync_seconds_count "); ok {
			return count
		}
	}
	t.Fatalf("no fsync count in\n%s", b.String())
	return ""
}

// TestSchedulingNeverReachesDisk pins that a lease is scheduling state
// only: leases, a lease expiry and a re-lease leave the WAL's size and
// the fsync count unchanged, and a coordinator reopened on the log
// reports no first lease for a job leased before the restart.
func TestSchedulingNeverReachesDisk(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	m := NewMetrics()
	cfg := CoordinatorConfig{
		WALPath: filepath.Join(t.TempDir(), "fleet.wal"), Source: testApps,
		Now: clock, LeaseTTL: 10 * time.Second, Metrics: m,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c1.Submit(Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	walSize := func() int64 {
		fi, err := os.Stat(cfg.WALPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	size, fsyncs := walSize(), fsyncCount(t, m)

	for _, worker := range []string{"w-dead", "w-dead"} {
		if _, ok := c1.Lease(worker); !ok {
			t.Fatalf("lease to %s: nothing leased", worker)
		}
	}
	advance(11 * time.Second)
	for _, worker := range []string{"w-live", "w-live"} {
		if _, ok := c1.Lease(worker); !ok {
			t.Fatalf("re-lease to %s: nothing leased", worker)
		}
	}
	if n := m.Expirations.Value("w-dead"); n != 2 {
		t.Errorf("expirations(w-dead) = %d, want 2", n)
	}
	if got := walSize(); got != size {
		t.Errorf("leases grew the WAL from %d to %d bytes", size, got)
	}
	if got := fsyncCount(t, m); got != fsyncs {
		t.Errorf("leases moved the fsync count from %s to %s", fsyncs, got)
	}
	if _, first, _ := c1.LeaseInfo(id); !first.Equal(time.Unix(1000, 0)) {
		t.Errorf("live first lease at %v, want the first grant", first)
	}
	c1.Close()

	cfg.Metrics = nil
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, first, ok := c2.LeaseInfo(id); !ok || !first.IsZero() {
		t.Errorf("reopened first lease = %v (ok=%v), want zero", first, ok)
	}
}

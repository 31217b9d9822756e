// Tests for the coordinator's result side: Complete checks every shard
// result against the shard's task before journaling it, so a malformed
// result — from a buggy or hostile TCP worker — is a failed attempt, not
// a coordinator panic, an unbounded merge loop or a silently skewed
// merge. Finished jobs release their bytes.

package fleet

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/wire"
)

// completeDeadline bounds one Complete call in these tests. A merge that
// loops over a forged depth would otherwise hang the test binary.
const completeDeadline = 20 * time.Second

// completeOutcome is what one bounded Complete call did.
type completeOutcome struct {
	err      error
	panicked any
	returned bool
}

// completeWithin runs c.Complete in a goroutine and waits at most
// completeDeadline. A call that does not return leaves c locked: the
// caller must not touch that coordinator again.
func completeWithin(c *Coordinator, worker string, payload []byte) completeOutcome {
	out := make(chan completeOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- completeOutcome{panicked: r, returned: true}
			}
		}()
		out <- completeOutcome{err: c.Complete(worker, payload), returned: true}
	}()
	select {
	case o := <-out:
		return o
	case <-time.After(completeDeadline):
		return completeOutcome{}
	}
}

// leaseAll leases every pending shard of a fresh coordinator and returns
// the honest result of each, in shard order.
func leaseAll(t *testing.T, c *Coordinator) [][]byte {
	t.Helper()
	var results [][]byte
	for {
		task, ok := c.Lease("w0")
		if !ok {
			return results
		}
		res, err := ExecuteShard(context.Background(), testApps, task)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
}

// forgeSweep rewrites one sweep result through f.
func forgeSweep(t *testing.T, payload []byte, f func(*wire.SweepResult)) []byte {
	t.Helper()
	r, err := wire.DecodeSweepResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	f(&r)
	return wire.AppendSweepResult(nil, r)
}

// forgeSubtree rewrites one check result through f.
func forgeSubtree(t *testing.T, payload []byte, f func(*wire.SubtreeResult)) []byte {
	t.Helper()
	r, err := wire.DecodeSubtreeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	f(&r)
	return wire.AppendSubtreeResult(nil, r)
}

// TestCompleteChecksResults drives Complete with one malformed result per
// case on a loopback coordinator. A result that does not fit its task is
// rejected as a failed attempt and never journaled; sweep shards that
// disagree on the app fail the job at merge. Either way Complete returns
// within the deadline without panicking, and the reopened WAL agrees.
func TestCompleteChecksResults(t *testing.T) {
	sweep := Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, BaseSeed: 3, Shards: 2}
	oneShard := Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, BaseSeed: 3, Shards: 1}
	fig6 := Spec{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Exhaustive: true}, Shards: 2}
	// One shard, so the malformed result is also the last: the merge runs.
	fig6Whole := Spec{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Exhaustive: true}, Shards: 1}
	cases := []struct {
		name string
		spec Spec
		// forge rewrites the honest results into the completions sent, in
		// order; the last one is the malformed one.
		forge func(t *testing.T, honest [][]byte) [][]byte
		// rejected: the last completion is refused as a failed attempt.
		// Otherwise every completion lands and the job fails at merge.
		rejected bool
		want     string
	}{
		{"mixed-apps", sweep, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{h[0], forgeSweep(t, h[1], func(r *wire.SweepResult) { r.Agg.App = "temp" })}
		}, false, "earlier shards"},
		{"fewer-totals-than-runs", oneShard, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{forgeSweep(t, h[0], func(r *wire.SweepResult) {
				r.Agg.Runs, r.Agg.Totals = 1, r.Agg.Totals[:3]
			})}
		}, true, "3 run totals for 1 runs"},
		{"more-runs-than-seeds", sweep, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{forgeSweep(t, h[0], func(r *wire.SweepResult) {
				r.Agg.Runs++
				r.Agg.Correct++
				r.Agg.Totals = append(r.Agg.Totals, time.Millisecond)
			})}
		}, true, "3 runs for a shard of 2 seeds"},
		{"negative-runs", sweep, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{forgeSweep(t, h[0], func(r *wire.SweepResult) {
				r.Agg.Runs, r.Agg.Totals = -1, nil
			})}
		}, true, "-1 runs"},
		{"outcomes-do-not-add-up", sweep, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{forgeSweep(t, h[0], func(r *wire.SweepResult) { r.Agg.Stuck++ })}
		}, true, "stuck for 2 runs"},
		{"foreign-runtime", sweep, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{forgeSweep(t, h[0], func(r *wire.SweepResult) { r.Agg.Runtime = "InK" })}
		}, true, `runtime "InK"`},
		{"check-result-for-sweep", sweep, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{wire.AppendSubtreeResult(nil, wire.SubtreeResult{Job: 0, Shard: 0})}
		}, true, "message kind"},
		{"huge-depth", fig6Whole, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{forgeSubtree(t, h[0], func(r *wire.SubtreeResult) {
				r.Depths = []check.DepthStats{{Depth: 1 << 40, Explored: 1}}
			})}
		}, true, "outside [1, 1]"},
		{"zero-depth", fig6, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{forgeSubtree(t, h[0], func(r *wire.SubtreeResult) { r.Depths[0].Depth = 0 })}
		}, true, "depth 0 outside"},
		{"negative-count", fig6, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{forgeSubtree(t, h[0], func(r *wire.SubtreeResult) { r.Depths[0].Pruned = -5 })}
		}, true, "negative count"},
		{"schedule-deeper-than-k", fig6, func(t *testing.T, h [][]byte) [][]byte {
			return [][]byte{forgeSubtree(t, h[0], func(r *wire.SubtreeResult) {
				r.Divergences = append(r.Divergences, check.Divergence{
					Kind: "memory", Schedule: []time.Duration{time.Millisecond, 2 * time.Millisecond}})
			})}
		}, true, "divergence schedule of 2 failures"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics()
			cfg := CoordinatorConfig{
				WALPath: filepath.Join(t.TempDir(), "fleet.wal"), Source: testApps, Metrics: m,
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			id, err := c.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sends := tc.forge(t, leaseAll(t, c))
			for i, payload := range sends {
				o := completeWithin(c, "w0", payload)
				switch {
				case !o.returned:
					// c stays locked by the stuck call: leave it alone.
					t.Fatalf("completion %d did not return within %v", i, completeDeadline)
				case o.panicked != nil:
					t.Fatalf("completion %d panicked: %v", i, o.panicked)
				}
				last := i == len(sends)-1
				if tc.rejected && last {
					if o.err == nil || !strings.Contains(o.err.Error(), tc.want) {
						t.Errorf("malformed completion returned %v, want a rejection naming %q", o.err, tc.want)
					}
				} else if o.err != nil {
					t.Errorf("completion %d: %v", i, o.err)
				}
			}

			// observe checks the job on the live coordinator and on the one
			// reopened from its WAL.
			observe := func(c *Coordinator) {
				t.Helper()
				done, total, _ := c.Progress(id)
				if tc.rejected {
					if done != len(sends)-1 || total == done {
						t.Errorf("progress %d/%d after the rejection, want %d done and the job open",
							done, total, len(sends)-1)
					}
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if _, err := c.Wait(ctx, id); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("job outcome %v, want a failure naming %q", err, tc.want)
				}
			}
			observe(c)
			if tc.rejected && m.Retries.Value("w0") != 1 {
				t.Errorf("retries(w0) = %d, want the rejection counted as one failed attempt",
					m.Retries.Value("w0"))
			}
			c.Close()
			c, err = New(cfg)
			if err != nil {
				t.Fatalf("reopening the WAL: %v", err)
			}
			defer c.Close()
			observe(c)
		})
	}
}

// TestRejectedResultsFailJobAtAttemptLimit pins the end of a bad
// worker's loop: every rejection is a failed attempt, so the job fails
// after maxAttempts with the validation message instead of re-leasing
// the shard forever.
func TestRejectedResultsFailJobAtAttemptLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	c := newTestCoordinator(t, func(cfg *CoordinatorConfig) { cfg.Now = clock })
	id, err := c.Submit(Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxAttempts; i++ {
		advance(time.Minute)
		h := leaseAll(t, c)
		if len(h) != 1 {
			t.Fatalf("attempt %d leased %d shards, want 1", i, len(h))
		}
		bad := forgeSweep(t, h[0], func(r *wire.SweepResult) { r.Agg.Totals = nil })
		if err := c.Complete("w-bad", bad); err == nil {
			t.Fatalf("attempt %d: malformed result accepted", i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = c.Wait(ctx, id)
	if err == nil || !strings.Contains(err.Error(), "rejected result: 0 run totals for 4 runs") {
		t.Errorf("job outcome %v, want the terminal rejection", err)
	}
}

// TestRejectedResultOverTCP sends a malformed result through ServeFleet:
// the sending worker gets the rejection back, and an honest worker on
// another connection still completes the job byte-identical to RunMany.
func TestRejectedResultOverTCP(t *testing.T) {
	c := newTestCoordinator(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeFleet(ln, c)
	t.Cleanup(func() { ln.Close() })

	spec := Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, BaseSeed: 9, Shards: 1}
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := dialFleet(ln.Addr().String(), "tcp-bad")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.close()
	task, ok, err := bad.lease()
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	honest, err := ExecuteShard(context.Background(), testApps, task)
	if err != nil {
		t.Fatal(err)
	}
	forged := forgeSweep(t, honest, func(r *wire.SweepResult) {
		r.Agg.Runs, r.Agg.Totals = 1, r.Agg.Totals[:3]
	})
	if err := bad.complete(forged); err == nil || !strings.Contains(err.Error(), "rejected result") {
		t.Errorf("malformed completion over TCP returned %v, want the rejection", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunTCPWorker(ctx, ln.Addr().String(), "tcp-good", testApps, time.Millisecond); err != nil {
			t.Errorf("tcp worker: %v", err)
		}
	}()
	t.Cleanup(func() { cancel(); wg.Wait() })
	res := waitResult(t, c, id)
	want, err := experiments.RunMany(
		experiments.Config{Runs: 4, BaseSeed: 9, Workers: 2}, testApps["dma"], experiments.EaseIO)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Summary, want) {
		t.Errorf("summary after a rejected result differs from RunMany:\n%+v\nvs\n%+v", res.Summary, want)
	}
}

// TestFinishedJobReleasesBytes pins that a finished job keeps none of
// its tasks, shard results or level-1 result in memory, and that the
// result recovered from the WAL equals the one the live coordinator
// returned.
func TestFinishedJobReleasesBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.wal")
	cfg := CoordinatorConfig{WALPath: path, Source: testApps}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Mode: ModeSweep, App: "fir", Runtime: "InK", Runs: 6, BaseSeed: 4, Shards: 3},
		{Mode: ModeCheck, App: "fig6", Runtime: "Alpaca", Check: check.Config{Exhaustive: true, Failures: 2}, Shards: 3},
	}
	var ids []uint64
	for _, s := range specs {
		id, err := c.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	stop := startLoopback(t, c, 2)
	var live []Result
	for _, id := range ids {
		live = append(live, waitResult(t, c, id))
	}
	stop()
	released := func(c *Coordinator) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, id := range ids {
			j := c.jobs[id]
			if j.level1 != nil {
				t.Errorf("job %d keeps %d level-1 bytes", id, len(j.level1))
			}
			for i, sh := range j.shards {
				if sh.task != nil || sh.payload != nil {
					t.Errorf("job %d shard %d keeps %d task and %d result bytes",
						id, i, len(sh.task), len(sh.payload))
				}
			}
		}
	}
	released(c)
	c.Close()

	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	released(c)
	for i, id := range ids {
		got := waitResult(t, c, id)
		if !reflect.DeepEqual(got, live[i]) {
			t.Errorf("job %d recovered result differs from the live one:\n%+v\nvs\n%+v", id, got, live[i])
		}
	}
}

// scanLen is the length of the coordinator's lease scan order.
func scanLen(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// TestFinishedJobsLeaveLeaseScan checks that Lease and lease expiry stay
// bounded by the unfinished jobs: succeeded jobs leave the scan order, a
// job refused at submit never enters it, a later job still leases and
// merges byte-identically to RunMany, and a coordinator reopened from the
// WAL scans only the job it left unfinished. The log journals inputs
// only, so the reopened coordinator rebuilds every finished job, the
// divergent fig6 k=2 check among them, by merging its journaled shard
// results.
func TestFinishedJobsLeaveLeaseScan(t *testing.T) {
	cfg := CoordinatorConfig{WALPath: filepath.Join(t.TempDir(), "fleet.wal"), Source: testApps}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(Spec{Mode: ModeCheck, App: "nope", Runtime: "EaseIO"}); err == nil {
		t.Fatal("a check of an unknown app was accepted")
	}
	var specs []Spec
	for i := 0; i < 20; i++ {
		specs = append(specs, Spec{Mode: ModeSweep, App: "temp", Runtime: "EaseIO", Runs: 2, BaseSeed: int64(i), Shards: 2})
	}
	specs = append(specs, Spec{Mode: ModeCheck, App: "fig6", Runtime: "Alpaca", Check: check.Config{Exhaustive: true}, Shards: 2})
	nested := len(specs)
	specs = append(specs, Spec{Mode: ModeCheck, App: "fig6", Runtime: "Alpaca", Check: check.Config{Exhaustive: true, Failures: 2}, Shards: 2})
	var ids []uint64
	for _, s := range specs {
		id, err := c.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	stop := startLoopback(t, c, 2)
	live := map[uint64]Result{}
	for _, id := range ids {
		live[id] = waitResult(t, c, id)
	}
	stop()
	if n := scanLen(c); n != 0 {
		t.Errorf("%d finished jobs still in the lease scan order", n)
	}

	want, err := experiments.RunMany(experiments.Config{Runs: 6, BaseSeed: 30, Workers: 1}, testApps["fir"], experiments.InK)
	if err != nil {
		t.Fatal(err)
	}
	later := Spec{Mode: ModeSweep, App: "fir", Runtime: "InK", Runs: 6, BaseSeed: 30, Shards: 3}
	id, err := c.Submit(later)
	if err != nil {
		t.Fatal(err)
	}
	if n := scanLen(c); n != 1 {
		t.Errorf("scan order holds %d jobs, want the 1 unfinished", n)
	}
	stop = startLoopback(t, c, 2)
	live[id] = waitResult(t, c, id)
	stop()
	if !reflect.DeepEqual(live[id].Summary, want) {
		t.Errorf("later job differs from RunMany:\n%+v\nvs\n%+v", live[id].Summary, want)
	}

	pending, err := c.Submit(later)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := scanLen(c); n != 1 {
		t.Errorf("reopened scan order holds %d jobs, want the 1 unfinished", n)
	}
	for id, res := range live {
		if got := waitResult(t, c, id); !reflect.DeepEqual(got, res) {
			t.Errorf("job %d recovered result differs from the live one:\n%+v\nvs\n%+v", id, got, res)
		}
	}
	wantRep, err := check.Run(context.Background(), check.Fig6Bench, experiments.Alpaca,
		check.Config{Exhaustive: true, Failures: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitResult(t, c, ids[nested]).Report; len(got.Divergences) == 0 || !reflect.DeepEqual(got, wantRep) {
		t.Errorf("recovered fig6 k=2 report differs from check.Run or passed:\n%s--- check.Run ---\n%s",
			got.Render(), wantRep.Render())
	}
	startLoopback(t, c, 2)
	if got := waitResult(t, c, pending); !reflect.DeepEqual(got.Summary, want) {
		t.Errorf("resumed job differs from RunMany:\n%+v\nvs\n%+v", got.Summary, want)
	}
	if n := scanLen(c); n != 0 {
		t.Errorf("%d finished jobs still in the reopened scan order", n)
	}
}

// walFrames returns the frame payloads of the log at path, in order.
func walFrames(tb testing.TB, path string) [][]byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for rd := bytes.NewReader(data); ; {
		payload, err := wire.ReadFrame(rd)
		if err == io.EOF {
			return out
		}
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, payload)
	}
}

// templateWAL plans spec on a fresh coordinator and returns its log.
func templateWAL(dir string, spec Spec) ([]byte, error) {
	path := filepath.Join(dir, spec.Mode+".wal")
	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if _, err := c.Submit(spec); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// FuzzComplete feeds arbitrary bytes to Complete as the completion of a
// leased shard, of a planned sweep or of a planned fig6 k=2 check. The
// property: Complete returns without panicking, and neither does a Lease
// over the state it left. Every input starts from a copy of the same
// planned log.
func FuzzComplete(f *testing.F) {
	templates := map[bool][]byte{}
	for isCheck, spec := range map[bool]Spec{
		false: {Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, BaseSeed: 1, Shards: 2},
		true:  {Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Exhaustive: true, Failures: 2}, Shards: 2},
	} {
		tmpl, err := templateWAL(f.TempDir(), spec)
		if err != nil {
			f.Fatal(err)
		}
		templates[isCheck] = tmpl
	}
	// Seeds: each job's honest first-shard result and forged variants.
	for _, isCheck := range []bool{false, true} {
		c, task := fuzzCoordinator(f, templates[isCheck])
		honest, err := ExecuteShard(context.Background(), testApps, task)
		c.Close()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(isCheck, honest)
		f.Add(isCheck, honest[:len(honest)/2])
		if isCheck {
			r, _ := wire.DecodeSubtreeResult(honest)
			r.Depths = append(r.Depths, check.DepthStats{Depth: 1 << 40})
			f.Add(isCheck, wire.AppendSubtreeResult(nil, r))
		} else {
			r, _ := wire.DecodeSweepResult(honest)
			r.Agg.App = "temp"
			f.Add(isCheck, wire.AppendSweepResult(nil, r))
		}
	}
	f.Add(false, []byte{})

	f.Fuzz(func(t *testing.T, isCheck bool, payload []byte) {
		c, _ := fuzzCoordinator(t, templates[isCheck])
		defer c.Close()
		_ = c.Complete("w-fuzz", payload)
		c.Lease("w1")
	})
}

// fuzzCoordinator opens a coordinator on a copy of a template log and
// leases the job's first shard.
func fuzzCoordinator(t testing.TB, tmpl []byte) (*Coordinator, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.wal")
	if err := os.WriteFile(path, tmpl, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		t.Fatal(err)
	}
	task, ok := c.Lease("w0")
	if !ok {
		c.Close()
		t.Fatal("template lease: nothing leased")
	}
	return c, task
}

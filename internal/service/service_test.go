// Service tests: the HTTP result must be byte-identical to the
// in-process sweep, backpressure must reject rather than block, the
// registry must analyze once under concurrency, cancellation must stop a
// job at a seed boundary, and shutdown must drain in-flight sweeps.

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/check"
	"easeio/internal/experiments"
)

func newTestStack(t *testing.T, queueSize, workers int) (*Manager, *Registry, *Metrics, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	if err := RegisterBenches(reg); err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	mgr := NewManager(reg, metrics, queueSize, workers)
	srv := httptest.NewServer(NewServer(mgr, reg, metrics).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return mgr, reg, metrics, srv
}

func postJob(t *testing.T, base string, spec string) (Status, int) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getJob(t *testing.T, base string, id uint64) Status {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, base string, id uint64) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := getJob(t, base, id)
		switch st.State {
		case "succeeded", "failed", "cancelled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in state %s (%d/%d runs)", id, st.State, st.DoneRuns, st.TotalRuns)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPSweepMatchesInProcess is the service's load-bearing guarantee:
// a sweep submitted over HTTP returns a stats.Summary deep-equal to the
// in-process experiments.RunMany result for the same configuration.
func TestHTTPSweepMatchesInProcess(t *testing.T) {
	_, _, _, srv := newTestStack(t, 8, 2)

	st, code := postJob(t, srv.URL,
		`{"app":"dma","runtime":"EaseIO","runs":16,"base_seed":7,"workers":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	final := waitTerminal(t, srv.URL, st.ID)
	if final.State != "succeeded" {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Summary == nil {
		t.Fatal("no summary on a succeeded job")
	}
	if final.DoneRuns != 16 || final.TotalRuns != 16 {
		t.Errorf("progress = %d/%d, want 16/16", final.DoneRuns, final.TotalRuns)
	}

	direct, err := experiments.RunMany(
		experiments.Config{Runs: 16, BaseSeed: 7, Workers: 4},
		func() (*apps.Bench, error) { return apps.NewDMAApp(apps.DefaultDMAConfig()) },
		experiments.EaseIO)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*final.Summary, direct) {
		t.Errorf("HTTP summary differs from in-process sweep:\n%+v\nvs\n%+v", *final.Summary, direct)
	}
}

// TestBackpressureRejectsNeverBlocks fills the queue behind a gated
// blueprint and checks that the next submission gets 429 promptly — the
// accept loop must never block on a full queue.
func TestBackpressureRejectsNeverBlocks(t *testing.T) {
	reg := NewRegistry()
	gate := make(chan struct{})
	err := reg.Register("slow", func() (*apps.Bench, error) {
		<-gate
		return apps.NewDMAApp(apps.DefaultDMAConfig())
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	mgr := NewManager(reg, metrics, 1, 1)
	srv := httptest.NewServer(NewServer(mgr, reg, metrics).Handler())
	defer srv.Close()

	// First job occupies the single worker (blocked on the gate).
	a, code := postJob(t, srv.URL, `{"app":"slow","runtime":"EaseIO","runs":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("job A: status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, srv.URL, a.ID).State != "running" {
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Second job fills the queue (capacity 1).
	if _, code := postJob(t, srv.URL, `{"app":"slow","runtime":"EaseIO","runs":1}`); code != http.StatusAccepted {
		t.Fatalf("job B: status %d", code)
	}
	// Third job must be rejected immediately, not block the accept loop.
	start := time.Now()
	_, code = postJob(t, srv.URL, `{"app":"slow","runtime":"EaseIO","runs":1}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job C: status %d, want 429", code)
	}
	if wait := time.Since(start); wait > 2*time.Second {
		t.Errorf("rejection took %v; the accept loop blocked", wait)
	}
	if got := metrics.JobsRejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	close(gate) // let A and B finish
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestConcurrentJobsAndCancellation drives four jobs concurrently (the
// acceptance bar) and cancels the largest mid-flight: the cancelled job
// must stop at a seed boundary with a partial summary while the others
// succeed untouched.
func TestConcurrentJobsAndCancellation(t *testing.T) {
	_, _, _, srv := newTestStack(t, 8, 4)

	big, code := postJob(t, srv.URL,
		`{"app":"dma","runtime":"EaseIO","runs":500000,"base_seed":1,"workers":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("big job: status %d", code)
	}
	small := make([]Status, 3)
	for i := range small {
		st, code := postJob(t, srv.URL, fmt.Sprintf(
			`{"app":"temp","runtime":"Alpaca","runs":8,"base_seed":%d,"workers":1}`, 100+i))
		if code != http.StatusAccepted {
			t.Fatalf("small job %d: status %d", i, code)
		}
		small[i] = st
	}

	// Cancel the big job once it has made some progress.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getJob(t, srv.URL, big.ID)
		if st.State == "running" && st.DoneRuns >= 1 {
			break
		}
		if st.State != "running" && st.State != "queued" {
			t.Fatalf("big job reached %s before it could be cancelled", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("big job never made progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", srv.URL, big.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := waitTerminal(t, srv.URL, big.ID)
	if final.State != "cancelled" {
		t.Fatalf("big job ended %s, want cancelled", final.State)
	}
	if final.Summary == nil || final.Summary.Runs == 0 || final.Summary.Runs >= 500000 {
		t.Errorf("cancelled job should carry a partial summary, got %+v", final.Summary)
	}
	for i, st := range small {
		f := waitTerminal(t, srv.URL, st.ID)
		if f.State != "succeeded" {
			t.Errorf("small job %d ended %s: %s", i, f.State, f.Error)
		}
		if f.Summary == nil || f.Summary.Runs != 8 {
			t.Errorf("small job %d summary: %+v", i, f.Summary)
		}
	}
}

// TestRegistrySingleFlight hammers one blueprint's Prototype from many
// goroutines: the factory — and with it frontend.Analyze on the shared
// app — must run exactly once.
func TestRegistrySingleFlight(t *testing.T) {
	reg := NewRegistry()
	var calls atomic.Int64
	err := reg.Register("counted", func() (*apps.Bench, error) {
		calls.Add(1)
		return apps.NewDMAApp(apps.DefaultDMAConfig())
	})
	if err != nil {
		t.Fatal(err)
	}
	bp, _ := reg.Lookup("counted")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := bp.Prototype(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("factory ran %d times, want 1", got)
	}
	if err := reg.Register("counted", bp.Factory); err == nil {
		t.Error("duplicate registration must fail")
	}
}

// TestGracefulShutdownDrains submits a job, shuts the manager down, and
// checks the in-flight sweep completed while later submissions are
// refused.
func TestGracefulShutdownDrains(t *testing.T) {
	reg := NewRegistry()
	if err := RegisterPaperBenches(reg); err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	mgr := NewManager(reg, metrics, 4, 2)

	j, err := mgr.Submit(JobSpec{App: "dma", Runtime: "EaseIO", Runs: 64, BaseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker pick it up so shutdown exercises the drain path.
	deadline := time.Now().Add(10 * time.Second)
	for j.State() == Queued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := j.State(); st != Succeeded {
		t.Errorf("in-flight job ended %s, want succeeded (drained)", st)
	}
	if _, err := mgr.Submit(JobSpec{App: "dma", Runtime: "EaseIO", Runs: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after shutdown: err = %v, want ErrClosed", err)
	}
	if mgr.Shutdown(ctx) != nil {
		t.Error("second shutdown must be a no-op")
	}
}

// TestJobPanicIsolation routes a panicking factory through a job: the
// job fails, the worker and server survive.
func TestJobPanicIsolation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("boom", func() (*apps.Bench, error) { panic("factory exploded") }); err != nil {
		t.Fatal(err)
	}
	if err := RegisterPaperBenches(reg); err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	mgr := NewManager(reg, metrics, 4, 1)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()

	j, err := mgr.Submit(JobSpec{App: "boom", Runtime: "EaseIO", Runs: 4})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != Failed {
		t.Fatalf("panicking job ended %s, want failed", j.State())
	}
	if got := metrics.JobsPanicked.Load(); got != 1 {
		t.Errorf("panicked counter = %d, want 1", got)
	}

	// The single worker must still be alive to run the next job.
	ok, err := mgr.Submit(JobSpec{App: "dma", Runtime: "EaseIO", Runs: 4, BaseSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	<-ok.Done()
	if ok.State() != Succeeded {
		t.Errorf("post-panic job ended %s: %s", ok.State(), ok.Status().Error)
	}
}

// TestMetricsEndpoint checks the exposition format carries the counters
// a scrape needs.
func TestMetricsEndpoint(t *testing.T) {
	mgr, _, _, srv := newTestStack(t, 4, 1)
	j, err := mgr.Submit(JobSpec{App: "temp", Runtime: "EaseIO", Runs: 8, BaseSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"easeio_jobs_accepted_total 1",
		"easeio_jobs_completed_total 1",
		"easeio_runs_completed_total 8",
		"easeio_queue_depth 0",
		"easeio_wasted_work_ratio",
		"easeio_power_failures_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The ratio gauge must agree with the job's own summary.
	sum := *j.Status().Summary
	if sum.WastedRatio() <= 0 {
		t.Errorf("expected some wasted work under timer failures, ratio = %v", sum.WastedRatio())
	}
}

// TestSubmitValidation is the table-driven negative surface: every
// malformed spec must be rejected before queueing, with the exact error
// text and the HTTP 400 mapping pinned.
func TestSubmitValidation(t *testing.T) {
	mgr, _, metrics, srv := newTestStack(t, 4, 1)

	cases := []struct {
		name    string
		spec    JobSpec
		wantErr string
	}{
		{
			name:    "unknown blueprint",
			spec:    JobSpec{App: "nosuch", Runtime: "EaseIO", Runs: 4},
			wantErr: `service: unknown blueprint "nosuch" (registered: [branch dma fig6 fir fir-op lea sensor temp weather weather-db])`,
		},
		{
			name:    "bad runtime",
			spec:    JobSpec{App: "dma", Runtime: "quickrecall", Runs: 4},
			wantErr: `experiments: unknown runtime "quickrecall" (want Alpaca, InK, EaseIO or JustDo)`,
		},
		{
			// The paper's "EaseIO/Op." is an Exclude-annotated blueprint
			// (fir-op) under EaseIO, not a runtime: accepting it would run
			// plain EaseIO under that label.
			name:    "exclude configuration as runtime",
			spec:    JobSpec{App: "fir", Runtime: "EaseIO/Op.", Runs: 4},
			wantErr: `experiments: unknown runtime "EaseIO/Op." (want Alpaca, InK, EaseIO or JustDo)`,
		},
		{
			name:    "zero runs",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO"},
			wantErr: "service: sweep job needs a positive run count (got 0)",
		},
		{
			name:    "negative runs",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Runs: -3},
			wantErr: "service: sweep job needs a positive run count (got -3)",
		},
		{
			name:    "negative timeout",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Runs: 4, TimeoutMs: -1},
			wantErr: "service: timeout -1 ms out of range (want 0 for none, at most 24h)",
		},
		{
			name:    "absurd timeout",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Runs: 4, TimeoutMs: 25 * 60 * 60 * 1000},
			wantErr: "service: timeout 90000000 ms out of range (want 0 for none, at most 24h)",
		},
		{
			// In-process a negative count would run at GOMAXPROCS, while the
			// fleet fails the job: both paths refuse it here instead.
			name:    "negative workers",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Runs: 4, Workers: -2},
			wantErr: "service: workers -2 is negative (0 means the default)",
		},
		{
			name:    "unknown mode",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Runs: 4, Mode: "fuzz"},
			wantErr: `service: unknown mode "fuzz" (want "sweep" or "check")`,
		},
		{
			name:    "check job with runs",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Runs: 4, Mode: "check"},
			wantErr: "service: check job does not take a run count (got 4)",
		},
		{
			name:    "sweep job with failure depth",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Runs: 4, Failures: 2},
			wantErr: "service: sweep job does not take a failure depth (got 2)",
		},
		{
			name:    "sweep job with check grid",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Runs: 4, CheckGrid: 32},
			wantErr: "service: sweep job does not take a check grid (got 32)",
		},
		{
			name:    "sweep job with check_exhaustive",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Runs: 4, CheckExhaustive: true},
			wantErr: "service: sweep job does not take check_exhaustive",
		},
		{
			name:    "check job negative grid",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Mode: "check", CheckGrid: -8},
			wantErr: "service: check grid -8 is negative (0 means the default)",
		},
		{
			name:    "check job failure depth too deep",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Mode: "check", Failures: 5},
			wantErr: "service: check: failure depth 5 out of range [1, 4]",
		},
		{
			name:    "check job negative failure depth",
			spec:    JobSpec{App: "dma", Runtime: "EaseIO", Mode: "check", Failures: -1},
			wantErr: "service: check: failure depth -1 out of range [1, 4]",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := mgr.Submit(c.spec)
			if err == nil {
				t.Fatal("spec accepted")
			}
			if err.Error() != c.wantErr {
				t.Errorf("error = %q,\nwant    %q", err.Error(), c.wantErr)
			}

			// The HTTP layer must map every validation error to 400 with the
			// same message in the JSON body.
			body, err2 := json.Marshal(c.spec)
			if err2 != nil {
				t.Fatal(err2)
			}
			resp, err2 := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(string(body)))
			if err2 != nil {
				t.Fatal(err2)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("HTTP status = %d, want 400", resp.StatusCode)
			}
			var msg map[string]string
			if err2 := json.NewDecoder(resp.Body).Decode(&msg); err2 != nil {
				t.Fatal(err2)
			}
			if msg["error"] != c.wantErr {
				t.Errorf("HTTP error body = %q,\nwant         %q", msg["error"], c.wantErr)
			}
		})
	}

	// A spec with an unknown JSON field dies in the decoder, also a 400 —
	// including the retired lockstep "batch" width. So does data after the
	// spec, and a body over the 4 KiB bound is a 413, even when it is one
	// valid spec padded with white space.
	valid := `{"app":"dma","runtime":"EaseIO","runs":4}`
	for _, c := range []struct {
		body string
		code int
	}{
		{`{"app":"dma","bogus":1}`, http.StatusBadRequest},
		{`{"app":"dma","runtime":"EaseIO","runs":4,"batch":8}`, http.StatusBadRequest},
		{valid + `garbage`, http.StatusBadRequest},
		{valid + `}`, http.StatusBadRequest},
		{valid + valid, http.StatusBadRequest},
		{valid + strings.Repeat(" ", 4<<10), http.StatusRequestEntityTooLarge},
	} {
		if _, code := postJob(t, srv.URL, c.body); code != c.code {
			t.Errorf("body %.60q: status %d, want %d", c.body, code, c.code)
		}
	}
	// None of the rejections may consume a queue slot.
	if got := metrics.JobsAccepted.Load(); got != 0 {
		t.Errorf("accepted counter = %d after only invalid submissions", got)
	}
}

// TestCheckJobOverHTTP submits a check-mode job and verifies the report
// arrives in Status.Check, matches the in-process checker result, and the
// check metrics counters advance.
func TestCheckJobOverHTTP(t *testing.T) {
	_, _, metrics, srv := newTestStack(t, 4, 1)

	st, code := postJob(t, srv.URL,
		`{"app":"temp","runtime":"EaseIO","mode":"check","base_seed":3,"check_grid":24,"workers":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	final := waitTerminal(t, srv.URL, st.ID)
	if final.State != "succeeded" {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.Check == nil {
		t.Fatal("no check report in the terminal status")
	}
	if final.Summary != nil {
		t.Error("check job carries a sweep summary")
	}
	if !final.Check.Passed() {
		t.Errorf("temp under EaseIO diverged:\n%+v", final.Check.Divergences)
	}
	if final.DoneRuns != final.Check.Explored || final.TotalRuns != final.Check.Explored {
		t.Errorf("progress = %d/%d, want %d explored points",
			final.DoneRuns, final.TotalRuns, final.Check.Explored)
	}

	direct, err := check.Run(context.Background(), tempBenchFactory, experiments.EaseIO,
		check.Config{Seed: 3, Grid: 24, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if final.Check.Candidates != direct.Candidates || final.Check.Explored != direct.Explored ||
		final.Check.GoldenOnTime != direct.GoldenOnTime {
		t.Errorf("HTTP report differs from in-process checker:\n%+v\nvs\n%+v", final.Check, direct)
	}

	if got := metrics.CheckPoints.Load(); got != int64(direct.Explored) {
		t.Errorf("easeio_check_points_total = %d, want %d", got, direct.Explored)
	}
	if got := metrics.CheckDivergences.Load(); got != 0 {
		t.Errorf("easeio_check_divergences_total = %d, want 0", got)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"easeio_check_points_total", "easeio_check_divergences_total"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics misses %s", want)
		}
	}
}

func tempBenchFactory() (*apps.Bench, error) { return apps.NewTempApp(apps.DefaultTempConfig()) }

// TestFig6CheckOverHTTP pins that the served app set includes the
// checker's Figure 6 scenario: an exhaustive fig6 check under Alpaca,
// posted over HTTP, returns exactly the divergent report check.Run
// computes in process.
func TestFig6CheckOverHTTP(t *testing.T) {
	_, _, _, srv := newTestStack(t, 4, 1)
	st, code := postJob(t, srv.URL,
		`{"app":"fig6","runtime":"Alpaca","mode":"check","check_exhaustive":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	final := waitTerminal(t, srv.URL, st.ID)
	if final.State != "succeeded" || final.Check == nil {
		t.Fatalf("job finished %s without a check report: %s", final.State, final.Error)
	}
	direct, err := check.Run(context.Background(), check.Fig6Bench, experiments.Alpaca,
		check.Config{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Passed() {
		t.Fatal("fig6 under Alpaca passed; the comparison needs a divergent report")
	}
	if !reflect.DeepEqual(final.Check, direct) {
		t.Errorf("HTTP report differs from in-process checker:\n%s\nvs\n%s",
			final.Check.Render(), direct.Render())
	}
}

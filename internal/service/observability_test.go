// Observability tests: the Prometheus exposition's content type and
// histogram series, the pprof mount (off by default, parameter-validated
// when on), and well-formedness of the structured log stream under
// concurrent jobs (run with -race). The histogram/counter primitives
// themselves are tested in internal/obs.

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsContentType pins the exposition content type scrapers key
// on (the 0.0.4 text format).
func TestMetricsContentType(t *testing.T) {
	_, _, _, srv := newTestStack(t, 4, 1)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Errorf("content type = %q, want %q", got, "text/plain; version=0.0.4")
	}
}

// TestMetricsHistograms runs one sweep job and asserts the latency and
// throughput histograms show up with the right series shape: cumulative
// buckets ending at +Inf, _sum and _count, all labeled by mode.
func TestMetricsHistograms(t *testing.T) {
	mgr, _, _, srv := newTestStack(t, 4, 1)
	j, err := mgr.Submit(JobSpec{App: "temp", Runtime: "EaseIO", Runs: 8, BaseSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	text := scrapeMetrics(t, srv.URL)

	for _, want := range []string{
		"# TYPE easeio_job_duration_seconds histogram",
		"# TYPE easeio_job_queue_wait_seconds histogram",
		"# TYPE easeio_job_runs_per_second histogram",
		"# TYPE easeio_job_check_points_per_second histogram",
		`easeio_job_duration_seconds_bucket{mode="sweep",le="+Inf"} 1`,
		`easeio_job_duration_seconds_count{mode="sweep"} 1`,
		`easeio_job_queue_wait_seconds_count{mode="sweep"} 1`,
		`easeio_job_runs_per_second_count{mode="sweep"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Buckets must be cumulative: every bucket count ≤ the +Inf count.
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `easeio_job_duration_seconds_bucket{mode="sweep"`) {
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n > 1 {
			t.Errorf("bucket count %d exceeds observation count 1: %q", n, line)
		}
	}
}

// TestMetricsObservedBeforeDone pins the ordering a client relies on:
// once a job's Done channel closes, /metrics already counts the job in
// its duration histogram. The manager's "job finished" record — logged
// after the histograms are observed — is parked until the test has
// checked that Done is still open, which makes the ordering
// deterministic. Jobs run one after another, so every scrape has an
// exact expected count.
func TestMetricsObservedBeforeDone(t *testing.T) {
	gate := gateHandler{entered: make(chan struct{}), release: make(chan struct{})}
	reg := NewRegistry()
	if err := RegisterPaperBenches(reg); err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	mgr := NewManager(reg, metrics, 4, 1, WithManagerLogger(slog.New(gate)))
	t.Cleanup(func() { _ = mgr.Shutdown(context.Background()) })
	srv := httptest.NewServer(NewServer(mgr, reg, metrics).Handler())
	t.Cleanup(srv.Close)

	for i := 1; i <= 5; i++ {
		j, err := mgr.Submit(JobSpec{App: "temp", Runtime: "EaseIO", Runs: 2, BaseSeed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		<-gate.entered
		select {
		case <-j.Done():
			t.Errorf("job %d: Done closed before its metrics were observed", i)
		default:
		}
		gate.release <- struct{}{}
		<-j.Done()
		want := fmt.Sprintf("easeio_job_duration_seconds_count{mode=\"sweep\"} %d\n", i)
		if text := scrapeMetrics(t, srv.URL); !strings.Contains(text, want) {
			t.Fatalf("after job %d finished, metrics lack %q", i, strings.TrimSpace(want))
		}
	}
}

// gateHandler is a slog handler that parks every "job finished" record:
// it signals entered, then waits for release.
type gateHandler struct{ entered, release chan struct{} }

func (h gateHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h gateHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "job finished" {
		h.entered <- struct{}{}
		<-h.release
	}
	return nil
}

func (h gateHandler) WithAttrs([]slog.Attr) slog.Handler { return h }

func (h gateHandler) WithGroup(string) slog.Handler { return h }

// scrapeMetrics fetches the exposition text from the server at base.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestPprofDisabledByDefault: the profiling endpoints expose host detail
// and must not be mounted unless asked for.
func TestPprofDisabledByDefault(t *testing.T) {
	_, _, _, srv := newTestStack(t, 4, 1)
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without WithPprof: status %d, want 404", resp.StatusCode)
	}
}

// TestPprofEndpoints mounts the profiling surface and checks both the
// happy path and the negative surface: malformed or out-of-range
// seconds parameters are a 400, never a silent default-length capture.
func TestPprofEndpoints(t *testing.T) {
	reg := NewRegistry()
	metrics := NewMetrics()
	mgr := NewManager(reg, metrics, 1, 1)
	t.Cleanup(func() { _ = mgr.Shutdown(context.Background()) })
	srv := httptest.NewServer(NewServer(mgr, reg, metrics, WithPprof()).Handler())
	t.Cleanup(srv.Close)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/debug/pprof/"); got != http.StatusOK {
		t.Errorf("pprof index: status %d", got)
	}
	if got := get("/debug/pprof/cmdline"); got != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", got)
	}
	for _, path := range []string{
		"/debug/pprof/profile?seconds=abc",
		"/debug/pprof/profile?seconds=-1",
		"/debug/pprof/profile?seconds=0",
		"/debug/pprof/profile?seconds=86400",
		"/debug/pprof/trace?seconds=abc",
		"/debug/pprof/trace?seconds=1e9",
	} {
		if got := get(path); got != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, got)
		}
	}
}

// lockedBuffer is a concurrency-safe log sink. slog handlers emit one
// Write per record, so line atomicity holds under the lock.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (lb *lockedBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *lockedBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}

// TestSlogWellFormedUnderConcurrency drives several jobs through a
// multi-worker manager with a JSON slog handler attached and asserts
// every emitted record is a parseable JSON object. Run under -race this
// also checks the logging paths for data races.
func TestSlogWellFormedUnderConcurrency(t *testing.T) {
	sink := &lockedBuffer{}
	logger := slog.New(slog.NewJSONHandler(sink, nil))

	reg := NewRegistry()
	reg.SetLogger(logger)
	if err := RegisterPaperBenches(reg); err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	mgr := NewManager(reg, metrics, 16, 4, WithManagerLogger(logger))

	jobs := make([]*Job, 0, 8)
	for i := 0; i < 8; i++ {
		j, err := mgr.Submit(JobSpec{App: "dma", Runtime: "EaseIO", Runs: 4, BaseSeed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	var started, finished int
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("malformed log line %q: %v", line, err)
		}
		if rec["msg"] == nil || rec["level"] == nil {
			t.Errorf("log record missing msg/level: %q", line)
		}
		switch rec["msg"] {
		case "job started":
			started++
		case "job finished":
			finished++
		}
	}
	if started != 8 || finished != 8 {
		t.Errorf("got %d started / %d finished records, want 8/8", started, finished)
	}
}

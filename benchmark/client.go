package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one job as the client saw it.
type sample struct {
	job    int // index into the workload's job list
	client int
	start  time.Time
	// post is the POST /jobs round trip, fetch the GET /jobs/{id} round
	// trip after the job finished, total the span from POST start until
	// the terminal GET body has been read.
	post, fetch, total time.Duration

	queued, ran, leaseWait time.Duration
	bodyBytes              int

	// scale turns the sample's times into reference-speed times (see
	// probe.go): it comes from the probes taken right before and after it.
	scale float64

	digest string
	work   int // simulated runs: sweep runs, or explored check points over all depths
	checks checkCounts
	err    error
}

// checkCounts are the exact per-job counts a check report carries.
type checkCounts struct {
	pointsD1, pointsD2    int
	expandedD2, collapsed int
	divergences           int
}

// jobStatus is the part of service.Status the client reads. The result
// objects stay raw so their digest covers exactly the bytes served.
type jobStatus struct {
	ID          uint64          `json:"id"`
	State       string          `json:"state"`
	Error       string          `json:"error"`
	Summary     json.RawMessage `json:"summary"`
	Check       json.RawMessage `json:"check"`
	QueuedForMs int64           `json:"queued_for_ms"`
	RanForMs    int64           `json:"ran_for_ms"`
	LeaseWaitMs int64           `json:"lease_wait_ms"`
}

// runJob submits one job, waits for the manager to finish it, and fetches
// its terminal status — one closed-loop request.
func (s *stack) runJob(ctx context.Context, idx int, j job, seed int64) sample {
	smp := sample{job: idx, start: time.Now()}
	body, err := json.Marshal(j.spec(seed))
	if err != nil {
		smp.err = err
		return smp
	}
	var accepted jobStatus
	if _, err := s.call(ctx, http.MethodPost, "/jobs", body, http.StatusAccepted, &accepted); err != nil {
		smp.err = fmt.Errorf("submit %s: %w", j.key(), err)
		return smp
	}
	smp.post = time.Since(smp.start)
	mj, ok := s.mgr.Get(accepted.ID)
	if !ok {
		smp.err = fmt.Errorf("submit %s: manager has no job %d", j.key(), accepted.ID)
		return smp
	}
	select {
	case <-mj.Done():
	case <-ctx.Done():
		smp.err = fmt.Errorf("job %s: %w", j.key(), ctx.Err())
		return smp
	}
	fetchStart := time.Now()
	var st jobStatus
	n, err := s.call(ctx, http.MethodGet, fmt.Sprintf("/jobs/%d", accepted.ID), nil, http.StatusOK, &st)
	now := time.Now()
	smp.fetch, smp.total = now.Sub(fetchStart), now.Sub(smp.start)
	if err != nil {
		smp.err = fmt.Errorf("fetch %s: %w", j.key(), err)
		return smp
	}
	smp.bodyBytes = n
	smp.queued = time.Duration(st.QueuedForMs) * time.Millisecond
	smp.ran = time.Duration(st.RanForMs) * time.Millisecond
	smp.leaseWait = time.Duration(st.LeaseWaitMs) * time.Millisecond
	if st.State != "succeeded" {
		smp.err = fmt.Errorf("job %s ended %s: %s", j.key(), st.State, st.Error)
		return smp
	}
	result := st.Summary
	if j.Mode == "check" {
		result = st.Check
	}
	smp.digest, smp.work, smp.checks, smp.err = digestResult(j, result)
	return smp
}

// call does one request and decodes a JSON response with the wanted
// status, returning the body length.
func (s *stack) call(ctx context.Context, method, path string, body []byte, want int, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != want {
		return len(raw), fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return len(raw), fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return len(raw), nil
}

// get fetches a path's body as text (for /metrics and /blueprints).
func (s *stack) get(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(raw), nil
}

// pass runs every job of the list once with the workload's closed-loop
// clients: each client takes the next unstarted job, waits for its result,
// then takes another. pass returns when every job has a sample — the
// barrier between passes — with the time the jobs took. With probes and a
// single client, it times a host-speed probe before the first job and
// after every job, and sets each sample's scale from the two around it;
// otherwise every scale is 1.
func (s *stack) pass(ctx context.Context, jobs []job, clients int, seed int64, probes bool) ([]sample, time.Duration) {
	out := make([]sample, len(jobs))
	if clients == 1 {
		var dur time.Duration
		labeled(ctx, "client", func(ctx context.Context) {
			var before time.Duration
			if probes {
				before = probe()
			}
			for i, j := range jobs {
				start := time.Now()
				out[i] = s.runJob(ctx, i, j, seed)
				dur += time.Since(start)
				out[i].scale = 1
				if probes {
					after := probe()
					out[i].scale = hostScale(before, after)
					before = after
				}
			}
		})
		return out, dur
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go labeled(ctx, "client", func(ctx context.Context) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				out[i] = s.runJob(ctx, i, jobs[i], seed)
				out[i].client, out[i].scale = c, 1
			}
		})
	}
	wg.Wait()
	return out, time.Since(start)
}

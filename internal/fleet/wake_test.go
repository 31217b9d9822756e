package fleet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"easeio/internal/check"
)

// startIdleLoopback runs n loopback workers whose idle poll is an hour,
// so a worker that goes idle finds new work only through the submit
// wake-up. The workers stop at test cleanup.
func startIdleLoopback(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("idle-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunLoopback(ctx, c, name, testApps, time.Hour); err != nil {
				t.Errorf("loopback worker %s: %v", name, err)
			}
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// waitWithin waits for job id for at most d.
func waitWithin(c *Coordinator, id uint64, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	_, err := c.Wait(ctx, id)
	return err
}

// TestLoopbackWakesOnSubmit pins that an idle loopback worker starts a
// submitted job's shards at once instead of on its next poll: with a
// one-hour poll, a sweep job and then a check job (submitted once the
// workers have drained the sweep and gone idle) both finish within
// seconds.
func TestLoopbackWakesOnSubmit(t *testing.T) {
	c := newTestCoordinator(t, nil)
	startIdleLoopback(t, c, 2)
	for _, spec := range []Spec{
		{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 6, BaseSeed: 3},
		{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Exhaustive: true}},
	} {
		id, err := c.Submit(spec)
		if err != nil {
			t.Fatalf("%s job: %v", spec.Mode, err)
		}
		if err := waitWithin(c, id, 10*time.Second); err != nil {
			t.Fatalf("%s job %d: %v (idle workers were not woken by its submit)", spec.Mode, id, err)
		}
	}
}

// TestSubmitLeaseWakeStress races submits against idle workers taking
// the wake channel and leasing: four closed-loop submitters each submit a
// small sweep job and wait for it, so the four one-hour-poll workers go
// idle and wake again over and over. A lost wake-up leaves a job's shards
// unleased for the hour, so every job must finish within the deadline.
func TestSubmitLeaseWakeStress(t *testing.T) {
	c := newTestCoordinator(t, nil)
	startIdleLoopback(t, c, 4)
	const submitters, jobsEach = 4, 25
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < jobsEach; j++ {
				id, err := c.Submit(Spec{
					Mode: ModeSweep, App: "dma", Runtime: "JustDo",
					Runs: 1 + j%3, BaseSeed: int64(s*jobsEach + j), Shards: 1 + j%3, ShardWorkers: 1,
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if err := waitWithin(c, id, 10*time.Second); err != nil {
					t.Errorf("job %d: %v (a submit's wake-up was lost)", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// racingLeaser is a loopback leaser that, after its first empty lease,
// submits a job before it returns: the submit lands between the worker's
// lease and its idle wait, the window the wake channel must cover.
type racingLeaser struct {
	loopback
	once   sync.Once
	submit func()
}

func (r *racingLeaser) lease() ([]byte, bool, error) {
	task, ok, err := r.loopback.lease()
	if !ok && err == nil {
		r.once.Do(r.submit)
	}
	return task, ok, err
}

// TestWakeTakenBeforeLease pins workLoop's order: it takes the wake
// channel before it leases, so a submit that lands after an empty lease
// still wakes the worker instead of leaving the job to a one-hour poll.
func TestWakeTakenBeforeLease(t *testing.T) {
	c := newTestCoordinator(t, nil)
	ids := make(chan uint64, 1)
	l := &racingLeaser{loopback: loopback{c, "racer"}, submit: func() {
		id, err := c.Submit(Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 2, BaseSeed: 5})
		if err != nil {
			t.Errorf("submit: %v", err)
			close(ids)
			return
		}
		ids <- id
	}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- workLoop(ctx, l, testApps, time.Hour) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("workLoop: %v", err)
		}
	}()
	id, ok := <-ids
	if !ok {
		t.FailNow()
	}
	if err := waitWithin(c, id, 10*time.Second); err != nil {
		t.Fatalf("job %d: %v (a submit after an empty lease did not wake the worker)", id, err)
	}
}

// Fleet-mode service tests: a manager delegating to a coordinator must
// produce byte-identical results to the in-process path, surface the
// lease wait, and charge the execution timeout only from the first
// shard lease.

package service

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/fleet"
	"easeio/internal/frontend"
	"easeio/internal/task"
)

// newFleetStack builds a registry-backed coordinator plus a fleet-mode
// manager. Workers start separately so tests can control when leases
// become possible.
func newFleetStack(t *testing.T) (*Manager, *Registry, *fleet.Coordinator) {
	t.Helper()
	reg := NewRegistry()
	if err := RegisterPaperBenches(reg); err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.New(fleet.CoordinatorConfig{
		WALPath: filepath.Join(t.TempDir(), "service.wal"),
		Source:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	mgr := NewManager(reg, metrics, 8, 2, WithFleet(coord))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		coord.Close()
	})
	return mgr, reg, coord
}

// startWorkers runs n loopback workers against the coordinator.
func startWorkers(t *testing.T, coord *fleet.Coordinator, reg *Registry, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		name := "svc-w" + string(rune('0'+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fleet.RunLoopback(ctx, coord, name, reg, time.Millisecond); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })
}

func awaitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(time.Minute):
		t.Fatalf("job %d did not finish: %+v", j.ID, j.Status())
	}
}

// TestFleetManagerByteIdentity pins the delegation contract end to end:
// a fleet-mode manager's sweep summary and check report equal the
// in-process engines', the lease wait is surfaced in Status, and a
// nested check adds the same explored-point count to the metrics on the
// fleet and the in-process path.
func TestFleetManagerByteIdentity(t *testing.T) {
	mgr, reg, coord := newFleetStack(t)
	startWorkers(t, coord, reg, 2)

	j, err := mgr.Submit(JobSpec{App: "dma", Runtime: "EaseIO", Runs: 12, BaseSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	awaitJob(t, j)
	if st := j.State(); st != Succeeded {
		t.Fatalf("sweep job state %v: %+v", st, j.Status())
	}
	bp, _ := reg.Lookup("dma")
	want, werr := experiments.RunMany(
		experiments.Config{Runs: 12, BaseSeed: 4}, bp.Factory, experiments.EaseIO)
	if werr != nil {
		t.Fatal(werr)
	}
	status := j.Status()
	if status.Summary == nil || !reflect.DeepEqual(*status.Summary, want) {
		t.Errorf("fleet-mode summary differs from RunMany:\n%+v\nvs\n%+v", status.Summary, want)
	}
	if status.LeaseWaitMs == nil {
		t.Error("fleet-mode status has no lease_wait_ms")
	}

	cj, err := mgr.Submit(JobSpec{App: "branch", Runtime: "Alpaca", Mode: "check", CheckExhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	awaitJob(t, cj)
	if st := cj.State(); st != Succeeded {
		t.Fatalf("check job state %v: %+v", st, cj.Status())
	}
	cbp, _ := reg.Lookup("branch")
	wantRep, werr := check.Run(context.Background(), cbp.Factory, experiments.Alpaca,
		check.Config{Exhaustive: true})
	if werr != nil {
		t.Fatal(werr)
	}
	if got := cj.Status().Check; got == nil || got.Render() != wantRep.Render() {
		t.Errorf("fleet-mode check report differs:\n--- fleet ---\n%s--- direct ---\n%s",
			got.Render(), wantRep.Render())
	}

	// A k=2 check counts easeio_check_points_total the same on both
	// paths: every explored schedule at every depth, once.
	nested := JobSpec{App: "sensor", Runtime: "EaseIO", Mode: "check", CheckGrid: 16, Failures: 2}
	inproc := NewManager(reg, NewMetrics(), 8, 2)
	defer inproc.Shutdown(context.Background())
	points := map[string]int64{}
	for name, m := range map[string]*Manager{"fleet": mgr, "in-process": inproc} {
		before := m.metrics.CheckPoints.Load()
		nj, err := m.Submit(nested)
		if err != nil {
			t.Fatal(err)
		}
		awaitJob(t, nj)
		if st := nj.State(); st != Succeeded {
			t.Fatalf("%s k=2 check job state %v: %+v", name, st, nj.Status())
		}
		points[name] = m.metrics.CheckPoints.Load() - before
	}
	sbp, _ := reg.Lookup("sensor")
	nestedRep, err := check.Run(context.Background(), sbp.Factory, experiments.EaseIO,
		check.Config{Grid: 16, Failures: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantPts := int64(nestedRep.Explored)
	for _, ds := range nestedRep.Depths {
		wantPts += int64(ds.Explored)
	}
	if wantPts == int64(nestedRep.Explored) {
		t.Fatal("the k=2 check explored nothing below level 1")
	}
	for name, got := range points {
		if got != wantPts {
			t.Errorf("%s k=2 check added %d to easeio_check_points_total, want %d (every depth)", name, got, wantPts)
		}
	}

	// A sweep whose runs fail on some seeds reads the same on both
	// paths: state, partial summary, error text and the delta of
	// easeio_runs_completed_total (every finished seed, failed ones
	// included).
	if err := reg.Register("flaky", flakyFactory); err != nil {
		t.Fatal(err)
	}
	flaky := JobSpec{App: "flaky", Runtime: "EaseIO", Runs: 16, BaseSeed: 1}
	var got []Status
	var deltas []int64
	for _, m := range []*Manager{mgr, inproc} {
		before := m.metrics.RunsCompleted.Load()
		fj, err := m.Submit(flaky)
		if err != nil {
			t.Fatal(err)
		}
		awaitJob(t, fj)
		got = append(got, fj.Status())
		deltas = append(deltas, m.metrics.RunsCompleted.Load()-before)
	}
	fl, in := got[0], got[1]
	if in.State != Failed.String() || in.Summary == nil || in.Summary.Runs == 0 || in.Summary.Runs == flaky.Runs {
		t.Fatalf("in-process flaky sweep: want failed with a partial summary, got %+v", in)
	}
	if fl.State != in.State || !reflect.DeepEqual(fl.Summary, in.Summary) || fl.Error != in.Error {
		t.Errorf("flaky sweep differs:\n--- fleet ---\n%s %+v\n%s\n--- in-process ---\n%s %+v\n%s",
			fl.State, fl.Summary, fl.Error, in.State, in.Summary, in.Error)
	}
	if deltas[0] != deltas[1] {
		t.Errorf("runs completed: fleet added %d, in-process %d", deltas[0], deltas[1])
	}

	// An app that fails to build finishes every seed failed on both
	// paths, and fails a check job with the checker's own error; so does
	// an app whose factory panics.
	if err := reg.Register("unbuildable", func() (*apps.Bench, error) {
		return nil, errors.New("no build")
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("explodes", func() (*apps.Bench, error) { panic("factory exploded") }); err != nil {
		t.Fatal(err)
	}
	var checkErrs, panicErrs []string
	for _, m := range []*Manager{mgr, inproc} {
		before := m.metrics.RunsCompleted.Load()
		uj, err := m.Submit(JobSpec{App: "unbuildable", Runtime: "EaseIO", Runs: 16})
		if err != nil {
			t.Fatal(err)
		}
		awaitJob(t, uj)
		if st := uj.State(); st != Failed {
			t.Errorf("unbuildable sweep ended %v, want failed", st)
		}
		if d := m.metrics.RunsCompleted.Load() - before; d != 16 {
			t.Errorf("unbuildable sweep added %d to runs completed, want 16", d)
		}
		cj, err := m.Submit(JobSpec{App: "unbuildable", Runtime: "EaseIO", Mode: "check", CheckExhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		awaitJob(t, cj)
		st := cj.Status()
		if st.State != Failed.String() {
			t.Errorf("unbuildable check ended %s, want failed", st.State)
		}
		checkErrs = append(checkErrs, st.Error)
		pj, err := m.Submit(JobSpec{App: "explodes", Runtime: "EaseIO", Mode: "check", CheckExhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		awaitJob(t, pj)
		if st := pj.Status(); st.State != Failed.String() {
			t.Errorf("panicking-factory check ended %s, want failed", st.State)
		}
		panicErrs = append(panicErrs, pj.Status().Error)
	}
	if want := "check: build app: no build"; checkErrs[0] != want || checkErrs[1] != want {
		t.Errorf("unbuildable check errors: fleet %q, in-process %q; want %q on both", checkErrs[0], checkErrs[1], want)
	}
	if want := "check: build app: panicked: factory exploded"; panicErrs[0] != want || panicErrs[1] != want {
		t.Errorf("panicking-factory check errors: fleet %q, in-process %q; want %q on both", panicErrs[0], panicErrs[1], want)
	}

	// A factory that errors and one that panics read alike on both paths:
	// each path splits the seeds its own way and so prints its own number
	// of lines, but every line names the runtime alone.
	for _, app := range []string{"unbuildable", "explodes"} {
		var lines []map[string]bool
		for _, m := range []*Manager{mgr, inproc} {
			j, err := m.Submit(JobSpec{App: app, Runtime: "EaseIO", Runs: 16})
			if err != nil {
				t.Fatal(err)
			}
			awaitJob(t, j)
			st := j.Status()
			if st.State != Failed.String() || st.Error == "" {
				t.Errorf("%s sweep ended %s with error %q, want failed with one", app, st.State, st.Error)
			}
			set := map[string]bool{}
			for _, l := range strings.Split(st.Error, "\n") {
				set[l] = true
			}
			lines = append(lines, set)
		}
		if !reflect.DeepEqual(lines[0], lines[1]) {
			t.Errorf("%s sweep error lines differ:\n--- fleet ---\n%v\n--- in-process ---\n%v", app, lines[0], lines[1])
		}
	}
}

// flakyFactory builds a one-task app whose task returns without a
// transition on some seeds (a structural run error) and finishes on the
// rest. The analysis run (Now is zero) always finishes.
func flakyFactory() (*apps.Bench, error) {
	a := task.NewApp("flaky")
	n := a.NVInt("n")
	a.AddTask("work", func(e task.Exec) {
		if e.Now() > 0 && e.Rand().Intn(4) == 0 {
			return
		}
		e.Store(n, 1)
		e.Done()
	})
	if err := frontend.Analyze(a); err != nil {
		return nil, err
	}
	return &apps.Bench{App: a}, nil
}

// TestFleetTimeoutArmsAtFirstLease pins the timeout fix: with no workers
// available, a fleet job's timeout must not expire — the deadline is
// armed at the first shard lease, so unleased time is queue wait, not
// execution.
func TestFleetTimeoutArmsAtFirstLease(t *testing.T) {
	mgr, reg, coord := newFleetStack(t)

	// A timeout shorter than the worker-less wait below: the old
	// submission-anchored deadline would cancel this job before any
	// worker exists; the lease-anchored one must not.
	j, err := mgr.Submit(JobSpec{App: "temp", Runtime: "InK", Runs: 6, TimeoutMs: 500})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(800 * time.Millisecond)
	if st := j.State(); st != Running {
		t.Fatalf("unleased fleet job reached %v; the timeout charged queue wait", st)
	}
	if j.Status().LeaseWaitMs != nil {
		t.Error("lease_wait_ms set before any lease")
	}
	startWorkers(t, coord, reg, 2)
	awaitJob(t, j)
	if st := j.State(); st != Succeeded {
		t.Fatalf("job state %v after workers arrived: %+v", st, j.Status())
	}
	status := j.Status()
	if status.LeaseWaitMs == nil || *status.LeaseWaitMs < 700 {
		t.Errorf("lease_wait_ms = %v, want >= 700ms of recorded queue wait", status.LeaseWaitMs)
	}
}

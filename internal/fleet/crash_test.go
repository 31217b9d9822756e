// SIGKILL crash-recovery tests. The test binary re-execs itself as a
// helper process (TestMain dispatches on FLEET_HELPER) so the kill is a
// real one: no deferred cleanups, no flushed buffers, a WAL cut off at
// an arbitrary byte. The surviving side recovers and the merged result
// must still be byte-identical to the in-process engine.

package fleet

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
)

func TestMain(m *testing.M) {
	switch os.Getenv("FLEET_HELPER") {
	case "coordinator":
		coordinatorHelperMain(crashSpec)
		os.Exit(0)
	case "nested-coordinator":
		coordinatorHelperMain(nestedCrashSpec)
		os.Exit(0)
	case "worker":
		workerHelperMain()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// crashSpec is the job the sweep coordinator-crash processes run.
var crashSpec = Spec{
	Mode: ModeSweep, App: "fir", Runtime: "EaseIO",
	Runs: 24, BaseSeed: 5, Shards: 6,
}

// nestedCrashSpec is the subtree-sharded job the nested crash test runs:
// fig6 under Alpaca keeps two level-1 representatives, so the plan cuts
// two subtree shards whose root checkpoints must survive the WAL.
var nestedCrashSpec = Spec{
	Mode: ModeCheck, App: "fig6", Runtime: "Alpaca",
	Check: check.Config{Exhaustive: true, Failures: 2}, Shards: 4,
}

// coordinatorHelperMain is the victim coordinator: it submits the crash
// job, works it with one loopback worker, reports progress on stdout,
// and waits to be killed.
func coordinatorHelperMain(spec Spec) {
	c, err := New(CoordinatorConfig{WALPath: os.Getenv("FLEET_WAL"), Source: testApps})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	id, err := c.Submit(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("READY %d\n", id)
	go RunLoopback(context.Background(), c, "victim", testApps, time.Millisecond)
	minDone := 2
	if spec.Mode == ModeCheck {
		minDone = 1
	}
	for {
		if done, _, _ := c.Progress(id); done >= minDone {
			fmt.Println("PROGRESS")
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {} // hold the WAL open until the SIGKILL lands
}

// workerHelperMain is the victim TCP worker: it leases and executes
// shards from the parent's coordinator until killed.
func workerHelperMain() {
	fmt.Println("READY 0")
	err := RunTCPWorker(context.Background(), os.Getenv("FLEET_ADDR"), "victim", testApps, time.Millisecond)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// startHelper re-execs the test binary as the named helper and returns
// the process plus a line channel from its stdout.
func startHelper(t *testing.T, helper string, env ...string) (*exec.Cmd, <-chan string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), append(env, "FLEET_HELPER="+helper)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd, lines
}

// awaitLine blocks for the next stdout line with the given prefix.
func awaitLine(t *testing.T, lines <-chan string, prefix string) string {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("helper exited before printing %q", prefix)
			}
			if strings.HasPrefix(l, prefix) {
				return l
			}
		case <-deadline:
			t.Fatalf("helper never printed %q", prefix)
		}
	}
}

// TestCrashCoordinatorMidJob SIGKILLs a coordinator that has merged some
// shards but not all, reopens its WAL, and finishes the job: completed
// shards must survive, the rest re-run, and the summary must match the
// in-process sweep.
func TestCrashCoordinatorMidJob(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "crash.wal")
	cmd, lines := startHelper(t, "coordinator", "FLEET_WAL="+walPath)

	var id uint64
	if _, err := fmt.Sscanf(awaitLine(t, lines, "READY"), "READY %d", &id); err != nil {
		t.Fatal(err)
	}
	awaitLine(t, lines, "PROGRESS")
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	c, err := New(CoordinatorConfig{WALPath: walPath, Source: testApps})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done, total, ok := c.Progress(id)
	if !ok || total != crashSpec.Shards {
		t.Fatalf("recovered job: done=%d total=%d ok=%v", done, total, ok)
	}
	t.Logf("recovered with %d/%d shards done", done, total)
	startLoopback(t, c, 2)
	res := waitResult(t, c, id)

	want, werr := experiments.RunMany(
		experiments.Config{Runs: crashSpec.Runs, BaseSeed: crashSpec.BaseSeed, Workers: 2},
		testApps[crashSpec.App], experiments.EaseIO)
	if werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(res.Summary, want) {
		t.Errorf("post-crash summary differs from RunMany:\n%+v\nvs\n%+v", res.Summary, want)
	}
}

// TestCrashCoordinatorMidNestedJob SIGKILLs a coordinator mid-way
// through a subtree-sharded k=2 job. Recovery must rebuild the plan
// from the WAL alone — the journaled level-1 results and the
// pre-encoded subtree tasks with their root checkpoints — because the
// level-1 exploration is consumed state the spec cannot regenerate
// shard-by-shard. The finished report must render byte-identically to
// the in-process checker.
func TestCrashCoordinatorMidNestedJob(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "nested-crash.wal")
	cmd, lines := startHelper(t, "nested-coordinator", "FLEET_WAL="+walPath)

	var id uint64
	if _, err := fmt.Sscanf(awaitLine(t, lines, "READY"), "READY %d", &id); err != nil {
		t.Fatal(err)
	}
	awaitLine(t, lines, "PROGRESS")
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	c, err := New(CoordinatorConfig{WALPath: walPath, Source: testApps})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done, total, ok := c.Progress(id)
	if !ok || total != 2 {
		t.Fatalf("recovered nested job: done=%d total=%d ok=%v, want 2 subtree shards", done, total, ok)
	}
	t.Logf("recovered with %d/%d subtree shards done", done, total)
	startLoopback(t, c, 2)
	res := waitResult(t, c, id)

	want, werr := check.Run(context.Background(), check.Fig6Bench, experiments.Alpaca,
		check.Config{Exhaustive: true, Failures: 2, Workers: 2})
	if werr != nil {
		t.Fatal(werr)
	}
	if res.Report.Render() != want.Render() {
		t.Errorf("post-crash k=2 report differs from check.Run:\n--- fleet ---\n%s--- direct ---\n%s",
			res.Report.Render(), want.Render())
	}
	if len(res.Report.Divergences) == 0 {
		t.Error("recovered Alpaca k=2 report lost its divergences")
	}
}

// TestCrashWorkerMidShard SIGKILLs a TCP worker holding leases; the
// lease TTL must recycle its shards to a surviving worker and the job
// must still merge byte-identically.
func TestCrashWorkerMidShard(t *testing.T) {
	m := NewMetrics()
	c := newTestCoordinator(t, func(cfg *CoordinatorConfig) {
		cfg.LeaseTTL = 300 * time.Millisecond
		cfg.Metrics = m
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeFleet(ln, c)
	t.Cleanup(func() { ln.Close() })

	cmd, lines := startHelper(t, "worker", "FLEET_ADDR="+ln.Addr().String())
	awaitLine(t, lines, "READY")

	spec := Spec{Mode: ModeSweep, App: "temp", Runtime: "Alpaca", Runs: 20, BaseSeed: 13, Shards: 5}
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the worker once it holds at least one lease.
	deadline := time.Now().Add(30 * time.Second)
	for m.Leases.Value("victim") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never leased a shard")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	startLoopback(t, c, 2)
	res := waitResult(t, c, id)

	want, werr := experiments.RunMany(
		experiments.Config{Runs: spec.Runs, BaseSeed: spec.BaseSeed, Workers: 2},
		testApps[spec.App], experiments.Alpaca)
	if werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(res.Summary, want) {
		t.Errorf("post-worker-crash summary differs from RunMany:\n%+v\nvs\n%+v", res.Summary, want)
	}
}

package fleet

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"easeio/internal/wire"
)

// fsizeSpec is the job every file-size-limit test submits.
var fsizeSpec = Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, Shards: 2}

// TestFailedAppendLeavesLogReadable makes one job record's append fail
// partway: the test binary re-execs itself into this test with
// FLEET_FSIZE_WAL set, and that process alone lowers RLIMIT_FSIZE
// (ignoring SIGXFSZ) so one Submit's write stops short with "file too
// large", lifts the limit and submits again. The failed Submit must
// return the append error and use up no id: Wait on that id knows no
// job, and the retry takes it. The log must reopen here with exactly the
// two jobs that committed: the short write's bytes were cut away instead
// of being buried under the next record.
func TestFailedAppendLeavesLogReadable(t *testing.T) {
	if os.Getenv("FLEET_FSIZE_WAL") != "" {
		fsizeHelper(t)
		return
	}
	path := filepath.Join(t.TempDir(), "fleet.wal")
	failed, wait := fsizeRun(t, "TestFailedAppendLeavesLogReadable", path, false)
	if !strings.Contains(failed, "job record") || !strings.Contains(failed, "file too large") {
		t.Fatalf("the limited Submit did not fail on the job record: %q", failed)
	}
	if want := "fleet: wait on unknown job 1"; wait != want {
		t.Errorf("Wait on the failed Submit's id returned %q, want %q", wait, want)
	}

	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		t.Fatalf("reopening the log after a failed append: %v", err)
	}
	defer c.Close()
	for id, want := range map[uint64]bool{0: true, 1: true, 2: false} {
		if _, _, ok := c.Progress(id); ok != want {
			t.Errorf("job %d known after reopening = %v, want %v", id, ok, want)
		}
	}
}

// TestFailedPlanAppendFailsJob sizes the file-size limit one byte short
// of job 1's record, so the spec and all but the tail of the planned
// shard tasks reach the file before the append fails. A job whose plan
// did not commit must not exist: Submit returns the append error, Wait on
// the id answers at once that it knows no job, and the reopened log holds
// only the two committed jobs, each with all its shards — no torn plan is
// replayed and nothing is re-planned.
func TestFailedPlanAppendFailsJob(t *testing.T) {
	if os.Getenv("FLEET_FSIZE_WAL") != "" {
		fsizeHelper(t)
		return
	}
	path := filepath.Join(t.TempDir(), "fleet.wal")
	failed, wait := fsizeRun(t, "TestFailedPlanAppendFailsJob", path, true)
	if !strings.Contains(failed, "job record") || !strings.Contains(failed, "file too large") {
		t.Fatalf("the limited Submit did not fail on the job record: %q", failed)
	}
	if want := "fleet: wait on unknown job 1"; wait != want {
		t.Errorf("Wait on the failed Submit's id returned %q, want %q", wait, want)
	}

	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		t.Fatalf("reopening the log after a failed append: %v", err)
	}
	defer c.Close()
	for id := range uint64(2) {
		if _, total, ok := c.Progress(id); !ok || total != fsizeSpec.Shards {
			t.Errorf("job %d after reopening: known %v with %d shards, want %d", id, ok, total, fsizeSpec.Shards)
		}
	}
	if _, _, ok := c.Progress(2); ok {
		t.Error("job 2 known after reopening, want only the two committed jobs")
	}
}

// fsizeRun re-execs the test binary into the named test as the
// file-size-limit helper over the log at path and returns the error of
// the limited Submit and of Wait on the id it would have taken. inPlan
// sizes the limit so the failed write stops inside the record's plan
// instead of at its frame header.
func fsizeRun(t *testing.T, test, path string, inPlan bool) (failed, wait string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "FLEET_FSIZE_WAL="+path, "FLEET_FSIZE_IN_PLAN="+strconv.FormatBool(inPlan))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper: %v\n%s", err, out)
	}
	for sc := bufio.NewScanner(strings.NewReader(string(out))); sc.Scan(); {
		if msg, ok := strings.CutPrefix(sc.Text(), "FAILED "); ok {
			failed = msg
		}
		if msg, ok := strings.CutPrefix(sc.Text(), "WAIT "); ok {
			wait = msg
		}
	}
	return failed, wait
}

// fsizeHelper is the re-exec'd side of the file-size-limit tests: submit
// (job 0), submit under a file-size limit (which fails), wait on id 1,
// then submit again without the limit (job 1).
func fsizeHelper(t *testing.T) {
	path := os.Getenv("FLEET_FSIZE_WAL")
	signal.Ignore(syscall.SIGXFSZ)
	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(fsizeSpec); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	room := uint64(10)
	if os.Getenv("FLEET_FSIZE_IN_PLAN") == "true" {
		c.mu.Lock()
		rec, err := c.planLocked(1, fsizeSpec)
		c.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		room = uint64(len(wire.AppendFrame(nil, rec.encode()))) - 1
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	short := lim
	short.Cur = uint64(fi.Size()) + room
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &short); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(fsizeSpec)
	if lerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); lerr != nil {
		t.Fatal(lerr)
	}
	if err == nil {
		t.Fatal("Submit under the file-size limit succeeded")
	}
	fmt.Println("FAILED", err)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_, err = c.Wait(ctx, 1)
	cancel()
	fmt.Println("WAIT", err)
	if _, err := c.Submit(fsizeSpec); err != nil {
		t.Fatal(err)
	}
}

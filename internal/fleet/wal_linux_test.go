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

// TestFailedAppendLeavesLogReadable makes one append fail partway: the
// test binary re-execs itself into this test with FLEET_FSIZE_WAL set,
// and that process alone lowers RLIMIT_FSIZE (ignoring SIGXFSZ) so one
// Submit's write stops short with "file too large", lifts the limit and
// submits again. The log must reopen here with the two jobs that
// committed and without the failed one: the short write's bytes were cut
// away instead of being buried under the next record.
func TestFailedAppendLeavesLogReadable(t *testing.T) {
	if os.Getenv("FLEET_FSIZE_WAL") != "" {
		fsizeHelper(t)
		return
	}
	path := filepath.Join(t.TempDir(), "fleet.wal")
	failed, _ := fsizeRun(t, "TestFailedAppendLeavesLogReadable", path, false)
	if !strings.Contains(failed, "file too large") {
		t.Fatalf("the limited Submit did not fail with \"file too large\": %q", failed)
	}

	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		t.Fatalf("reopening the log after a failed append: %v", err)
	}
	defer c.Close()
	for id, want := range map[uint64]bool{0: true, 1: false, 2: true} {
		if _, _, ok := c.Progress(id); ok != want {
			t.Errorf("job %d known after reopening = %v, want %v", id, ok, want)
		}
	}
}

// TestFailedPlanAppendFailsJob limits the file so that job 1's submit
// record commits and only its plan record fails. The job must finish
// failed with the append error at once — it has no shards, so left live
// it would never finish — and a reopen re-plans its durable submit
// record.
func TestFailedPlanAppendFailsJob(t *testing.T) {
	if os.Getenv("FLEET_FSIZE_WAL") != "" {
		fsizeHelper(t)
		return
	}
	path := filepath.Join(t.TempDir(), "fleet.wal")
	failed, wait := fsizeRun(t, "TestFailedPlanAppendFailsJob", path, true)
	if !strings.Contains(failed, "plan record") || !strings.Contains(failed, "file too large") {
		t.Fatalf("the limited Submit did not fail on the plan record: %q", failed)
	}
	if wait != failed {
		t.Errorf("Wait on the unplanned job returned %q, want the append error %q", wait, failed)
	}

	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		t.Fatalf("reopening the log after a failed append: %v", err)
	}
	defer c.Close()
	for id := range uint64(3) {
		if _, total, ok := c.Progress(id); !ok || total != fsizeSpec.Shards {
			t.Errorf("job %d after reopening: known %v with %d shards, want %d", id, ok, total, fsizeSpec.Shards)
		}
	}
}

// fsizeRun re-execs the test binary into the named test as the
// file-size-limit helper over the log at path and returns the error of
// the limited Submit and of Wait on its job. planOnly sizes the limit so
// the submit record fits and the plan record does not.
func fsizeRun(t *testing.T, test, path string, planOnly bool) (failed, wait string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "FLEET_FSIZE_WAL="+path, "FLEET_FSIZE_PLAN_ONLY="+strconv.FormatBool(planOnly))
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
// (job 0), submit under a file-size limit (job 1, which fails), wait on
// job 1, then submit again without the limit (job 2).
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
	if os.Getenv("FLEET_FSIZE_PLAN_ONLY") == "true" {
		room += uint64(len(wire.AppendFrame(nil, record{Type: recSubmit, Job: 1, Spec: fsizeSpec}.encode())))
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

package fleet

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestFailedAppendLeavesLogReadable makes one append fail partway: the
// test binary re-execs itself into this test with FLEET_FSIZE_WAL set,
// and that process alone lowers RLIMIT_FSIZE (ignoring SIGXFSZ) so one
// Submit's write stops short with "file too large", lifts the limit and
// submits again. The log must reopen here with the two jobs that
// committed and without the failed one: the short write's bytes were cut
// away instead of being buried under the next record.
func TestFailedAppendLeavesLogReadable(t *testing.T) {
	spec := Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, Shards: 2}
	if path := os.Getenv("FLEET_FSIZE_WAL"); path != "" {
		fsizeHelper(t, path, spec)
		return
	}

	path := filepath.Join(t.TempDir(), "fleet.wal")
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedAppendLeavesLogReadable$")
	cmd.Env = append(os.Environ(), "FLEET_FSIZE_WAL="+path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper: %v\n%s", err, out)
	}
	var failed string
	for sc := bufio.NewScanner(strings.NewReader(string(out))); sc.Scan(); {
		if msg, ok := strings.CutPrefix(sc.Text(), "FAILED "); ok {
			failed = msg
		}
	}
	if !strings.Contains(failed, "file too large") {
		t.Fatalf("the limited Submit did not fail with \"file too large\"; helper output:\n%s", out)
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

// fsizeHelper is the re-exec'd side of TestFailedAppendLeavesLogReadable:
// submit, submit under a file-size limit that stops the submit record
// partway (job 1, which fails), then submit again without it (job 2).
func fsizeHelper(t *testing.T, path string, spec Spec) {
	signal.Ignore(syscall.SIGXFSZ)
	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	short := lim
	short.Cur = uint64(fi.Size()) + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &short); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(spec)
	if lerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); lerr != nil {
		t.Fatal(lerr)
	}
	if err == nil {
		t.Fatal("Submit under the file-size limit succeeded")
	}
	fmt.Println("FAILED", err)
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
}

// WAL header tests: a log opens only under this build's header, a log
// whose header never reached the disk starts afresh, and a failed append
// never leaves bytes a later append would bury.

package fleet

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/check"
	"easeio/internal/wire"
)

// recordLog writes a log with this build's header and the job mix of
// testdata/merged-results.wal: a finished dma sweep, finished fig6
// Alpaca checks at k=1 and k=2, and a temp sweep (job 3) and a fig6
// EaseIO check each with one of two shards done (the sweep's other shard
// holds one failed attempt). A check of an unknown app is refused at
// submit between them and journals nothing. It returns the log's path.
// The clock stands still, so the failed shard stays in its retry
// backoff.
func recordLog(tb testing.TB) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "fleet.wal")
	clock := func() time.Time { return time.Unix(1000, 0) }
	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps, Now: clock})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	for _, s := range []Spec{
		{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 4, BaseSeed: 2, Shards: 2},
		{Mode: ModeCheck, App: "fig6", Runtime: "Alpaca", Check: check.Config{Exhaustive: true}, Shards: 2},
		{Mode: ModeCheck, App: "fig6", Runtime: "Alpaca", Check: check.Config{Exhaustive: true, Failures: 2}, Shards: 2},
		{Mode: ModeCheck, App: "nope", Runtime: "EaseIO"},
		{Mode: ModeSweep, App: "temp", Runtime: "InK", Runs: 4, BaseSeed: 5, Shards: 2},
		{Mode: ModeCheck, App: "fig6", Runtime: "EaseIO", Check: check.Config{Exhaustive: true}, Shards: 2},
	} {
		_, err := c.Submit(s)
		if s.App == "nope" {
			if want := `fleet: unknown app "nope"`; err == nil || err.Error() != want {
				tb.Fatalf("Submit of an unknown app: err = %v, want %q", err, want)
			}
			continue
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	// Leases are never journaled, so a shard leased and left alone is
	// simply not done.
	for {
		task, ok := c.Lease("w0")
		if !ok {
			return path
		}
		job, shard, _ := wire.PeekShard(task)
		switch {
		case job == 3 && shard == 1:
			if err := c.FailShard("w0", job, shard, "worker lost"); err != nil {
				tb.Fatal(err)
			}
		case job < 3 || shard == 0:
			res, err := ExecuteShard(context.Background(), testApps, task)
			if err != nil {
				tb.Fatal(err)
			}
			if err := c.Complete("w0", res); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// foreignMsg is the one refusal of a log another build wrote.
func foreignMsg(path string, format, version int) string {
	return fmt.Sprintf("fleet: WAL %s was written by another build (format %d, wire version %d; "+
		"this build writes 3/8): finish or drop its jobs with that build", path, format, version)
}

// refuseLog writes log to a fresh path and opens it: the open must fail
// with the one header message naming format and version, and leave the
// file untouched.
func refuseLog(t *testing.T, name string, log []byte, format, version int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.wal")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err == nil {
		c.Close()
		t.Errorf("%s: the log opened", name)
		return
	}
	if want := foreignMsg(path, format, version); err.Error() != want {
		t.Errorf("%s: err = %q, want %q", name, err, want)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, log) {
		t.Errorf("%s: refusing the log changed it", name)
	}
}

// patchHeader returns the log at path with byte at of its header set to v.
func patchHeader(t *testing.T, path string, at int, v byte) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := bytes.Clone(walHeader)
	h[at] = v
	return append(wire.AppendFrame(nil, h), data[wire.FrameOverhead+len(walHeader):]...)
}

// reopen opens this build's own log at path and checks that the
// unfinished sweep of recordLog's job mix resumes at 1/2 shards.
func reopen(t *testing.T, path string) {
	t.Helper()
	c, err := New(CoordinatorConfig{WALPath: path, Source: testApps})
	if err != nil {
		t.Fatalf("this build's own log: %v", err)
	}
	defer c.Close()
	if d, total, ok := c.Progress(3); !ok || d != 1 || total != 2 {
		t.Errorf("unfinished sweep recovered at %d/%d (ok=%v), want 1/2", d, total, ok)
	}
}

// TestWALRefusesOtherBuilds opens logs of other builds: the headerless
// testdata/merged-results.wal (format 0, which journaled leases, merged
// results and job failures), and a current log whose header has its
// format byte patched to format 1 (a job's spec and plan in two
// records), to format 2 (the check parameters as four spec fields, and a
// check header that journaled its runtime and off-time) and to the next.
// Each is refused with the one header message and left untouched; the
// unpatched log opens.
func TestWALRefusesOtherBuilds(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "merged-results.wal"))
	if err != nil {
		t.Fatal(err)
	}
	cur := recordLog(t)
	refuseLog(t, "format 0", fixture, 0, 0)
	refuseLog(t, "format 1", patchHeader(t, cur, 4, 1), 1, wire.Version)
	refuseLog(t, "format 2", patchHeader(t, cur, 4, 2), 2, wire.Version)
	refuseLog(t, "next format", patchHeader(t, cur, 4, walFormat+1), walFormat+1, wire.Version)
	reopen(t, cur)
}

// TestWALModelHeaderWord holds the WAL model's journaled header word
// (apps.WALHeaderWord) to this build's header: its format byte over its
// wire-version byte, so a layout bump cannot leave the model checking an
// older header.
func TestWALModelHeaderWord(t *testing.T) {
	if got := uint16(walHeader[4])<<8 | uint16(walHeader[5]); got != apps.WALHeaderWord {
		t.Errorf("WAL header is format %d, wire version %d (%#04x); apps.WALHeaderWord is %#04x",
			walHeader[4], walHeader[5], got, apps.WALHeaderWord)
	}
}

// TestWALRefusesOlderWireVersion pins the decision for logs written by a
// build with an older wire encoding: the coordinator refuses to open
// them, with the one header message naming the version, rather than
// re-running or mis-merging their jobs. The log is a real one of
// recordLog's job mix with its header's wire-version byte patched; the
// unpatched log opens.
func TestWALRefusesOlderWireVersion(t *testing.T) {
	cur := recordLog(t)
	refuseLog(t, "older wire version", patchHeader(t, cur, 5, wire.Version-1), walFormat, wire.Version-1)
	reopen(t, cur)
}

// TestWALStartsAfreshWithoutHeader opens an empty file and every proper
// prefix of the header frame, as a crash before the header's fsync
// leaves them: each opens as a fresh log holding just the header, takes
// an append, and reopens with that one record.
func TestWALStartsAfreshWithoutHeader(t *testing.T) {
	header := wire.AppendFrame(nil, walHeader)
	rec := record{Type: recJob, Job: 0, Spec: Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 8}}
	for n := 0; n < len(header); n++ {
		path := filepath.Join(t.TempDir(), "fleet.wal")
		if err := os.WriteFile(path, header[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := openWAL(path, nil)
		if err != nil {
			t.Fatalf("%d header bytes: %v", n, err)
		}
		if got, _ := os.ReadFile(path); len(recs) != 0 || !bytes.Equal(got, header) {
			t.Fatalf("%d header bytes: opened with %d records as %x, want just the header", n, len(recs), got)
		}
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
		w.close()
		w, recs, err = openWAL(path, nil)
		if err != nil {
			t.Fatalf("%d header bytes, reopened: %v", n, err)
		}
		w.close()
		if !reflect.DeepEqual(recs, []record{rec}) {
			t.Errorf("%d header bytes: reopened with %+v, want the one appended record", n, recs)
		}
	}
}

// TestWALLatchesUncutAppend: an append that fails and cannot be cut
// back off the file latches the WAL, which refuses every later append
// until it is reopened; the reopened log holds what committed before.
func TestWALLatchesUncutAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.wal")
	w, _, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1 := record{Type: recJob, Job: 0, Spec: Spec{Mode: ModeSweep, App: "dma", Runtime: "EaseIO", Runs: 8}}
	r2 := record{Type: recShardFail, Job: 0, Shard: 0, Err: "boom", At: 99}
	if err := w.append(r1); err != nil {
		t.Fatal(err)
	}
	// A read-only handle fails the write and then the truncate.
	w.f.Close()
	if w.f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	if err := w.append(r2); err == nil || !strings.Contains(err.Error(), "unusable until reopened") {
		t.Fatalf("append over a read-only handle: err = %v, want the latched refusal", err)
	}
	w.f.Close()
	if w.f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.append(r2); err == nil || !strings.Contains(err.Error(), "unusable until reopened") {
		t.Errorf("append after the latch: err = %v, want the latched refusal", err)
	}
	w.close()

	w, recs, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if !reflect.DeepEqual(recs, []record{r1}) {
		t.Errorf("reopened with %+v, want the one committed record", recs)
	}
	if err := w.append(r2); err != nil {
		t.Errorf("append after reopening: %v", err)
	}
}

// FuzzOpenWAL opens arbitrary file bytes as a log. The property: openWAL
// never panics; it refuses the bytes, or it leaves a file that starts
// with this build's header and that a second open reads as the same
// records.
func FuzzOpenWAL(f *testing.F) {
	cur, err := os.ReadFile(recordLog(f))
	if err != nil {
		f.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "merged-results.wal"))
	if err != nil {
		f.Fatal(err)
	}
	header := wire.AppendFrame(nil, walHeader)
	f.Add(cur)
	f.Add(fixture)
	f.Add([]byte{})
	f.Add(header[:len(header)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fleet.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := openWAL(path, nil)
		if err != nil {
			return
		}
		w.close()
		if got, _ := os.ReadFile(path); !bytes.HasPrefix(got, header) {
			t.Fatalf("opened log starts %x, want the header %x", got[:min(len(got), len(header))], header)
		}
		w, again, err := openWAL(path, nil)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		w.close()
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("second open read %d records, the first %d", len(again), len(recs))
		}
	})
}

package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/lazyrand"
	"easeio/internal/power"
	"easeio/internal/stats"
)

// captureCheckpoints runs the fig6 bench under kind on a timer supply
// and returns mid-run checkpoints (every strideth charge-slice cut) plus
// the end-of-run state.
func captureCheckpoints(t testing.TB, kind experiments.RuntimeKind, stride int) []*kernel.Checkpoint {
	return captureOn(t, experiments.TimerSupply(), 42, kind, stride)
}

// captureOn is captureCheckpoints on the given supply and seed.
func captureOn(t testing.TB, supply power.Supply, seed int64, kind experiments.RuntimeKind, stride int) []*kernel.Checkpoint {
	t.Helper()
	bench, err := check.Fig6Bench()
	if err != nil {
		t.Fatal(err)
	}
	sess := kernel.NewSession(experiments.NewRuntime(kind), bench.App, supply)
	sink := &snapSink{sess: sess, stride: stride}
	sess.Cuts = sink
	if _, err := sess.Run(seed); err != nil {
		t.Fatal(err)
	}
	return append(sink.cps, sess.Device().SnapshotInto(&kernel.Checkpoint{}))
}

type snapSink struct {
	sess   *kernel.Session
	stride int
	n      int
	cps    []*kernel.Checkpoint
}

func (s *snapSink) NoteCut(time.Duration) {
	if s.n++; s.n%s.stride == 0 {
		s.cps = append(s.cps, s.sess.Device().SnapshotInto(&kernel.Checkpoint{}))
	}
}

// reEncode decodes an encoded checkpoint and encodes the result again.
func reEncode(t *testing.T, b []byte) []byte {
	t.Helper()
	cp, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return AppendCheckpoint(nil, cp)
}

// TestCheckpointRoundTrip pins that a live checkpoint survives the wire:
// encode → decode → re-encode is byte-identical, for mid-run and
// end-of-run checkpoints across every runtime.
func TestCheckpointRoundTrip(t *testing.T) {
	kinds := []experiments.RuntimeKind{
		experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cps := captureCheckpoints(t, kind, 3)
			if len(cps) < 2 {
				t.Fatalf("only %d checkpoints captured", len(cps))
			}
			for i, cp := range cps {
				b := AppendCheckpoint(nil, cp)
				if got := PeekKind(b); got != KindCheckpoint {
					t.Fatalf("checkpoint %d: PeekKind = %v", i, got)
				}
				if b2 := reEncode(t, b); !bytes.Equal(b, b2) {
					t.Errorf("checkpoint %d: re-encode differs (%d vs %d bytes)", i, len(b), len(b2))
				}
			}
		})
	}
}

// TestCheckpointRestoreFidelity pins that a checkpoint shipped through
// the wire restores a device to exactly the state the original
// checkpoint restores: decode on the far side, restore into a
// fresh device, and the device's own re-snapshot encodes byte-identically
// to a restore of the in-process original.
func TestCheckpointRestoreFidelity(t *testing.T) {
	for _, cp := range captureCheckpoints(t, experiments.EaseIO, 2) {
		remote, err := DecodeCheckpoint(AppendCheckpoint(nil, cp))
		if err != nil {
			t.Fatal(err)
		}

		restoreState := func(from *kernel.Checkpoint) []byte {
			bench, err := check.Fig6Bench()
			if err != nil {
				t.Fatal(err)
			}
			sess := kernel.NewSession(experiments.NewRuntime(experiments.EaseIO), bench.App, experiments.TimerSupply())
			if err := sess.Attach(42); err != nil {
				t.Fatal(err)
			}
			dev := sess.Device()
			dev.Restore(from)
			return AppendCheckpoint(nil, dev.SnapshotInto(&kernel.Checkpoint{}))
		}

		if local, far := restoreState(cp), restoreState(remote); !bytes.Equal(local, far) {
			t.Fatal("device restored from decoded checkpoint differs from device restored from original")
		}
	}
}

// TestCheckpointDecodeErrors pins the decoder's rejection paths: wrong
// kind, truncation anywhere, and trailing garbage all error out (never
// panic — the fuzz target widens this).
func TestCheckpointDecodeErrors(t *testing.T) {
	b := AppendCheckpoint(nil, captureCheckpoints(t, experiments.EaseIO, 8)[0])
	if _, err := DecodeSweepShard(b); err == nil {
		t.Error("decoding a checkpoint as a sweep shard succeeded")
	}
	for _, cut := range []int{0, 1, 3, len(b) / 2, len(b) - 1} {
		if _, err := DecodeCheckpoint(b[:cut]); err == nil {
			t.Errorf("decoding %d-byte prefix succeeded", cut)
		}
	}
	if _, err := DecodeCheckpoint(append(bytes.Clone(b), 0)); err == nil {
		t.Error("decoding with a trailing byte succeeded")
	}
	bad := bytes.Clone(b)
	bad[2] = Version + 1
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Error("decoding an unknown version succeeded")
	}
}

// TestShardMessagesRoundTrip covers the fleet's control-plane messages
// with representative values, including empty and non-empty slices.
func TestShardMessagesRoundTrip(t *testing.T) {
	ss := SweepShard{Job: 7, Shard: 2, App: "weather-db", Runtime: "ease-io",
		BaseSeed: -12345, Lo: 250, Hi: 500, Workers: 4}
	gotSS, err := DecodeSweepShard(AppendSweepShard(nil, ss))
	if err != nil || gotSS != ss {
		t.Errorf("sweep shard: got %+v, %v; want %+v", gotSS, err, ss)
	}

	// A k=1 check shard: one boot-rooted unit over a cut range.
	cs := SubtreeShard{Job: 8, Shard: 0, App: "dma", Runtime: "alpaca",
		Check: check.Config{Seed: 99, Failures: 1, Exhaustive: true, Grid: 33, Workers: 2},
		Units: []check.Unit{{CutLo: 10, CutHi: 64}}}
	gotCS, err := DecodeSubtreeShard(AppendSubtreeShard(nil, cs))
	if err != nil || !reflect.DeepEqual(gotCS, cs) {
		t.Errorf("boot-unit shard: got %+v, %v; want %+v", gotCS, err, cs)
	}

	sr := SweepResult{Job: 7, Shard: 2, Errs: []string{"run 3: boom"}}
	sr.Agg = stats.Aggregator{App: "fir", Runtime: "ink", Runs: 3,
		Energy: 1234, OnTime: time.Second, WallTime: 2 * time.Second,
		PowerFailures: 17, IOExecs: 41, Correct: 2, Incorrect: 1,
		Totals: []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}}
	sr.Agg.Work[0] = stats.Totals{T: time.Millisecond, E: 5}
	gotSR, err := DecodeSweepResult(AppendSweepResult(nil, sr))
	if err != nil || !reflect.DeepEqual(gotSR, sr) {
		t.Errorf("sweep result: got %+v, %v; want %+v", gotSR, err, sr)
	}

	cr := SubtreeResult{Job: 8, Shard: 1,
		Depths: []check.DepthStats{{Depth: 1, Expanded: 1, Candidates: 43, Explored: 40, Pruned: 3}},
		Divergences: []check.Divergence{
			{At: time.Millisecond, Index: 12, Kind: "memory", Detail: "word 7"},
			{At: 2 * time.Millisecond, Index: 13, Kind: "output", Detail: "verdict"},
		}}
	gotCR, err := DecodeSubtreeResult(AppendSubtreeResult(nil, cr))
	if err != nil || !reflect.DeepEqual(gotCR, cr) {
		t.Errorf("depth-1 subtree result: got %+v, %v; want %+v", gotCR, err, cr)
	}

	// PeekShard reads the shared job/shard prefix of all four shard kinds
	// and refuses every other kind.
	for _, m := range []struct {
		b     []byte
		job   uint64
		shard int
	}{
		{AppendSweepShard(nil, ss), 7, 2},
		{AppendSubtreeShard(nil, cs), 8, 0},
		{AppendSweepResult(nil, sr), 7, 2},
		{AppendSubtreeResult(nil, cr), 8, 1},
	} {
		if job, shard, err := PeekShard(m.b); err != nil || job != m.job || shard != m.shard {
			t.Errorf("PeekShard(%v) = %d, %d, %v; want %d, %d", PeekKind(m.b), job, shard, err, m.job, m.shard)
		}
	}
	if _, _, err := PeekShard(appendHeader(nil, KindCheckpoint)); err == nil {
		t.Error("PeekShard accepted a checkpoint")
	}

	// A decoder refuses a message of an older version, naming it.
	old := AppendSubtreeResult(nil, cr)
	old[2] = Version - 1
	want := fmt.Sprintf("unsupported version %d (have %d)", Version-1, Version)
	if _, err := DecodeSubtreeResult(old); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("decoding a version-%d message = %v, want the unsupported-version error", Version-1, err)
	}

	// Empty-slice forms decode to nil slices, not empty non-nil ones.
	empty := SweepResult{Job: 1, Shard: 0}
	gotEmpty, err := DecodeSweepResult(AppendSweepResult(nil, empty))
	if err != nil || !reflect.DeepEqual(gotEmpty, empty) {
		t.Errorf("empty sweep result: got %+v, %v", gotEmpty, err)
	}
}

// TestFrames pins the framing contract: clean boundary EOF, torn tails,
// and CRC corruption are three distinguishable outcomes.
func TestFrames(t *testing.T) {
	var log []byte
	payloads := [][]byte{[]byte("first"), {}, []byte("third-longer-payload")}
	for _, p := range payloads {
		log = AppendFrame(log, p)
	}

	r := bytes.NewReader(log)
	for i, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("clean boundary: got %v, want io.EOF", err)
	}

	// Every possible torn tail either reads cleanly short or reports
	// ErrTornFrame — never a corrupt payload and never a panic.
	for cut := 1; cut < len(log); cut++ {
		r := bytes.NewReader(log[:cut])
		for {
			_, err := ReadFrame(r)
			if err == nil {
				continue
			}
			if err == io.EOF || errors.Is(err, ErrTornFrame) {
				break
			}
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
	}

	// Flipping a payload byte is caught by the CRC.
	bad := bytes.Clone(log)
	bad[FrameOverhead] ^= 0xff
	if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupt payload: got %v, want ErrCorruptFrame", err)
	}

	// An absurd length field is rejected before allocating.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("huge length: got %v, want ErrCorruptFrame", err)
	}
}

// TestWriteFrame pins the io.Writer path against AppendFrame.
func TestWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if want := AppendFrame(nil, []byte("payload")); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteFrame wrote %x, want %x", buf.Bytes(), want)
	}
	got, err := ReadFrame(&buf)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

// TestCheckpointDrawBound pins that a decoded checkpoint cannot carry a
// peripheral randomness position past lazyrand.MaxDraws, since
// restoring it would memoize that many draws. The bound itself is
// accepted.
func TestCheckpointDrawBound(t *testing.T) {
	cp := captureCheckpoints(t, experiments.EaseIO, 8)[0]
	for _, tc := range []struct {
		name string
		rand uint64
		ok   bool
	}{
		{"peripheral-at-bound", lazyrand.MaxDraws, true},
		{"peripheral-past-bound", lazyrand.MaxDraws + 1, false},
		{"peripheral-2^40", 1 << 40, false},
	} {
		cp.RandDraws = tc.rand
		_, err := DecodeCheckpoint(AppendCheckpoint(nil, cp))
		if got := err == nil; got != tc.ok {
			t.Errorf("%s: decode error %v, want accepted=%v", tc.name, err, tc.ok)
		}
	}
}

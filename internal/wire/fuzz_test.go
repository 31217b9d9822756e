package wire

import (
	"bytes"
	"testing"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/stats"
)

// FuzzCheckpointRoundTrip drives the checkpoint decoder with arbitrary
// bytes. The decoder — which also validates the checkpoint's semantic
// invariants (bank layout, ranges, draw bounds) — must never panic, and
// whenever it accepts an input the canonical re-encoding must be a fixed
// point (encode∘decode∘encode = encode) over the whole checkpoint, the
// runtime half's Slots and TaskInst included.
func FuzzCheckpointRoundTrip(f *testing.F) {
	// Seed corpus: real encoded checkpoints (mid-run and end-of-run,
	// two runtimes for hook-free state variety), the unit roots a fleet
	// ships for a fig6 k=2 check under every runtime, plus degenerate
	// inputs.
	for _, kind := range []experiments.RuntimeKind{experiments.EaseIO, experiments.Alpaca} {
		for _, cp := range captureCheckpoints(f, kind, 4) {
			f.Add(AppendCheckpoint(nil, cp))
		}
	}
	for _, kind := range []experiments.RuntimeKind{
		experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
	} {
		for _, u := range fig6Plan(f, kind).Units {
			if u.Root != nil {
				f.Add(AppendCheckpoint(nil, u.Root))
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, Version, byte(KindCheckpoint)})
	f.Add([]byte("EW garbage that is not a checkpoint at all"))

	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		b2 := AppendCheckpoint(nil, cp)
		cp2, err := DecodeCheckpoint(b2)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if b3 := AppendCheckpoint(nil, cp2); !bytes.Equal(b2, b3) {
			t.Fatalf("canonical encoding is not a fixed point (%d vs %d bytes)", len(b2), len(b3))
		}
	})
}

// FuzzDecodeShard drives every control-plane decoder (shards and
// results) with the same arbitrary input: none may panic, and
// any accepted input's re-encoding must be a decode fixed point.
func FuzzDecodeShard(f *testing.F) {
	f.Add(AppendSweepShard(nil, SweepShard{Job: 1, Shard: 0, App: "weather",
		Runtime: "ease-io", BaseSeed: 7, Lo: 0, Hi: 100, Workers: 2}))
	f.Add(AppendSubtreeShard(nil, SubtreeShard{Job: 2, Shard: 1, App: "dma",
		Runtime: "alpaca", Check: check.Config{Seed: 3, Failures: 1, Exhaustive: true, Grid: 33, Workers: 1},
		Units: []check.Unit{{CutLo: 4, CutHi: 32}}}))
	agg := stats.Aggregator{App: "fir", Runtime: "ink", Runs: 2,
		Totals: []time.Duration{time.Millisecond, 2 * time.Millisecond}}
	f.Add(AppendSweepResult(nil, SweepResult{Job: 1, Shard: 0, Agg: agg, Errs: []string{"x"}}))
	f.Add(AppendSubtreeResult(nil, SubtreeResult{Job: 2, Shard: 1,
		Depths:      []check.DepthStats{{Depth: 1, Expanded: 1, Candidates: 28, Explored: 5, Pruned: 23}},
		Divergences: []check.Divergence{{At: time.Millisecond, Index: 1, Kind: "memory", Detail: "w"}}}))
	// The retired merged summary and report kinds, which no decoder takes.
	f.Add([]byte{magic0, magic1, Version, 6, 4, 't', 'e', 'm', 'p'})
	f.Add([]byte{magic0, magic1, Version, 7, 6, 'b', 'r', 'a', 'n', 'c', 'h'})
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, Version, byte(KindSweepShard), 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		// Whatever a full decoder accepts, PeekShard reads the same IDs.
		job, shard, peekErr := PeekShard(b)
		peekAgrees := func(wantJob uint64, wantShard int) {
			if peekErr != nil || job != wantJob || shard != wantShard {
				t.Fatalf("PeekShard = %d, %d, %v; the decoder read %d, %d", job, shard, peekErr, wantJob, wantShard)
			}
		}
		if s, err := DecodeSweepShard(b); err == nil {
			peekAgrees(s.Job, s.Shard)
			if b2 := AppendSweepShard(nil, s); func() bool {
				s2, err := DecodeSweepShard(b2)
				return err != nil || s2 != s
			}() {
				t.Fatal("sweep shard re-encoding is not a fixed point")
			}
		}
		if s, err := DecodeSubtreeShard(b); err == nil {
			peekAgrees(s.Job, s.Shard)
			b2 := AppendSubtreeShard(nil, s)
			if s2, err := DecodeSubtreeShard(b2); err != nil || !bytes.Equal(b2, AppendSubtreeShard(nil, s2)) {
				t.Fatalf("subtree shard re-encoding is not a fixed point: %v", err)
			}
		}
		if r, err := DecodeSweepResult(b); err == nil {
			peekAgrees(r.Job, r.Shard)
			b2 := AppendSweepResult(nil, r)
			if b3, err := reencodeSweepResult(b2); err != nil || !bytes.Equal(b2, b3) {
				t.Fatalf("sweep result re-encoding is not a fixed point: %v", err)
			}
		}
		if r, err := DecodeSubtreeResult(b); err == nil {
			peekAgrees(r.Job, r.Shard)
			b2 := AppendSubtreeResult(nil, r)
			if r2, err := DecodeSubtreeResult(b2); err != nil || !bytes.Equal(b2, AppendSubtreeResult(nil, r2)) {
				t.Fatalf("subtree result re-encoding is not a fixed point: %v", err)
			}
		}
	})
}

// FuzzDecodeSubtreeShard drives the work-unit decoders with arbitrary
// input: neither may panic, and any accepted input's canonical
// re-encoding must be a decode fixed point. The seed corpus embeds a
// real encoded checkpoint, exercising the nested-message path, and a
// boot root restricted to a cut range, the k=1 unit.
func FuzzDecodeSubtreeShard(f *testing.F) {
	root := captureCheckpoints(f, experiments.EaseIO, 6)[0]
	root.Runtime = kernel.RuntimeState{
		Slots:    []kernel.IOSlot{{TaskID: 1, TaskInst: 2, ExecCount: 3, Completed: true}},
		TaskInst: []int32{0, 2}}
	f.Add(AppendSubtreeShard(nil, SubtreeShard{Job: 3, Shard: 2, App: "fig6",
		Runtime: "ease-io", Check: check.Config{Seed: 42, Failures: 2, Exhaustive: true, Grid: 128, Workers: 2},
		Units: []check.Unit{{
			Schedule:  []time.Duration{5 * time.Millisecond},
			Collapsed: 3,
			Root:      root,
		}}}))
	f.Add(AppendSubtreeShard(nil, SubtreeShard{Job: 4, Shard: 1, App: "fig6",
		Runtime: "alpaca", Check: check.Config{Seed: 7, Failures: 1, Exhaustive: true, Workers: 1},
		Units: []check.Unit{{CutLo: 40, CutHi: 80}}}))
	f.Add(AppendSubtreeResult(nil, SubtreeResult{Job: 3, Shard: 2,
		Depths: []check.DepthStats{{Depth: 2, Expanded: 1, Candidates: 9, Explored: 9}},
		Divergences: []check.Divergence{{At: time.Millisecond, Index: 1, Kind: "memory",
			Detail: "w", Schedule: []time.Duration{time.Millisecond, 2 * time.Millisecond}}}}))
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, Version, byte(KindSubtreeShard), 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := DecodeSubtreeShard(b); err == nil {
			b2 := AppendSubtreeShard(nil, s)
			if s2, err := DecodeSubtreeShard(b2); err != nil || !bytes.Equal(b2, AppendSubtreeShard(nil, s2)) {
				t.Fatalf("subtree shard re-encoding is not a fixed point: %v", err)
			}
		}
		if r, err := DecodeSubtreeResult(b); err == nil {
			b2 := AppendSubtreeResult(nil, r)
			if r2, err := DecodeSubtreeResult(b2); err != nil || !bytes.Equal(b2, AppendSubtreeResult(nil, r2)) {
				t.Fatalf("subtree result re-encoding is not a fixed point: %v", err)
			}
		}
	})
}

func reencodeSweepResult(b []byte) ([]byte, error) {
	r, err := DecodeSweepResult(b)
	if err != nil {
		return nil, err
	}
	return AppendSweepResult(nil, r), nil
}

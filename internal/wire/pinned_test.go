package wire

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/power"
)

// TestWireBytesPinned pins the v3 byte layout of the messages that carry
// checkpoints: the subtree shards of a fig6 k=2 plan under every
// runtime, device checkpoints captured under the timer supply and under
// continuous power, and one checkpoint per supply-state kind. Each
// message group is hashed with SHA-256 and compared with a constant, so
// a refactor of the checkpoint types cannot drift the bytes a fleet
// worker or a write-ahead log reads without a version bump.
func TestWireBytesPinned(t *testing.T) {
	want := map[string]string{
		"shard/Alpaca":      "9adccfee2fd671a81b302c1eb29ed38cc9cab579e9152c5a11326d3a4ddf335e",
		"shard/InK":         "42d8ad0a6a1d6a87ecd27de63ac72a306489fd09087ecd3e1dfa46975be57f04",
		"shard/EaseIO":      "bbbcf626bc0294316d1076bc7f5cb25d64527d635aaf7822f5b233cf51f33c6f",
		"shard/JustDo":      "f1cbaa2f8fde5765e4b8f753376268c1b89c2ada92ddf7f0da40d8d4dda31ec6",
		"checkpoint/timer":  "a30df291ff5f0b493fc4ae6f70f7ff3445c1bcdcbbc1900fe5a9acffcc9727c1",
		"checkpoint/contin": "42d50883ccd9c635aa3efeb9811cc11457dd6d73635e619cf6ac302e3e7f6ff9",
		"supply/continuous": "e06a55cf566ee80212043abcab4c677672f78773583b636e942d556756091f3e",
		"supply/schedule":   "db13eacf5937b1c4570ea686c39e6ecf89f8513dceef9c2c3bd4d9973729c4a7",
		"supply/timer":      "4498558c72b3f2c8f52428278d3f16a802ce7b61592b640c53e849dd4af09eb3",
		"supply/harvested":  "dded6ae1964aa22be05b75e8a06632e1dec0fdbdf1b8736e5f7136af77a775ab",
	}
	got := map[string][]byte{}
	for _, kind := range []experiments.RuntimeKind{
		experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
	} {
		got["shard/"+kind.String()] = pinnedShard(t, kind)
	}
	for _, cp := range captureCheckpoints(t, experiments.EaseIO, 3) {
		got["checkpoint/timer"] = append(got["checkpoint/timer"], pinnedCheckpoint(t, cp)...)
	}
	for _, cp := range captureOn(t, power.Continuous{}, 9, experiments.JustDo, 3) {
		got["checkpoint/contin"] = append(got["checkpoint/contin"], pinnedCheckpoint(t, cp)...)
	}
	for kind, b := range pinnedSupplies(t) {
		got["supply/"+kind] = b
	}
	for name, w := range want {
		sum := sha256.Sum256(got[name])
		if h := hex.EncodeToString(sum[:]); h != w {
			t.Errorf("%s: %d bytes hash to %s, want %s", name, len(got[name]), h, w)
		}
	}
}

// pinnedShard plans a fig6 k=2 exhaustive check under kind and encodes
// all of its level-2 units as one subtree shard.
func pinnedShard(t *testing.T, kind experiments.RuntimeKind) []byte {
	t.Helper()
	p, err := check.Plan(context.Background(), check.Fig6Bench, kind,
		check.Config{Exhaustive: true, Failures: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Units) == 0 {
		t.Fatalf("%v: the k=2 plan has no units", kind)
	}
	return AppendSubtreeShard(nil, SubtreeShard{Job: 5, Shard: 1, App: "fig6",
		Runtime: kind.String(), Seed: p.Seed, Off: p.Off, Failures: 2,
		Exhaustive: true, Workers: 1, Units: p.Units})
}

// pinnedCheckpoint encodes one device checkpoint as a KindCheckpoint
// message.
func pinnedCheckpoint(t *testing.T, cp *kernel.Checkpoint) []byte {
	t.Helper()
	return AppendCheckpoint(nil, cp)
}

// pinnedSupplies encodes one checkpoint per supply-state kind, the
// states of TestSupplyKindsRoundTrip.
func pinnedSupplies(t *testing.T) map[string][]byte {
	t.Helper()
	cp := captureCheckpoints(t, experiments.EaseIO, 8)[0]
	out := map[string][]byte{}
	for _, ws := range supplyStates {
		cp.SupplyName, cp.Supply = ws.Kind, ws
		out[ws.Kind] = AppendCheckpoint(nil, cp)
	}
	return out
}

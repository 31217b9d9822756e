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

// TestWireBytesPinned pins the v5 byte layout of the messages that carry
// checkpoints: the subtree shards of a fig6 k=2 plan under every
// runtime, device checkpoints captured under the timer supply and under
// continuous power, and one checkpoint per supply-state kind. Each
// message group is hashed with SHA-256 and compared with a constant, so
// a refactor of the checkpoint types cannot drift the bytes a fleet
// worker or a write-ahead log reads without a version bump.
func TestWireBytesPinned(t *testing.T) {
	want := map[string]string{
		"shard/Alpaca":      "17bb740dc8cefc4b78f7e78baf1a74f8e7be736dc8c61efce7d2d8ca689c440e",
		"shard/InK":         "251210a8d7a474d4b6774c542b404e2a146279b9c8572cf1557eb29819146195",
		"shard/EaseIO":      "0f4763b1c93fdb812cecaf5b3f3d622ff824319d90d116eff3bf966824b5c310",
		"shard/JustDo":      "7e998117cc749f6d0ab2c3f86fe5967f14cabbc0972cfe90b89028db026155a4",
		"checkpoint/timer":  "fdf180dd284d08c2c6350ff70a4fb6d46bd2e9507c33fa60041bcc6678e74db0",
		"checkpoint/contin": "7573fdcb9faabeba692696b9f0a5be808e9468e785bf126b7dc50ed9186729e7",
		"supply/continuous": "4fe066eab17d3d39ed6c8f7653bcfbdce30b997a0928a959d76aa978488099ac",
		"supply/schedule":   "a7679a706c5daa8df2249aa9fe7895cf175c39408020d7df281ce51a14d867a9",
		"supply/timer":      "8d11c03cd121f9a534082b68c05efb266b0cdb7788c46a2b0b0f3d445534b382",
		"supply/harvested":  "0765ba4621d14d815d1576885d393bd8b3c5bfd3123b1b72c594317ab81e6cbc",
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
		Runtime: kind.String(), Check: check.Config{Seed: p.Seed, Failures: 2, Exhaustive: true, Workers: 1},
		Units: p.Units})
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

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

// TestWireBytesPinned pins the v6 byte layout of the messages that carry
// checkpoints: the subtree shards of a fig6 k=2 plan under every
// runtime, device checkpoints captured under the timer supply and under
// continuous power, and one checkpoint per supply-state kind. Each
// message group is hashed with SHA-256 and compared with a constant, so
// a refactor of the checkpoint types cannot drift the bytes a fleet
// worker or a write-ahead log reads without a version bump.
func TestWireBytesPinned(t *testing.T) {
	want := map[string]string{
		"shard/Alpaca":      "4247e78b6a8b54868672a4380db55418de8ade72013c18e1d41a8df19c89b379",
		"shard/InK":         "fabfc87e1d29d2a167cddd7a05c20bd60f1827d5150710478e186a1ab7ddf0bd",
		"shard/EaseIO":      "49228c88ab7517dd6c0e0827d57558d159809686a6c472215be92a5b77ddb862",
		"shard/JustDo":      "ff7c65ca1f5da0eb3511f22ecfa70ab0aa25133001a6c468fd19efb622cf0b81",
		"checkpoint/timer":  "112b8d5cbdc8cc29705c70764033aa9404a8904537f85ac92c1ebd96e6dd66c7",
		"checkpoint/contin": "d2945bb4cca63d2150c526baa0b106726c7aa716bda3b33e2408cbed9f2d64e1",
		"supply/continuous": "02f7422944f705b5bf6e3d93deb68495f2e3009d24bf960019da487c893cda56",
		"supply/schedule":   "bd4f854bb28ec2c70e5069fc379752d128ca1b6b9ecc036506e9e3f50d0f45c3",
		"supply/timer":      "3fdd967ff5b1117df105acc67a19f2eb4fad8ce26255de145174071a374be930",
		"supply/harvested":  "da10d4892836917c671b9c7a7b7dc5f2c4a726766aa272e9258e18fdc1d009a8",
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

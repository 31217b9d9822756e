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

// TestWireBytesPinned pins the v7 byte layout of the messages that carry
// checkpoints: the subtree shards of a fig6 k=2 plan under every
// runtime, and device checkpoints captured under the timer supply and
// under continuous power. Each message group is hashed with SHA-256 and
// compared with a constant, so a refactor of the checkpoint types cannot
// drift the bytes a fleet worker or a write-ahead log reads without a
// version bump.
func TestWireBytesPinned(t *testing.T) {
	want := map[string]string{
		"shard/Alpaca":      "8a199bb1ef517e1666981e86048f905233b2b61c0ade51f85f1adab794a66d41",
		"shard/InK":         "191a7676ae4e009e18b097a6e360a42fca8db6a48ec3952d9a7e55db64e6dd8b",
		"shard/EaseIO":      "56c51dc6833a6e1a94e0e69a1726b01b2f34a43df050517ba09d9d13331a2e9f",
		"shard/JustDo":      "b21b22367f1a7d93cedac1ca624551b1d6377323eb5ac0eab8caf1c5b5a1c80e",
		"checkpoint/timer":  "a20b7f9e27044cecb78041c31b978faf3116f0525926d1f631ac78680213c361",
		"checkpoint/contin": "ac273846c83f795a81e8eef710b430fb17593cd0af4ff46ec43cf329ac960c00",
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
	for name, w := range want {
		sum := sha256.Sum256(got[name])
		if h := hex.EncodeToString(sum[:]); h != w {
			t.Errorf("%s: %d bytes hash to %s, want %s", name, len(got[name]), h, w)
		}
	}
}

// fig6Plan plans a fig6 k=2 exhaustive check under kind: its units'
// roots are the checkpoints a fleet ships to its workers.
func fig6Plan(t testing.TB, kind experiments.RuntimeKind) *check.Planned {
	t.Helper()
	p, err := check.Plan(context.Background(), check.Fig6Bench, kind,
		check.Config{Exhaustive: true, Failures: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Units) == 0 {
		t.Fatalf("%v: the k=2 plan has no units", kind)
	}
	return p
}

// pinnedShard encodes all of the level-2 units of fig6Plan as one
// subtree shard.
func pinnedShard(t *testing.T, kind experiments.RuntimeKind) []byte {
	t.Helper()
	p := fig6Plan(t, kind)
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

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

// TestWireBytesPinned pins the v8 byte layout of the messages that carry
// checkpoints: the subtree shards of a fig6 k=2 plan under every
// runtime, and device checkpoints captured under the timer supply and
// under continuous power. Each message group is hashed with SHA-256 and
// compared with a constant, so a refactor of the checkpoint types cannot
// drift the bytes a fleet worker or a write-ahead log reads without a
// version bump.
func TestWireBytesPinned(t *testing.T) {
	want := map[string]string{
		"shard/Alpaca":      "b7846f02be60d215eb4ad5d22659397c3fabfa23924ae76c78706328381fedfe",
		"shard/InK":         "abda3416f47d5b2b23cf6192888f9f1ded3aec6019390dbe0651fccbead48102",
		"shard/EaseIO":      "dc620dbad2fb92c6bbb4e1f4fab7dbc512b4692f2141c037883fad39f4ab33db",
		"shard/JustDo":      "0f187401d76b0f920c013006d0ac5742ba8b2a1650474d208074feffb30443e4",
		"checkpoint/timer":  "bf546222f4c0356a50a3ff8289fc88be40788cf18f53ad5f6b3b553286c9e224",
		"checkpoint/contin": "14526107aaa7d081a52808d82357857c33b52aeb33223662ef8dc22362318157",
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

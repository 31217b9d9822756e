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

// TestWireBytesPinned pins the v4 byte layout of the messages that carry
// checkpoints: the subtree shards of a fig6 k=2 plan under every
// runtime, device checkpoints captured under the timer supply and under
// continuous power, and one checkpoint per supply-state kind. Each
// message group is hashed with SHA-256 and compared with a constant, so
// a refactor of the checkpoint types cannot drift the bytes a fleet
// worker or a write-ahead log reads without a version bump.
func TestWireBytesPinned(t *testing.T) {
	want := map[string]string{
		"shard/Alpaca":      "39e4a971b5c913e5565d461aac92095cad17720f363d03ac813d76843140f334",
		"shard/InK":         "2a261d63fc78a06ea6b8f1188673a15de0dee8c8868ef0d2a4d5b7d54305ea58",
		"shard/EaseIO":      "c686c2a54df545ee17ac8295f1c42cd2be791f242d6258e9cd4048b81b9fa3c4",
		"shard/JustDo":      "05afc30b74ada1766d7f43f0c8506eb5dd8f5a7fc91b7024124030f5b8e7a64d",
		"checkpoint/timer":  "6f3ca6cd7723a318fea3d030e1bccaa6be52a5d3eeb8527ba1ad96d605e96af6",
		"checkpoint/contin": "989d1621a6313c75ada3373273228a851a832a502c08398c403091e18d348c1e",
		"supply/continuous": "ef14f78336328f8951e11d5380f6bebdd32909be31d95225c0ec077bb97793fc",
		"supply/schedule":   "d09fdadc2a5c1271c73aa6e8d48a7739dedd6c2564fb45c390a4ea280a732ef3",
		"supply/timer":      "ad3cc803135b49b052bcc7f6010f3df5541dcd0b5fbf7d9b2ebec1ff5fda2277",
		"supply/harvested":  "b6f146cdb73ce4d71233d2153f08e7ca7dacf9ba1078a966b14702a42db104a2",
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

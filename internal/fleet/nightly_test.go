// Nightly-only fleet tests: depth budgets too slow for per-PR CI.
// These are gated on EASEIO_NIGHTLY_K3 and run from the nightly
// workflow's nested-check-k3 job; locally they skip in microseconds.

package fleet

import (
	"context"
	"os"
	"reflect"
	"testing"

	"easeio/internal/check"
)

// TestFleetNestedCheckK3ByteIdentity is the fleet-distributed twin of
// the nightly `easeio-check -k 3` runs: a k=3 exhaustive check sharded
// at the level-1 frontier over a multi-worker loopback fleet must
// DeepEqual (and render byte-identically to) the in-process checker,
// for every runtime in the check matrix. Per-PR CI pins the same
// contract at k=2 (TestFleetNestedCheckByteIdentity); this variant is
// the one place the three-deep subtree work units — each carrying a
// depth-2 frontier to grow — cross the fleet merge path.
func TestFleetNestedCheckK3ByteIdentity(t *testing.T) {
	if os.Getenv("EASEIO_NIGHTLY_K3") == "" {
		t.Skip("nightly-only: set EASEIO_NIGHTLY_K3=1 to run the fleet k=3 identity check")
	}
	c := newTestCoordinator(t, nil)
	startLoopback(t, c, 3)

	for _, kind := range kinds {
		spec := Spec{
			Mode: ModeCheck, App: "fig6", Runtime: kind.String(),
			Check: check.Config{Exhaustive: true, Failures: 3}, Shards: 4, ShardWorkers: 2,
		}
		id, err := c.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res := waitResult(t, c, id)

		want, werr := check.Run(context.Background(), check.Fig6Bench, kind,
			check.Config{Exhaustive: true, Failures: 3, Workers: 2})
		if werr != nil {
			t.Fatalf("%s reference: %v", kind, werr)
		}
		if !reflect.DeepEqual(res.Report, want) {
			t.Errorf("%s: fleet k=3 report differs structurally from check.Run", kind)
		}
		if res.Report.Render() != want.Render() {
			t.Errorf("%s: fleet k=3 report differs from check.Run:\n--- fleet ---\n%s--- direct ---\n%s",
				kind, res.Report.Render(), want.Render())
		}
	}
}

// Steady-state allocation pins for the pooled hot paths. Every per-run
// structure is sized once at attach from the blueprint's dense-ID
// counts; these tests keep the per-run paths allocation-free so
// a regression (a map sneaking back in, an unguarded trace call boxing
// its varargs, a snapshot dropping its buffer reuse) fails loudly
// instead of shaving sweep throughput quietly.
package easeio

import (
	"testing"

	"easeio/internal/apps"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
)

// TestPooledRunZeroAlloc pins zero heap allocations per steady-state
// pooled sweep run: after the first run attaches the runtime and the
// second settles lazily-created scratch, Session.Run must reset and
// re-execute entirely in place for every runtime — on the DMA app and on
// the freshness-bounded sensor app, whose per-attempt fresh-site list
// and per-run sample table must keep their buffers across runs.
func TestPooledRunZeroAlloc(t *testing.T) {
	dmaCfg := apps.DefaultDMAConfig()
	dmaCfg.Words = 100
	for _, app := range []struct {
		name  string
		build func() (*apps.Bench, error)
	}{
		{"dma", func() (*apps.Bench, error) { return apps.NewDMAApp(dmaCfg) }},
		{"sensor", func() (*apps.Bench, error) { return apps.NewSensorApp(apps.DefaultSensorConfig()) }},
	} {
		for _, kind := range []experiments.RuntimeKind{
			experiments.EaseIO, experiments.Alpaca, experiments.InK, experiments.JustDo,
		} {
			bench, err := app.build()
			if err != nil {
				t.Fatal(err)
			}
			rt := experiments.NewRuntime(kind)
			sess := kernel.NewSession(rt, bench.App, experiments.TimerSupply())
			seed := int64(0)
			run := func() {
				seed++
				if _, err := sess.Run(seed); err != nil {
					t.Fatal(err)
				}
			}
			run() // attach
			run() // settle lazily-created scratch (device ctx, checker, memo)
			if avg := testing.AllocsPerRun(20, run); avg > 0 {
				t.Errorf("%s/%s: steady-state pooled run allocates %.1f times, want 0", app.name, rt.Name(), avg)
			}
		}
	}
}

// TestCheckpointSnapshotZeroAlloc pins zero allocations per recycled
// checkpoint: SnapshotInto with a reused checkpoint — device and runtime
// halves — must be pure
// copies into existing buffers — the failure-point checker takes one
// per candidate failure point, thousands per checked run.
func TestCheckpointSnapshotZeroAlloc(t *testing.T) {
	cfg := apps.DefaultDMAConfig()
	cfg.Words = 100
	bench, err := apps.NewDMAApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := kernel.NewSession(experiments.NewRuntime(experiments.EaseIO), bench.App, experiments.TimerSupply())
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	dev, rt := sess.Device(), sess.Runtime()
	cp := dev.SnapshotInto(&kernel.Checkpoint{}, rt) // sizes the buffers
	if avg := testing.AllocsPerRun(20, func() { cp = dev.SnapshotInto(cp, rt) }); avg > 0 {
		t.Errorf("recycled SnapshotInto allocates %.1f times, want 0", avg)
	}
}

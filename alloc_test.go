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
// re-execute entirely in place for every runtime — on the DMA app, on
// the freshness-bounded sensor app, whose per-attempt fresh-site list
// and per-run sample table must keep their buffers across runs, on the
// FIR app, whose FIR memo must reuse its saved words on a miss, and on
// the weather app, whose sensing block body is pooled.
func TestPooledRunZeroAlloc(t *testing.T) {
	dmaCfg := apps.DefaultDMAConfig()
	dmaCfg.Words = 100
	for _, app := range []struct {
		name  string
		build func() (*apps.Bench, error)
	}{
		{"dma", func() (*apps.Bench, error) { return apps.NewDMAApp(dmaCfg) }},
		{"sensor", func() (*apps.Bench, error) { return apps.NewSensorApp(apps.DefaultSensorConfig()) }},
		{"fir", func() (*apps.Bench, error) { return apps.NewFIRApp(apps.DefaultFIRConfig()) }},
		{"weather", func() (*apps.Bench, error) { return apps.NewWeatherApp(apps.DefaultWeatherConfig()) }},
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
// checkpoint: SnapshotInto with a reused checkpoint — memory and runtime
// bookkeeping (Device.Runtime) alike — must be pure copies into existing
// buffers — the failure-point checker takes one per candidate failure
// point, thousands per checked run.
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
	dev := sess.Device()
	cp := dev.SnapshotInto(&kernel.Checkpoint{}) // sizes the buffers
	if len(cp.Runtime.Slots) == 0 || len(cp.Runtime.TaskInst) == 0 {
		t.Fatalf("checkpoint holds %d slots and %d task counters: the runtime half is not covered",
			len(cp.Runtime.Slots), len(cp.Runtime.TaskInst))
	}
	if avg := testing.AllocsPerRun(20, func() { cp = dev.SnapshotInto(cp) }); avg > 0 {
		t.Errorf("recycled SnapshotInto allocates %.1f times, want 0", avg)
	}
}

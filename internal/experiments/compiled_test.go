// Differential coverage for the compiled-kernel execution path. The
// contract under test: an interpreted op-list body and the compiled
// kernel through a pooled session produce byte-identical statistics, so
// compilation is purely a throughput knob. The matrix deliberately
// crosses all four runtime families (the bulk-load and bulk-charge fast
// paths are per-runtime).

package experiments

import (
	"reflect"
	"testing"
	"time"

	"easeio/internal/kernel"
	"easeio/internal/stats"
)

var diffRuntimes = []RuntimeKind{Alpaca, InK, EaseIO, JustDo}

// runInterpreted executes one seed on a fresh device with compilation
// disabled: the op-list interpreter body and the canonical CheckOutput
// closure — the reference the compiled paths must reproduce.
func runInterpreted(t *testing.T, factory AppFactory, kind RuntimeKind, seed int64) *stats.Run {
	t.Helper()
	bench, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	dev := kernel.NewDevice(TimerSupply(), seed)
	dev.NoCompile = true
	if err := kernel.RunApp(dev, NewRuntime(kind), bench.App); err != nil {
		t.Fatal(err)
	}
	return dev.Run
}

// TestCompiledMatchesInterpreted pins per-seed byte-identity between the
// interpreted reference and the compiled-kernel session path, for every
// runtime, on both op-bodied apps.
func TestCompiledMatchesInterpreted(t *testing.T) {
	factories := map[string]AppFactory{"dma": dmaFactory, "temp": tempFactory}
	for name, factory := range factories {
		for _, kind := range diffRuntimes {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				bench, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				sess := kernel.NewSession(NewRuntime(kind), bench.App, TimerSupply())
				for seed := int64(1); seed <= 12; seed++ {
					compiled, err := sess.Run(seed)
					if err != nil {
						t.Fatal(err)
					}
					interp := runInterpreted(t, factory, kind, seed)
					if !reflect.DeepEqual(compiled, interp) {
						t.Fatalf("seed %d: compiled run diverged from interpreted:\n%+v\nvs\n%+v",
							seed, compiled, interp)
					}
				}
			})
		}
	}
}

// cutRecorder collects charge-slice boundaries.
type cutRecorder struct{ cuts []time.Duration }

func (c *cutRecorder) NoteCut(onTime time.Duration) { c.cuts = append(c.cuts, onTime) }

// TestCutSinkForcesSliceIdentity pins the bulk-charge gate on the other
// observation hook: with a CutSink installed, compiled execution must
// fall back to per-slice charging and report exactly the cut sequence
// the interpreted run reports — the failure-point checker depends on
// every candidate boundary existing on both paths.
func TestCutSinkForcesSliceIdentity(t *testing.T) {
	for _, kind := range diffRuntimes {
		t.Run(kind.String(), func(t *testing.T) {
			bench, err := dmaFactory()
			if err != nil {
				t.Fatal(err)
			}
			compiledCuts := &cutRecorder{}
			sess := kernel.NewSession(NewRuntime(kind), bench.App, TimerSupply())
			sess.Cuts = compiledCuts
			compiled, err := sess.Run(4)
			if err != nil {
				t.Fatal(err)
			}

			bench2, err := dmaFactory()
			if err != nil {
				t.Fatal(err)
			}
			interpCuts := &cutRecorder{}
			dev := kernel.NewDevice(TimerSupply(), 4)
			dev.NoCompile = true
			dev.Cuts = interpCuts
			if err := kernel.RunApp(dev, NewRuntime(kind), bench2.App); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(compiled, dev.Run) {
				t.Errorf("compiled run under CutSink diverged from interpreted:\n%+v\nvs\n%+v",
					compiled, dev.Run)
			}
			if !reflect.DeepEqual(compiledCuts.cuts, interpCuts.cuts) {
				t.Errorf("cut sequences differ: compiled %d cuts, interpreted %d cuts",
					len(compiledCuts.cuts), len(interpCuts.cuts))
			}
			if len(compiledCuts.cuts) == 0 {
				t.Error("no cuts recorded")
			}
		})
	}
}

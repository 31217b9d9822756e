package kernel

import (
	"strings"
	"testing"
	"time"

	"easeio/internal/energy"
	"easeio/internal/power"
	"easeio/internal/task"
	"easeio/internal/units"
)

func TestRenderGantt(t *testing.T) {
	a := simpleApp(func(e task.Exec) {
		e.Compute(8000)
		e.Done()
	})
	buf := &TraceBuffer{}
	sess := NewSession(&testRT{}, a, power.NewSchedule(3*time.Millisecond))
	sess.Tracer = buf
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderGantt(buf, 80, &sb)
	out := sb.String()
	for _, want := range []string{"power", "taska", "X", "C", "."} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt missing %q:\n%s", want, out)
		}
	}
	// Degenerate inputs must not panic.
	var empty strings.Builder
	RenderGantt(&TraceBuffer{}, 80, &empty)
	if !strings.Contains(empty.String(), "no events") {
		t.Error("empty buffer rendering")
	}
	RenderGantt(buf, 1, &strings.Builder{}) // width clamp
}

func TestStuckHarvestedRun(t *testing.T) {
	// A harvester below leakage power: the first recharge never reaches
	// the boot threshold and the run is abandoned as Stuck — also when
	// the harvester reaches the kernel through a wrapper, as the diurnal
	// experiment's does.
	a := simpleApp(func(e task.Exec) {
		e.Compute(50_000)
		e.Done()
	})
	for _, wrap := range []struct {
		name string
		of   func(power.Supply) power.Supply
	}{
		{"bare", func(s power.Supply) power.Supply { return s }},
		{"wrapped", func(s power.Supply) power.Supply { return forwardingSupply{s} }},
	} {
		t.Run(wrap.name, func(t *testing.T) {
			h := power.NewHarvested(energy.Constant{P: 1 * units.Microwatt})
			h.MaxOff = 50 * time.Millisecond
			h.Cap.C = 1000 * units.Nanofarad // tiny: drains mid-task
			h.StartAtVon = true
			sess := NewSession(&testRT{}, a, wrap.of(h))
			if _, err := sess.Run(1); err != nil {
				t.Fatal(err)
			}
			dev := sess.Device()
			if !dev.Run.Stuck {
				t.Fatal("run should be stuck")
			}
			if dev.Run.PowerFailures != 1 {
				t.Errorf("%d power failures, want the one whose recharge failed", dev.Run.PowerFailures)
			}
			if dev.Run.Correct {
				t.Error("a stuck run must not report correct output")
			}
		})
	}
}

// forwardingSupply hands every call to the supply it wraps.
type forwardingSupply struct{ power.Supply }

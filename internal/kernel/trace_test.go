package kernel

import (
	"strings"
	"testing"
	"time"

	"easeio/internal/power"
	"easeio/internal/task"
)

func TestTraceBufferRecordsLifecycle(t *testing.T) {
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
	if buf.Count(EvBoot) != 2 {
		t.Errorf("boot events = %d, want 2", buf.Count(EvBoot))
	}
	if buf.Count(EvPowerFailure) != 1 {
		t.Errorf("power-failure events = %d, want 1", buf.Count(EvPowerFailure))
	}
	if buf.Count(EvTaskBegin) < 2 || buf.Count(EvTaskCommit) != 1 {
		t.Errorf("task events: begin=%d commit=%d", buf.Count(EvTaskBegin), buf.Count(EvTaskCommit))
	}
	// The attempt the failure interrupted is closed by an abort event
	// before the failure itself is recorded.
	if buf.Count(EvTaskAbort) != 1 {
		t.Errorf("task-abort events = %d, want 1", buf.Count(EvTaskAbort))
	}
	// Events are time-ordered and render non-empty lines.
	var prev time.Duration
	var sb strings.Builder
	buf.Dump(&sb)
	for _, e := range buf.Events {
		if e.Wall < prev {
			t.Fatalf("events out of order: %v after %v", e.Wall, prev)
		}
		prev = e.Wall
	}
	if !strings.Contains(sb.String(), "power-failure") {
		t.Error("dump missing failure event")
	}
}

func TestTraceCostsNothing(t *testing.T) {
	runOnce := func(traced bool) time.Duration {
		a := simpleApp(func(e task.Exec) {
			e.Compute(5000)
			e.Done()
		})
		sess := NewSession(&testRT{}, a, power.Continuous{})
		if traced {
			sess.Tracer = &TraceBuffer{}
		}
		if _, err := sess.Run(1); err != nil {
			t.Fatal(err)
		}
		return sess.Device().Clock.OnTime()
	}
	if runOnce(false) != runOnce(true) {
		t.Error("tracing changed simulated time")
	}
}

// The overhead budget of DESIGN.md §12: with no tracer attached, a trace
// point is one nil check — no Sprintf, no allocation.
func BenchmarkTraceOff(b *testing.B) {
	dev := NewDevice(power.Continuous{}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev.Trace(EvIOExec, "%s[%d]", "site", i)
	}
}

// BenchmarkTraceOn is the comparison point: the full cost of formatting
// and buffering an event when tracing is enabled.
func BenchmarkTraceOn(b *testing.B) {
	dev := NewDevice(power.Continuous{}, 1)
	buf := &TraceBuffer{}
	dev.Tracer = buf
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(buf.Events) > 1<<16 {
			buf.Reset()
		}
		dev.Trace(EvIOExec, "%s[%d]", "site", i)
	}
}

// BenchmarkRunTraced/off vs /on: end-to-end cost of tracing a whole run.
func BenchmarkRunTraced(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "off"
		if traced {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := simpleApp(func(e task.Exec) {
					e.Compute(5000)
					e.Done()
				})
				sess := NewSession(&testRT{}, a, power.Continuous{})
				if traced {
					sess.Tracer = &TraceBuffer{}
				}
				b.StartTimer()
				if _, err := sess.Run(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

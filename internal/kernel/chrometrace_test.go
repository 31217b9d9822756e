package kernel

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"easeio/internal/power"
	"easeio/internal/task"
)

// chromeDoc mirrors the exporter's envelope for structural validation.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestChromeTraceExport(t *testing.T) {
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
	if err := ExportChromeTrace(buf, &sb); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}

	var taskSpans, powerSpans, aborts, commits int
	prevTs := -1.0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue // metadata carries no timestamp
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("span %q has no or negative duration", ev.Name)
			}
			switch ev.Tid {
			case trackTasks:
				taskSpans++
				switch ev.Args["outcome"] {
				case "commit":
					commits++
				case "abort":
					aborts++
				default:
					t.Errorf("task span %q outcome = %v", ev.Name, ev.Args["outcome"])
				}
			case trackPower:
				powerSpans++
			}
		case "i":
			if ev.Args["detail"] == nil {
				t.Errorf("instant %q has no detail", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.Ts < 0 {
			t.Errorf("event %q has negative ts", ev.Name)
		}
		_ = prevTs
	}
	// One schedule failure: the interrupted attempt aborts, the retry
	// commits, and the power track has on/off/on spans.
	if commits != 1 || aborts != 1 {
		t.Errorf("task spans: %d commits, %d aborts (want 1, 1); total %d", commits, aborts, taskSpans)
	}
	if powerSpans < 3 {
		t.Errorf("power spans = %d, want >= 3 (on, off, on)", powerSpans)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteChromeTrace(nil, &sb); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v", err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			t.Errorf("empty trace exported non-metadata event %q", ev.Name)
		}
	}
}

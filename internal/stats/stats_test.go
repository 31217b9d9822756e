package stats

import (
	"testing"
	"time"

	"easeio/internal/units"
)

func mkRun(app, rt string, seed int64) *Run {
	r := &Run{App: app, Runtime: rt, Seed: seed, Correct: true}
	r.Work[App] = Totals{T: 10 * time.Millisecond, E: 10 * units.Microjoule}
	r.Work[Overhead] = Totals{T: 2 * time.Millisecond, E: 2 * units.Microjoule}
	r.Work[Wasted] = Totals{T: 4 * time.Millisecond, E: 4 * units.Microjoule}
	r.PowerFailures = 3
	r.IOExecs = 5
	r.IORepeats = 2
	r.OnTime = 16 * time.Millisecond
	r.WallTime = 20 * time.Millisecond
	return r
}

// summarize folds runs through an Aggregator, the way a sweep does.
func summarize(runs []*Run) Summary {
	a := NewAggregator()
	for _, r := range runs {
		a.Add(r)
	}
	return a.Summary()
}

func TestBucketStrings(t *testing.T) {
	if App.String() != "App" || Overhead.String() != "Overhead" || Wasted.String() != "Wasted" {
		t.Error("bucket names")
	}
	if Bucket(9).String() != "Bucket(9)" {
		t.Error("unknown bucket")
	}
}

func TestTotalsArithmetic(t *testing.T) {
	a := Totals{T: time.Millisecond, E: units.Microjoule}
	b := Totals{T: 2 * time.Millisecond, E: 3 * units.Microjoule}
	a.Add(b)
	if a.T != 3*time.Millisecond || a.E != 4*units.Microjoule {
		t.Errorf("Add: %+v", a)
	}
	d := a.Sub(b)
	if d.T != time.Millisecond || d.E != units.Microjoule {
		t.Errorf("Sub: %+v", d)
	}
}

func TestRunHelpers(t *testing.T) {
	r := mkRun("a", "rt", 1)
	if got := r.TotalEnergy(); got != 16*units.Microjoule {
		t.Errorf("TotalEnergy = %v", got)
	}
}

func TestAggregate(t *testing.T) {
	runs := []*Run{mkRun("a", "rt", 1), mkRun("a", "rt", 2)}
	runs[1].Correct = false
	runs[1].Work[Wasted].T = 8 * time.Millisecond
	s := summarize(runs)
	if s.Runs != 2 || s.App != "a" || s.Runtime != "rt" {
		t.Errorf("summary header: %+v", s)
	}
	if s.PowerFailures != 6 || s.IOExecs != 10 || s.IORepeats != 4 {
		t.Errorf("sums: %+v", s)
	}
	if s.Work[Wasted].T != 6*time.Millisecond { // mean of 4 and 8
		t.Errorf("mean wasted = %v", s.Work[Wasted].T)
	}
	if s.CorrectRuns != 1 || s.IncorrectRuns != 1 {
		t.Errorf("correctness split: %+v", s)
	}
	if s.MeanOnTime != 16*time.Millisecond || s.MeanWallTime != 20*time.Millisecond {
		t.Errorf("times: on=%v wall=%v", s.MeanOnTime, s.MeanWallTime)
	}
	if got := s.MeanTotalTime(); got != 18*time.Millisecond {
		t.Errorf("MeanTotalTime = %v", got)
	}
}

func TestAggregateStuck(t *testing.T) {
	r := mkRun("a", "rt", 1)
	r.Stuck = true
	s := summarize([]*Run{r})
	if s.StuckRuns != 1 || s.CorrectRuns != 0 {
		t.Errorf("stuck handling: %+v", s)
	}
}

func TestAggregateEmptyAndMixed(t *testing.T) {
	if s := summarize(nil); s.Runs != 0 {
		t.Error("empty aggregate")
	}
	defer func() {
		if recover() == nil {
			t.Error("mixed aggregate must panic")
		}
	}()
	summarize([]*Run{mkRun("a", "rt", 1), mkRun("b", "rt", 2)})
}

func TestSummaryRatios(t *testing.T) {
	s := summarize([]*Run{mkRun("a", "rt", 1)})
	if got := s.WastedRatio(); got != 0.4 { // 4 ms wasted over 10 ms of app work
		t.Errorf("WastedRatio = %v", got)
	}
	if got := s.OverheadRatio(); got != 0.2 {
		t.Errorf("OverheadRatio = %v", got)
	}
	var empty Summary
	if empty.WastedRatio() != 0 || empty.OverheadRatio() != 0 {
		t.Error("ratios of an empty summary must be 0, not NaN")
	}
}

func TestAggregatePercentiles(t *testing.T) {
	var runs []*Run
	for i := 1; i <= 100; i++ {
		r := &Run{App: "a", Runtime: "rt", Correct: true}
		r.Work[App] = Totals{T: time.Duration(i) * time.Millisecond}
		runs = append(runs, r)
	}
	s := summarize(runs)
	if s.P50TotalTime != 50*time.Millisecond {
		t.Errorf("p50 = %v", s.P50TotalTime)
	}
	if s.P95TotalTime != 95*time.Millisecond {
		t.Errorf("p95 = %v", s.P95TotalTime)
	}
	one := summarize(runs[:1])
	if one.P50TotalTime != time.Millisecond || one.P95TotalTime != time.Millisecond {
		t.Errorf("single-run percentiles: %v %v", one.P50TotalTime, one.P95TotalTime)
	}
}

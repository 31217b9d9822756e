package kernel

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
)

// cutList is a CutSink recording every cut on-time of a run.
type cutList []time.Duration

func (c *cutList) NoteCut(onTime time.Duration) { *c = append(*c, onTime) }

// snapOnce is a CutSink snapshotting a session's device and runtime at
// the cut on-time at.
type snapOnce struct {
	sess *Session
	at   time.Duration
	cp   *Checkpoint
}

func (s *snapOnce) NoteCut(onTime time.Duration) {
	if onTime == s.at {
		s.cp = s.sess.Device().SnapshotInto(&Checkpoint{}, s.sess.Runtime())
	}
}

// resumeApp is a two-task app whose second task falls off its end —
// a structural run error — while *broken is set.
func resumeApp(broken *bool) (*task.App, *task.NVVar) {
	a := task.NewApp("resume")
	v := a.NVInt("v")
	var two *task.Task
	a.AddTask("one", func(e task.Exec) {
		e.Compute(2000)
		e.Store(v, 7)
		e.Next(two)
	})
	two = a.AddTask("two", func(e task.Exec) {
		e.Compute(2000)
		if *broken {
			return
		}
		e.Store(v, e.Load(v)+1)
		e.Done()
	})
	for _, tk := range a.Tasks {
		tk.Meta.Analyzed = true
	}
	return a, v
}

func TestSessionResumeWithoutDevice(t *testing.T) {
	a, _ := resumeApp(new(bool))
	sess := NewSession(&testRT{}, a, power.NewSchedule(time.Millisecond))
	run, err := sess.Resume(&Checkpoint{})
	if err == nil || run != nil {
		t.Fatalf("Resume on a never-attached session = %v, %v; want an error", run, err)
	}
	if sess.Device() != nil {
		t.Error("a failed Resume attached a device")
	}
}

func TestSessionAttachKeepsDevice(t *testing.T) {
	a, _ := resumeApp(new(bool))
	sess := NewSession(&testRT{}, a, power.Continuous{})
	if err := sess.Attach(1); err != nil {
		t.Fatal(err)
	}
	dev := sess.Device()
	if dev == nil {
		t.Fatal("Attach left the session without a device")
	}
	if err := sess.Attach(2); err != nil || sess.Device() != dev {
		t.Fatalf("second Attach: err %v, device replaced %v", err, sess.Device() != dev)
	}
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	if err := sess.Attach(3); err != nil || sess.Device() != dev {
		t.Fatalf("Attach after Run: err %v, device replaced %v", err, sess.Device() != dev)
	}
	if dev.Run.TaskCommits != 2 || dev.Run.Seed != 1 {
		t.Errorf("Attach on an attached session touched the run: %d commits, seed %d",
			dev.Run.TaskCommits, dev.Run.Seed)
	}
}

// TestSessionResumeAfterRunError checks that a session whose run errored
// resumes again after Attach, and that the resumed run equals a from-boot
// run failing at the checkpoint's cut.
func TestSessionResumeAfterRunError(t *testing.T) {
	broken := false
	a, v := resumeApp(&broken)

	golden := NewSession(&testRT{}, a, power.Continuous{})
	var cuts cutList
	golden.Cuts = &cuts
	if _, err := golden.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(cuts) < 3 {
		t.Fatalf("only %d cuts", len(cuts))
	}
	snap := &snapOnce{sess: golden, at: cuts[len(cuts)/2]}
	golden.Cuts = snap
	if _, err := golden.Run(1); err != nil {
		t.Fatal(err)
	}
	if snap.cp == nil {
		t.Fatal("recording pass missed the cut")
	}

	want, err := NewSession(&testRT{}, a, power.NewSchedule(snap.at)).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if want.PowerFailures != 1 {
		t.Fatalf("from-boot reference booked %d failures, want 1", want.PowerFailures)
	}

	sess := NewSession(&testRT{}, a, power.NewSchedule(snap.at))
	broken = true
	if _, err := sess.Run(1); err == nil {
		t.Fatal("broken run did not error")
	}
	broken = false
	if _, err := sess.Resume(snap.cp); err == nil {
		t.Fatal("Resume after an errored run needs Attach first")
	}
	if err := sess.Attach(1); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Resume(snap.cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run differs from the from-boot run:\nresumed:   %+v\nfrom boot: %+v", got, want)
	}
	if got := ReadVar(sess.Device(), sess.Runtime(), v, 0); got != 8 {
		t.Errorf("v = %d after resume, want 8", got)
	}
}

// TestRestoreLeavesSupplyAlone pins the one resume rule: a checkpoint
// carries no supply state, so Device.Restore never moves the supply the
// caller positioned — here a checkpoint taken after one Schedule
// failure, restored into a fresh two-failure schedule.
func TestRestoreLeavesSupplyAlone(t *testing.T) {
	a, _ := resumeApp(new(bool))
	var golden cutList
	sess := NewSession(&testRT{}, a, power.Continuous{})
	sess.Cuts = &golden
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(golden) < 3 {
		t.Fatalf("only %d cuts", len(golden))
	}
	fail := golden[len(golden)/2]

	rec := NewSession(&testRT{}, a, power.NewSchedule(fail))
	var cuts cutList
	rec.Cuts = &cuts
	if _, err := rec.Run(1); err != nil {
		t.Fatal(err)
	}
	i := 0
	for i < len(cuts) && cuts[i] <= fail {
		i++
	}
	if i == len(cuts) {
		t.Fatal("no cut after the failure")
	}
	snap := &snapOnce{sess: rec, at: cuts[i]}
	rec.Cuts = snap
	if run, err := rec.Run(1); err != nil || run.PowerFailures != 1 {
		t.Fatalf("recording pass: %v, %v; want one failure", run, err)
	}
	if snap.cp == nil {
		t.Fatal("recording pass missed the cut")
	}

	sch := power.NewSchedule(time.Second, 2*time.Second)
	sess = NewSession(&testRT{}, a, sch)
	if err := sess.Attach(1); err != nil {
		t.Fatal(err)
	}
	remaining, fireAt := sch.Remaining(), sch.FireAt()
	sess.Device().Restore(snap.cp, sess.Runtime())
	if sch.Remaining() != remaining || sch.FireAt() != fireAt {
		t.Errorf("Restore moved the supply: %d remaining, fires at %v; want %d, %v",
			sch.Remaining(), sch.FireAt(), remaining, fireAt)
	}
}

// firMemoApp runs six frames of LEA FIR work. Each frame's task
// stores a frame-dependent input and a fixed one into LEA-RAM word by
// word, runs one FIR shape, rewrites its input with a Relu and runs the
// shape again, runs a second shape whose output lands on the first
// input and a third over the fixed input (the highest LEA-RAM words any
// command writes), and commits a sum of the outputs to FRAM. A power
// failure re-executes the whole task, so the re-executed frame repeats
// commands the memo has seen, and a warm memo serves the fixed command
// from the first call of every run, right after the reset has cleared
// the high-water marks.
func firMemoApp() (*task.App, *task.NVVar) {
	a := task.NewApp("firmemo")
	frame, sums := a.NVInt("frame"), a.NVBuf("sums", 6)
	var body, next *task.Task
	body = a.AddTask("frame", func(e task.Exec) {
		f := int(e.Load(frame))
		for i := 0; i < 48; i++ {
			e.WriteLEA(i, uint16(int16((i*37+f*11)%200-100)))
		}
		for i := 0; i < 8; i++ {
			e.WriteLEA(100+i, uint16(int16(4000*(i+1)-(f%3)*1000)))
		}
		for i := 0; i < 36; i++ {
			e.WriteLEA(300+i, uint16(int16(i*900-16000)))
		}
		e.Compute(3000)
		e.LEAFir(0, 100, 200, 48, 8)
		e.LEARelu(0, 48)
		e.LEAFir(0, 100, 200, 48, 8)
		e.LEAFir(200, 100, 20, 41, 8)
		e.LEAFir(300, 332, 400, 32, 4)
		var sum uint16
		for i := 20; i < 54; i++ {
			sum += e.ReadLEA(i)
		}
		for i := 400; i < 429; i++ {
			sum += e.ReadLEA(i)
		}
		e.Compute(3000)
		e.StoreAt(sums, f, sum)
		e.Next(next)
	})
	next = a.AddTask("next", func(e task.Exec) {
		f := e.Load(frame) + 1
		e.Store(frame, f)
		if f < 6 {
			e.Next(body)
		} else {
			e.Done()
		}
	})
	for _, tk := range a.Tasks {
		tk.Meta.Analyzed = true
	}
	return a, sums
}

// memoRun is one run's observable result: the record and every word
// and high-water mark of the memory.
type memoRun struct {
	run   *stats.Run
	words [mem.NumBanks][]uint16
	hw    [mem.NumBanks]int
}

func observe(dev *Device, run *stats.Run) memoRun {
	o := memoRun{run: run.Clone()}
	for b := mem.Bank(0); int(b) < mem.NumBanks; b++ {
		o.words[b] = slices.Clone(dev.Mem.Span(mem.Addr{Bank: b}, dev.Mem.Size(b)))
		o.hw[b] = dev.Mem.HighWater(b)
	}
	return o
}

// TestFirMemoWarmMatchesCold checks that the FIR memo a session's
// device carries across runs changes nothing observable: a pooled sweep
// on one session, then a checkpoint resume on the same warm session,
// then more pooled runs, each equal to the same run on a cold session.
func TestFirMemoWarmMatchesCold(t *testing.T) {
	a, sums := firMemoApp()
	supply := func() power.Supply { return power.NewTimer(power.DefaultTimerConfig()) }
	cold := func(seed int64) memoRun {
		s := NewSession(&testRT{}, a, supply())
		run, err := s.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		return observe(s.Device(), run)
	}
	warmSupply := supply()
	warm := NewSession(&testRT{}, a, warmSupply)
	same := func(what string, got, want memoRun) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: warm-memo run differs from a cold session's:\nwarm: %+v\ncold: %+v", what, got.run, want.run)
		}
	}
	failures := 0
	for seed := int64(1); seed <= 12; seed++ {
		run, err := warm.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		failures += run.PowerFailures
		same(fmt.Sprintf("seed %d", seed), observe(warm.Device(), run), cold(seed))
	}
	if failures == 0 {
		t.Fatal("the sweep saw no power failure; the memo was never re-hit after one")
	}
	if got := ReadVar(warm.Device(), warm.Runtime(), sums, 5); got == 0 {
		t.Error("the last frame committed no sum")
	}

	// A checkpoint in the middle of seed 5's run, resumed on the warm
	// session and on a cold one. A checkpoint carries no supply state, so
	// both timers are positioned alike, at seed 5's start, first.
	var cuts cutList
	rec := NewSession(&testRT{}, a, supply())
	rec.Cuts = &cuts
	if _, err := rec.Run(5); err != nil {
		t.Fatal(err)
	}
	snap := &snapOnce{sess: rec, at: cuts[len(cuts)/2]}
	rec.Cuts = snap
	if _, err := rec.Run(5); err != nil {
		t.Fatal(err)
	}
	if snap.cp == nil {
		t.Fatal("recording pass missed the cut")
	}
	resume := func(s *Session, sup power.Supply) memoRun {
		if err := s.Attach(5); err != nil {
			t.Fatal(err)
		}
		sup.Reset(5)
		run, err := s.Resume(snap.cp)
		if err != nil {
			t.Fatal(err)
		}
		return observe(s.Device(), run)
	}
	coldSupply := supply()
	same("resume", resume(warm, warmSupply), resume(NewSession(&testRT{}, a, coldSupply), coldSupply))
	for seed := int64(20); seed <= 23; seed++ {
		run, err := warm.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("seed %d after resume", seed), observe(warm.Device(), run), cold(seed))
	}
}

package kernel

import (
	"reflect"
	"testing"
	"time"

	"easeio/internal/power"
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

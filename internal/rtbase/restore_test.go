package rtbase_test

import (
	"reflect"
	"testing"
	"time"

	"easeio/internal/core"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/rtbase"
	"easeio/internal/task"
)

// cutSnapshot checkpoints the session's device at its n-th charge-slice
// boundary.
type cutSnapshot struct {
	sess  *kernel.Session
	n     int
	seen  int
	cp    kernel.Checkpoint
	taken bool
}

func (c *cutSnapshot) NoteCut(time.Duration) {
	c.seen++
	if c.seen == c.n {
		c.sess.Device().SnapshotInto(&c.cp)
		c.taken = true
	}
}

// resume attaches a fresh EaseIO instance to app, restores cp into it and
// runs the remaining suffix after a power failure at the checkpoint.
func resume(t *testing.T, app *task.App, cp *kernel.Checkpoint) *kernel.Device {
	t.Helper()
	sess := kernel.NewSession(core.New(), app, power.Continuous{})
	if err := sess.Attach(7); err != nil {
		t.Fatal(err)
	}
	if err := cp.Fits(sess.Device(), sess.Runtime()); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() { _ = cp.Fits(sess.Device(), sess.Runtime()) }); avg > 0 {
		t.Errorf("Fits allocates %.1f times, want 0", avg)
	}
	if _, err := sess.Resume(cp); err != nil {
		t.Fatal(err)
	}
	return sess.Device()
}

// TestRuntimeStateRestoresIntoRebuiltApp checks that the I/O slot
// numbering depends on the blueprint alone: a mid-run checkpoint, taken
// once the looped site, the plain site and the first DMA have run,
// restores into an instance of a separately built app and resumes to the
// same run as in an instance of the original app.
func TestRuntimeStateRestoresIntoRebuiltApp(t *testing.T) {
	app := rtbase.SlotApp(t)
	counter := &cutSnapshot{n: -1} // counts the run's cuts, snapshots none
	sess := kernel.NewSession(core.New(), app, power.Continuous{})
	sess.Cuts = counter
	if _, err := sess.Run(7); err != nil {
		t.Fatal(err)
	}

	// Checkpoint two thirds of the way in: inside the first task's
	// second compute phase, after every I/O site and the first DMA.
	snap := &cutSnapshot{n: 2 * counter.seen / 3}
	sess = kernel.NewSession(core.New(), app, power.Continuous{})
	snap.sess = sess
	sess.Cuts = snap
	if _, err := sess.Run(7); err != nil {
		t.Fatal(err)
	}
	if !snap.taken {
		t.Fatalf("no checkpoint at cut %d of %d", snap.n, counter.seen)
	}
	executed := 0
	for _, sl := range snap.cp.Runtime.Slots {
		if sl.ExecCount > 0 {
			executed++
		}
	}
	if executed < 5 {
		t.Fatalf("checkpoint has %d executed slots, want the 4 I/O instances and a DMA", executed)
	}

	sameDev := resume(t, app, &snap.cp)
	rebuiltDev := resume(t, rtbase.SlotApp(t), &snap.cp)
	if !reflect.DeepEqual(rebuiltDev.Run, sameDev.Run) {
		t.Errorf("resumed run differs:\nrebuilt %+v\nsame    %+v", rebuiltDev.Run, sameDev.Run)
	}
	if !reflect.DeepEqual(rebuiltDev.Runtime, sameDev.Runtime) {
		t.Errorf("final runtime state differs:\nrebuilt %+v\nsame    %+v", rebuiltDev.Runtime, sameDev.Runtime)
	}
	var sameMem, rebuiltMem kernel.Checkpoint
	sameDev.SnapshotInto(&sameMem)
	rebuiltDev.SnapshotInto(&rebuiltMem)
	for b := mem.Bank(0); b < mem.Bank(mem.NumBanks); b++ {
		if !reflect.DeepEqual(rebuiltMem.Mem.Words(b), sameMem.Mem.Words(b)) {
			t.Errorf("final %v differs between the rebuilt and the original app", b)
		}
	}
	if rebuiltMem.Mem.Alloc != sameMem.Mem.Alloc {
		t.Error("final allocation watermarks differ between the rebuilt and the original app")
	}
	if sameDev.Run.PowerFailures != 1 || !sameDev.Run.Correct {
		t.Errorf("resumed run: %d failures, correct=%v", sameDev.Run.PowerFailures, sameDev.Run.Correct)
	}
}

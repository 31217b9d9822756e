// The engine: boots the device, runs task attempts, turns power failures
// into reboots, and finishes when the runtime reports the app done.
// Session is its only entry point.

package kernel

import (
	"fmt"

	"easeio/internal/mcu"
	"easeio/internal/task"
)

// maxBoots bounds a run so that a non-terminating configuration (a task
// whose energy cost exceeds the budget — the paper's "non-termination
// bug") surfaces as an error instead of an infinite loop.
const maxBoots = 200_000

// runLoop is the engine's reboot loop, behind Session.Run and
// Session.Resume. With failed=false it starts with a clean boot; with
// failed=true it first handles a power failure already in effect at the
// current device state. It returns an error for structural failures
// (tasks that do not transition, non-termination); power failures are
// not errors — they are the phenomenon under study.
func runLoop(dev *Device, rt Hooks, app *task.App, failed bool) error {
	ctx := &dev.ctx
	*ctx = Ctx{Dev: dev, RT: rt, fresh: ctx.fresh[:0], fir: ctx.fir}
	for {
		if failed {
			dev.Run.PowerFailures++
			dev.Ledger.FailAttempt()
			dev.Mem.PowerFailure()
			if dev.TraceOn() {
				dev.Trace(EvPowerFailure, "#%d", dev.Run.PowerFailures)
			}
			off, ok := dev.Supply.Recharge(dev.Clock.Now())
			dev.Clock.Off(off)
			if dev.TraceOn() {
				dev.Trace(EvRecharge, "off for %v", off)
			}
			if !ok {
				dev.Run.Stuck = true
				finish(dev, rt, app)
				return nil
			}
			if dev.Clock.Boots() > maxBoots {
				return fmt.Errorf("kernel: %s/%s did not terminate within %d boots (non-termination bug)",
					app.Name, rt.Name(), maxBoots)
			}
		}
		var err error
		failed, err = bootAndRun(ctx)
		if err != nil {
			return err
		}
		if !failed {
			break
		}
	}
	finish(dev, rt, app)
	return nil
}

// bootAndRun charges the boot path, runs the runtime's recovery hook, and
// executes tasks until the app completes or a power failure unwinds the
// attempt. Failures during boot itself are recovered exactly like
// mid-task failures: a supply too weak to even boot surfaces as
// non-termination, which is the physically correct outcome.
func bootAndRun(ctx *Ctx) (failed bool, err error) {
	var attempt *task.Task // the task in flight, for the abort event
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(powerFailure); ok {
				if attempt != nil && ctx.Dev.TraceOn() {
					ctx.Dev.Trace(EvTaskAbort, "%s", attempt.Name)
				}
				failed = true
				return
			}
			panic(r) // a fault, not a power failure: Session turns it into an error
		}
	}()
	ctx.wastedDepth = 0
	ctx.fresh = ctx.fresh[:0]
	ctx.Dev.Clock.Boot()
	ctx.arm()
	if ctx.Dev.TraceOn() {
		ctx.Dev.Trace(EvBoot, "#%d", ctx.Dev.Clock.Boots())
	}
	ctx.ChargeOverheadCycles(mcu.BootCycles)
	ctx.RT.OnBoot(ctx)
	for {
		t := ctx.RT.CurrentTask()
		if t == nil {
			return false, nil
		}
		ctx.Dev.Run.TaskAttempts++
		ctx.transitioned = false
		ctx.fresh = ctx.fresh[:0]
		if ctx.Dev.TraceOn() {
			ctx.Dev.Trace(EvTaskBegin, "%s (attempt %d)", t.Name, ctx.Dev.Run.TaskAttempts)
		}
		attempt = t
		ctx.RT.BeginTask(ctx, t)
		t.Body(ctx)
		if !ctx.transitioned {
			return false, fmt.Errorf("kernel: task %q returned without Next/Done", t.Name)
		}
		attempt = nil
		// The freshness oracle's measurement point: a committing task has
		// irrevocably consumed its inputs, so each freshness-bounded site it
		// called is charged the wall-clock age of its last physical sample —
		// off-time counts, which is exactly what distinguishes a consistent
		// but stale value from a timely one.
		if len(ctx.fresh) > 0 {
			now := ctx.Dev.Clock.Now()
			for _, s := range ctx.fresh {
				if at := ctx.Dev.Run.SampleAt(s.ID); at >= 0 {
					if age := now - at; age > s.Freshness {
						ctx.Dev.Run.NoteStale(s.Name, age, s.Freshness, now)
					}
				}
			}
			ctx.fresh = ctx.fresh[:0]
		}
		ctx.Dev.Run.TaskCommits++
		if ctx.Dev.TraceOn() {
			ctx.Dev.Trace(EvTaskCommit, "%s", t.Name)
		}
	}
}

// finish exports the ledger and evaluates output correctness.
func finish(dev *Device, rt Hooks, app *task.App) {
	dev.Ledger.Export(dev.Run)
	dev.Run.WallTime = dev.Clock.Now()
	dev.Run.OnTime = dev.Clock.OnTime()
	if app.CheckOutput != nil && !dev.Run.Stuck {
		// The device's checker is rebound per run; handing out its
		// address boxes nothing, so pooled runs check without allocating.
		dev.checker = checkMem{checkReader{dev: dev, rt: rt}}
		dev.Run.Correct = app.CheckOutput(&dev.checker)
	} else {
		dev.Run.Correct = !dev.Run.Stuck
	}
}

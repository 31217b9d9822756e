// Session: the blueprint/instance split at the kernel level, and the
// engine's one entry point. An analyzed app is a blueprint shared by
// every run; the device and the attached runtime are the instance. A
// Session owns one device + one runtime instance and replays runs across
// seeds, resetting both in place instead of rebuilding the world per
// run, or resumes them from restored checkpoints.

package kernel

import (
	"errors"
	"fmt"
	"slices"

	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
)

// Session runs one app under one runtime instance many times, reusing the
// device between runs: the first run attaches the runtime to a fresh
// device, every later run rewinds the device to the state that attach
// left (no reallocation, no re-attach). A one-shot run is a new
// Session's first Run.
type Session struct {
	rt     Hooks
	app    *task.App
	supply power.Supply
	// Tracer, when non-nil, is installed on the device before every run.
	Tracer Tracer
	// Cuts, when non-nil, is installed on the device before every run and
	// receives each run's charge-slice boundaries (see CutSink).
	Cuts CutSink

	dev *Device
}

// NewSession creates a session for app under rt, powered by supply. The
// app must validate; analysis state is the runtime's concern (Attach
// reports un-analyzed apps).
func NewSession(rt Hooks, app *task.App, supply power.Supply) *Session {
	return &Session{rt: rt, app: app, supply: supply}
}

// Device returns the session's device (nil before the first attach and
// after a run that errored). Experiment harnesses use it to inspect final
// memory.
func (s *Session) Device() *Device { return s.dev }

// Runtime returns the session's runtime instance.
func (s *Session) Runtime() Hooks { return s.rt }

// Attach attaches the runtime to a fresh device built for seed, unless
// the session already has a device, in which case it does nothing, and
// keeps the device's attach image: the FRAM words below the high-water
// mark that Attach left, which Device.Reset rewinds every later run to.
// Run attaches on its own; Attach is for callers that need the device
// before their first Resume (Checkpoint.Fits reads it) or again after a
// run that errored.
func (s *Session) Attach(seed int64) error {
	if s.dev != nil {
		return nil
	}
	if err := s.app.Validate(); err != nil {
		return err
	}
	dev := NewDevice(s.supply, seed)
	dev.Tracer = s.Tracer
	dev.Cuts = s.Cuts
	if err := s.rt.Attach(dev, s.app); err != nil {
		return fmt.Errorf("kernel: attach %s to %s: %w", s.app.Name, s.rt.Name(), err)
	}
	if dev.Mem.HighWater(mem.SRAM) > 0 || dev.Mem.HighWater(mem.LEARAM) > 0 {
		return fmt.Errorf("kernel: attach %s to %s wrote volatile memory", s.app.Name, s.rt.Name())
	}
	dev.image = slices.Clone(dev.Mem.Span(mem.Addr{Bank: mem.FRAM}, dev.Mem.HighWater(mem.FRAM)))
	s.dev = dev
	return nil
}

// Run executes the app once with the given seed and returns the run's
// statistics. The first run attaches the runtime to a fresh device; later
// runs rewind the device to its attach image (Device.Reset), which
// reproduces exactly the run a fresh device and attach would have
// produced for the same seed. A structural
// error (attach failure, a task that does not transition,
// non-termination, a panic in app or runtime code) discards the device
// so the next call starts from a clean attach; power failures are not
// errors.
//
// The returned record is the device's own, reset in place by the next
// Run — read it (or Clone it) before running again.
func (s *Session) Run(seed int64) (_ *stats.Run, err error) {
	defer s.contain(&err)
	if s.dev == nil {
		if err := s.Attach(seed); err != nil {
			return nil, err
		}
	} else {
		s.dev.Tracer = s.Tracer
		s.dev.Cuts = s.Cuts
		s.dev.Reset(s.supply, seed)
	}
	s.dev.Run.App = s.app.Name
	s.dev.Run.Runtime = s.rt.Name()
	return s.loop(false)
}

// Resume restores cp — a charge-slice-boundary checkpoint taken by a
// CutSink, runtime half included — into the session's device and
// continues the run with the power failure that a supply firing at
// exactly that boundary would have caused: the pending attempt is
// wasted, volatile memory is cleared, the supply recharges, and
// execution proceeds through the normal reboot loop to completion. The
// checker's checkpointed replay path is built on this: golden-prefix
// state + Resume is byte-equivalent to a full from-boot run with one
// scheduled failure at the same cut, except that no task-abort trace
// event is emitted for the interrupted attempt (the unwind happened in
// the pass that took the checkpoint). The run record's App and Runtime
// come from the checkpoint.
//
// A checkpoint carries no supply state, so the caller positions the
// supply: Resume applies one failure at the checkpoint's cut, by
// recharging the session's supply, so that supply must hold that failure
// next. A Schedule resumed at its i-th failure therefore lists only the
// failures from the i-th on; the earlier ones are in the checkpoint's
// past.
//
// Resume needs an attached device (see Attach) and errors without one;
// errors discard the device as Run's do, and the returned record is
// reused the same way.
func (s *Session) Resume(cp *Checkpoint) (_ *stats.Run, err error) {
	defer s.contain(&err)
	if s.dev == nil {
		return nil, errors.New("kernel: resume on a session without a device (Attach first)")
	}
	s.dev.Tracer = s.Tracer
	s.dev.Cuts = s.Cuts
	s.dev.Restore(cp)
	return s.loop(true)
}

// contain turns a panic in app or runtime code into the call's error
// under the error rule: the device is discarded.
func (s *Session) contain(err *error) {
	if p := recover(); p != nil {
		s.dev = nil
		*err = fmt.Errorf("kernel: %s/%s panicked: %v", s.app.Name, s.rt.Name(), p)
	}
}

// loop drives the reboot loop on the session's device and applies the
// error rule shared by Run and Resume.
func (s *Session) loop(failed bool) (*stats.Run, error) {
	if err := runLoop(s.dev, s.rt, s.app, failed); err != nil {
		s.dev = nil
		return nil, err
	}
	return s.dev.Run, nil
}

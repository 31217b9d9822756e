// Session: the blueprint/instance split at the kernel level. An analyzed
// app is a blueprint shared by every run; the device and the attached
// runtime are the instance. A Session owns one device + one runtime
// instance and replays runs across seeds, resetting both in place
// instead of rebuilding the world per run.

package kernel

import (
	"fmt"

	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
)

// Session runs one app under one runtime instance many times, reusing the
// device between runs: the first run attaches the runtime to a fresh
// device, every later run resets the device and runtime in place (no
// reallocation, no re-attach).
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
// reports un-analyzed apps exactly as RunApp does).
func NewSession(rt Hooks, app *task.App, supply power.Supply) *Session {
	return &Session{rt: rt, app: app, supply: supply}
}

// Device returns the device of the most recent run (nil before the first
// run). Experiment harnesses use it to inspect final memory.
func (s *Session) Device() *Device { return s.dev }

// Runtime returns the session's runtime instance.
func (s *Session) Runtime() Hooks { return s.rt }

// Run executes the app once with the given seed and returns the run's
// statistics. The first run attaches the runtime to a fresh device; later
// runs reset it in place. A structural error (attach failure,
// non-termination) discards the device so the next call starts from a
// clean attach.
//
// The returned record is the device's own, reset in place by the next
// Run — read it (or Clone it) before running again.
func (s *Session) Run(seed int64) (*stats.Run, error) {
	if err := s.prepare(seed); err != nil {
		return nil, err
	}
	if err := RunAttached(s.dev, s.rt, s.app); err != nil {
		s.dev = nil
		return nil, err
	}
	return s.dev.Run, nil
}

// prepare brings the session's device to the ready-to-run state for seed:
// a fresh device plus attach on the first run, an in-place device +
// runtime reset afterwards — Run's front half, before RunAttached drives
// the reboot loop.
func (s *Session) prepare(seed int64) error {
	if s.dev == nil {
		if err := s.app.Validate(); err != nil {
			return err
		}
		dev := NewDevice(s.supply, seed)
		dev.Tracer = s.Tracer
		dev.Cuts = s.Cuts
		if err := s.rt.Attach(dev, s.app); err != nil {
			return fmt.Errorf("kernel: attach %s to %s: %w", s.app.Name, s.rt.Name(), err)
		}
		s.dev = dev
		return nil
	}
	s.dev.Tracer = s.Tracer
	s.dev.Cuts = s.Cuts
	s.dev.Reset(s.supply, seed)
	if err := s.rt.Reset(s.dev); err != nil {
		s.dev = nil
		return err
	}
	return nil
}

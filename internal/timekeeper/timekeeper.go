// Package timekeeper models the persistent time source EaseIO relies on
// for its Timely re-execution semantics.
//
// Real batteryless devices lose their clocks on power failure; the paper's
// platform adds a persistent timekeeping circuit (de Winkel et al., ASPLOS
// 2020, cited as [18]) that measures off-time so the runtime can tell how
// stale a sensor reading is after a reboot. This model keeps three
// quantities: total wall-clock time (on + off), the current boot's uptime,
// and counts of boots.
package timekeeper

import "time"

// Clock is the device's notion of time. Wall time advances through both
// on-time (Run) and off-time (Off); uptime resets at every reboot.
type Clock struct {
	wall   time.Duration // total simulated wall-clock time
	uptime time.Duration // time since the current boot
	onTime time.Duration // cumulative powered-on time
	boots  int           // number of boots (initial boot included)
}

// New returns a clock at time zero, before the first boot.
func New() *Clock { return &Clock{} }

// Reset returns the clock to time zero in place, for device reuse across
// runs.
func (c *Clock) Reset() { *c = Clock{} }

// State is a copyable snapshot of a clock's position, for device
// checkpointing: the Clock's fields, exported so a checkpoint can ship
// them.
type State struct {
	Wall   time.Duration
	Uptime time.Duration
	OnTime time.Duration
	Boots  int
}

// State captures the clock's current position.
func (c *Clock) State() State {
	return State{Wall: c.wall, Uptime: c.uptime, OnTime: c.onTime, Boots: c.boots}
}

// Restore rewinds (or advances) the clock to a previously captured
// position.
func (c *Clock) Restore(s State) {
	c.wall, c.uptime, c.onTime, c.boots = s.Wall, s.Uptime, s.OnTime, s.Boots
}

// Run advances the clock by d of powered-on execution.
func (c *Clock) Run(d time.Duration) {
	if d < 0 {
		panic("timekeeper: negative run duration")
	}
	c.wall += d
	c.uptime += d
	c.onTime += d
}

// Off advances the clock by d of powered-off (charging) time.
func (c *Clock) Off(d time.Duration) {
	if d < 0 {
		panic("timekeeper: negative off duration")
	}
	c.wall += d
}

// Boot marks a (re)boot: uptime resets, the boot counter increments.
func (c *Clock) Boot() {
	c.uptime = 0
	c.boots++
}

// Now returns total wall-clock time since the simulation started. This is
// the persistent timestamp EaseIO's Timely semantics compare against; it
// survives power failures by construction.
func (c *Clock) Now() time.Duration { return c.wall }

// Uptime returns time since the most recent boot.
func (c *Clock) Uptime() time.Duration { return c.uptime }

// OnTime returns cumulative powered-on time (the "execution time" the
// paper's figures report).
func (c *Clock) OnTime() time.Duration { return c.onTime }

// OffTime returns cumulative powered-off time.
func (c *Clock) OffTime() time.Duration { return c.wall - c.onTime }

// Boots returns how many times the device has booted.
func (c *Clock) Boots() int { return c.boots }

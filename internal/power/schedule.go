// Schedule: a fully deterministic Supply that fails at listed on-times.
// Behavioral tests use it to place a power failure at an exact point in a
// task — e.g. right after a DMA completes, inside the window where
// idempotence bugs live.

package power

import (
	"math"
	"sort"
	"time"

	"easeio/internal/units"
)

// Schedule fails exactly at the given cumulative on-times, with a fixed
// off-time after each failure. Once the list is exhausted the supply never
// fails again.
type Schedule struct {
	// FailAt lists cumulative on-times at which the supply cuts power.
	//
	// Invariant: FailAt must be strictly ascending. Step only ever
	// compares against FailAt[next], so an out-of-order earlier point
	// could never fire and a duplicate would fire twice at the same
	// on-time. The constructors establish the invariant by sorting and
	// deduplicating; code that builds a Schedule literal or mutates
	// FailAt directly must maintain it.
	FailAt []time.Duration
	// Off is the recharge time after every failure.
	Off time.Duration

	next int
}

// NewSchedule returns a scheduled supply with the given failure points and
// a 1 ms recharge time.
func NewSchedule(failAt ...time.Duration) *Schedule {
	return NewScheduleWithOff(time.Millisecond, failAt...)
}

// NewScheduleWithOff returns a scheduled supply with an explicit recharge
// time. A non-positive off falls back to the 1 ms default: a zero-length
// off-period would make the failure invisible to wall-clock-driven
// semantics (Timely windows, sensor processes). The failure points are
// copied, sorted, and deduplicated to establish the FailAt invariant.
func NewScheduleWithOff(off time.Duration, failAt ...time.Duration) *Schedule {
	if off <= 0 {
		off = time.Millisecond
	}
	return &Schedule{FailAt: normalizeFailAt(failAt), Off: off}
}

// normalizeFailAt returns a sorted, deduplicated copy of the failure
// points — the strictly-ascending form Step's single-cursor scan
// requires.
func normalizeFailAt(failAt []time.Duration) []time.Duration {
	pts := make([]time.Duration, len(failAt))
	copy(pts, failAt)
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	out := pts[:0]
	for i, p := range pts {
		if i == 0 || p != pts[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// Reset implements Supply. The schedule is seed-independent by design.
func (s *Schedule) Reset(int64) { s.next = 0 }

// Step implements Supply.
func (s *Schedule) Step(_, onTime, _ time.Duration, _ units.Energy) bool {
	return s.next < len(s.FailAt) && onTime >= s.FailAt[s.next]
}

// Recharge implements Supply. A schedule always reboots the device.
func (s *Schedule) Recharge(time.Duration) (time.Duration, bool) {
	s.next++
	return s.Off, true
}

// FireAt returns the cumulative on-time at which Step will next report
// failure, or a duration beyond any run when the schedule is exhausted.
// Like Timer.FireAt it is constant between failures, so the kernel
// steps the schedule only at its failure points.
func (s *Schedule) FireAt() time.Duration {
	if s.next >= len(s.FailAt) {
		return math.MaxInt64
	}
	return s.FailAt[s.next]
}

// Remaining returns how many scheduled failures have not fired yet.
func (s *Schedule) Remaining() int { return len(s.FailAt) - s.next }

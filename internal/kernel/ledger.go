// Work-accounting ledger: every charged cost lands in a pending attempt
// pool and moves to a committed bucket when the enclosing task — or, for
// EaseIO, the enclosing I/O span — commits.

package kernel

import (
	"time"

	"easeio/internal/stats"
	"easeio/internal/units"
)

// Ledger tracks committed and pending work for one run.
//
// Pending work belongs to the current task attempt. When the attempt is
// interrupted by a power failure the pending pool drains into the Wasted
// bucket; when the task commits it drains into App and Overhead. EaseIO
// additionally commits completed I/O operations mid-task (their lock flag
// is durable, so their work is never redone even if the surrounding
// attempt fails); it does so through spans.
//
// The fields are exported so a device checkpoint carries the ledger as
// is.
type Ledger struct {
	Committed [stats.NumBuckets]stats.Totals
	Pending   [2]stats.Totals // index 0 = useful, 1 = overhead
}

// Reset zeroes all committed and pending work, for device reuse across
// runs.
func (l *Ledger) Reset() { *l = Ledger{} }

// SpanMark captures the pending pool at the start of a commitable span.
type SpanMark struct {
	useful, overhead stats.Totals
}

// Charge adds work to the pending pool.
func (l *Ledger) Charge(overhead bool, dt time.Duration, e units.Energy) {
	i := 0
	if overhead {
		i = 1
	}
	l.Pending[i].Add(stats.Totals{T: dt, E: e})
}

// ChargeWasted commits work directly to the Wasted bucket. Redundant
// re-executions of already-completed I/O use this path: whether or not the
// surrounding attempt eventually commits, that work would not exist under
// continuous power.
func (l *Ledger) ChargeWasted(dt time.Duration, e units.Energy) {
	l.Committed[stats.Wasted].Add(stats.Totals{T: dt, E: e})
}

// Mark opens a span over subsequently charged work.
func (l *Ledger) Mark() SpanMark {
	return SpanMark{useful: l.Pending[0], overhead: l.Pending[1]}
}

// CommitSince commits all work charged after m: useful work moves to App,
// overhead to Overhead. Work already committed by nested spans is not
// double-counted because committing removes it from the pending pool.
func (l *Ledger) CommitSince(m SpanMark) {
	du := l.Pending[0].Sub(m.useful)
	do := l.Pending[1].Sub(m.overhead)
	if du.T < 0 || do.T < 0 {
		// A span must not straddle a power failure; marks are only valid
		// within one attempt.
		panic("kernel: ledger span crossed an attempt boundary")
	}
	l.Committed[stats.App].Add(du)
	l.Committed[stats.Overhead].Add(do)
	l.Pending[0] = m.useful
	l.Pending[1] = m.overhead
}

// CommitAttempt commits everything pending: called when a task reaches its
// transition.
func (l *Ledger) CommitAttempt() {
	l.Committed[stats.App].Add(l.Pending[0])
	l.Committed[stats.Overhead].Add(l.Pending[1])
	l.Pending[0], l.Pending[1] = stats.Totals{}, stats.Totals{}
}

// FailAttempt moves everything pending into Wasted: called when a power
// failure interrupts an attempt.
func (l *Ledger) FailAttempt() {
	l.Committed[stats.Wasted].Add(l.Pending[0])
	l.Committed[stats.Wasted].Add(l.Pending[1])
	l.Pending[0], l.Pending[1] = stats.Totals{}, stats.Totals{}
}

// Export copies the committed buckets into a run record.
func (l *Ledger) Export(r *stats.Run) {
	for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
		r.Work[b] = l.Committed[b]
	}
}

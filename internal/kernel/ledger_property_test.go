package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
	"easeio/internal/units"
)

// TestLedgerConservationProperty: no work is ever created or destroyed —
// for any random sequence of charges, spans, commits and attempt
// failures, committed + pending totals exactly equal the sum of charges.
func TestLedgerConservationProperty(t *testing.T) {
	err := quick.Check(func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := &Ledger{}
		var charged stats.Totals
		var marks []SpanMark
		for i := 0; i < int(nOps); i++ {
			switch rng.Intn(6) {
			case 0, 1: // charge useful or overhead
				tt := stats.Totals{
					T: time.Duration(rng.Intn(1000)) * time.Microsecond,
					E: units.Energy(rng.Intn(10000)),
				}
				l.Charge(rng.Intn(2) == 0, tt.T, tt.E)
				charged.Add(tt)
			case 2: // direct wasted
				tt := stats.Totals{
					T: time.Duration(rng.Intn(1000)) * time.Microsecond,
					E: units.Energy(rng.Intn(10000)),
				}
				l.ChargeWasted(tt.T, tt.E)
				charged.Add(tt)
			case 3: // open a span
				marks = append(marks, l.Mark())
			case 4: // commit the innermost span (LIFO, as the runtimes do)
				if n := len(marks); n > 0 {
					l.CommitSince(marks[n-1])
					marks = marks[:n-1]
				}
			case 5: // power failure: pending drains to Wasted, marks die
				l.FailAttempt()
				marks = marks[:0]
			}
		}
		var total stats.Totals
		for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
			total.Add(l.Committed[b])
		}
		u, o := l.Pending[0], l.Pending[1]
		total.Add(u)
		total.Add(o)
		return total == charged
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestEngineConservation: the same invariant end to end — a full run's
// committed bucket times must equal the clock's powered-on time exactly,
// across many failure schedules.
func TestEngineConservation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := simpleApp(func(e task.Exec) {
			e.Compute(9000)
			e.Done()
		})
		sess := NewSession(&testRT{}, a, power.NewTimer(power.DefaultTimerConfig()))
		if _, err := sess.Run(seed); err != nil {
			t.Fatal(err)
		}
		dev := sess.Device()
		var sum time.Duration
		for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
			sum += dev.Run.Work[b].T
		}
		if sum != dev.Run.OnTime {
			t.Fatalf("seed %d: buckets %v != on-time %v", seed, sum, dev.Run.OnTime)
		}
	}
}

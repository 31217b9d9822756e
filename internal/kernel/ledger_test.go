package kernel

import (
	"testing"
	"time"

	"easeio/internal/stats"
	"easeio/internal/units"
)

func TestLedgerCommitAndFail(t *testing.T) {
	l := &Ledger{}
	l.Charge(false, 2*time.Millisecond, 2*units.Microjoule)
	l.Charge(true, time.Millisecond, units.Microjoule)
	if u, o := l.Pending[0], l.Pending[1]; u.T != 2*time.Millisecond || o.T != time.Millisecond {
		t.Fatalf("pending = %v %v", u, o)
	}

	l.CommitAttempt()
	if got := l.Committed[stats.App]; got.T != 2*time.Millisecond || got.E != 2*units.Microjoule {
		t.Errorf("App = %+v", got)
	}
	if got := l.Committed[stats.Overhead]; got.T != time.Millisecond {
		t.Errorf("Overhead = %+v", got)
	}
	if u, o := l.Pending[0], l.Pending[1]; u.T != 0 || o.T != 0 {
		t.Error("pending not drained")
	}

	l.Charge(false, 5*time.Millisecond, 0)
	l.Charge(true, time.Millisecond, 0)
	l.FailAttempt()
	if got := l.Committed[stats.Wasted]; got.T != 6*time.Millisecond {
		t.Errorf("Wasted = %+v, want 6ms", got)
	}
}

func TestLedgerChargeWastedDirect(t *testing.T) {
	l := &Ledger{}
	l.ChargeWasted(3*time.Millisecond, units.Microjoule)
	if got := l.Committed[stats.Wasted]; got.T != 3*time.Millisecond {
		t.Errorf("Wasted = %+v", got)
	}
	if u, o := l.Pending[0], l.Pending[1]; u.T != 0 || o.T != 0 {
		t.Error("direct wasted charge must not touch pending")
	}
}

func TestLedgerSpans(t *testing.T) {
	l := &Ledger{}
	l.Charge(false, time.Millisecond, 0) // before the span

	m := l.Mark()
	l.Charge(false, 4*time.Millisecond, 0)
	l.Charge(true, 2*time.Millisecond, 0)
	l.CommitSince(m)

	if got := l.Committed[stats.App]; got.T != 4*time.Millisecond {
		t.Errorf("span App = %v", got.T)
	}
	if got := l.Committed[stats.Overhead]; got.T != 2*time.Millisecond {
		t.Errorf("span Overhead = %v", got.T)
	}
	// The pre-span 1 ms stays pending; a failure wastes only that.
	l.FailAttempt()
	if got := l.Committed[stats.Wasted]; got.T != time.Millisecond {
		t.Errorf("Wasted = %v, want 1ms", got.T)
	}
}

func TestLedgerNestedSpans(t *testing.T) {
	l := &Ledger{}
	outer := l.Mark()
	l.Charge(false, time.Millisecond, 0) // outer-only work
	inner := l.Mark()
	l.Charge(false, 2*time.Millisecond, 0)
	l.CommitSince(inner) // inner commits 2 ms
	l.Charge(false, 4*time.Millisecond, 0)
	l.CommitSince(outer) // outer commits 1 + 4 ms (not the inner 2 again)

	if got := l.Committed[stats.App]; got.T != 7*time.Millisecond {
		t.Errorf("App = %v, want 7ms total", got.T)
	}
	if u := l.Pending[0]; u.T != 0 {
		t.Errorf("pending = %v", u.T)
	}
}

func TestLedgerExport(t *testing.T) {
	l := &Ledger{}
	l.Charge(false, time.Millisecond, units.Microjoule)
	l.CommitAttempt()
	var r stats.Run
	l.Export(&r)
	if r.Work[stats.App].T != time.Millisecond || r.Work[stats.App].E != units.Microjoule {
		t.Errorf("export: %+v", r.Work[stats.App])
	}
}

func TestLedgerSpanAcrossFailPanics(t *testing.T) {
	l := &Ledger{}
	l.Charge(false, time.Millisecond, 0)
	m := l.Mark()
	l.FailAttempt()
	// The attempt boundary reset pending below the mark — CommitSince
	// must refuse to commit across it.
	defer func() {
		if recover() == nil {
			t.Error("expected panic for span crossing attempt boundary")
		}
	}()
	l.CommitSince(m)
}

package check

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/stats"
)

// classifyPerWord is the reference classify: every app word read through
// Memory.Read, hashed and compared one at a time. The span classify must
// produce the same outcome hash and the same divergence.
func (r *replayer) classifyPerWord(dev *kernel.Device, rt kernel.Hooks, run *stats.Run) outcome {
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	h := uint64(fnvOffset)
	put := func(w uint16) {
		h = (h ^ uint64(w&0xff)) * fnvPrime
		h = (h ^ uint64(w>>8)) * fnvPrime
	}
	if run.Correct {
		put(1)
	} else {
		put(0)
	}
	put(uint16(run.PowerFailures))
	if r.golden.hasFresh {
		putDur := func(d time.Duration) {
			for s := 0; s < 64; s += 16 {
				put(uint16(d >> s))
			}
		}
		put(uint16(len(run.Stale)))
		for _, ev := range run.Stale {
			for i := 0; i < len(ev.Site); i++ {
				h = (h ^ uint64(ev.Site[i])) * fnvPrime
			}
			putDur(ev.Age)
			putDur(ev.Bound)
			putDur(ev.At)
		}
	}

	var div *Divergence
	for i, v := range r.bench.App.Vars {
		if r.golden.sensed[i] {
			continue
		}
		a := rt.AddrOf(v)
		for w := 0; w < v.Words; w++ {
			got := dev.Mem.Read(a.Add(w))
			put(got)
			if want := r.golden.vars[i][w]; got != want && div == nil {
				div = &Divergence{Kind: "memory", Detail: fmt.Sprintf(
					"%s[%d] = %d, want %d", v.Name, w, got, want)}
			}
		}
	}
	switch {
	case div != nil:
	case r.golden.correct && !run.Correct:
		div = &Divergence{Kind: "output", Detail: "CheckOutput failed (golden run is correct)"}
	case r.golden.hasFresh && len(run.Stale) > r.golden.stale:
		ev := run.Stale[r.golden.stale]
		div = &Divergence{Kind: "timely", Detail: fmt.Sprintf(
			"Timely(Δt): %s consumed %v after its last sample (bound %v) at t=%v",
			ev.Site, ev.Age, ev.Bound, ev.At)}
	case run.PowerFailures != r.want:
		div = &Divergence{Kind: "ledger", Detail: fmt.Sprintf(
			"%d power failures booked, schedule injected %d", run.PowerFailures, r.want)}
	case sumWork(run) != run.OnTime:
		div = &Divergence{Kind: "ledger", Detail: fmt.Sprintf(
			"committed work %v does not account for on-time %v", sumWork(run), run.OnTime)}
	case run.OnTime < r.golden.onTime:
		div = &Divergence{Kind: "ledger", Detail: fmt.Sprintf(
			"on-time %v below the golden run's %v despite an injected failure",
			run.OnTime, r.golden.onTime)}
	}
	if div != nil {
		for i := 0; i < len(div.Kind); i++ {
			h = (h ^ uint64(div.Kind[i])) * fnvPrime
		}
	}
	return outcome{evaluated: true, hash: h, div: div}
}

// TestClassifyMatchesPerWord replays every fig6 single-failure point
// under Alpaca (divergent: the WAR bug corrupts a[0]) and EaseIO (every
// point passes) and checks that classify and the per-word reference
// agree on the outcome hash and the divergence.
func TestClassifyMatchesPerWord(t *testing.T) {
	for _, tc := range []struct {
		kind     experiments.RuntimeKind
		diverges bool
	}{
		{experiments.Alpaca, true},
		{experiments.EaseIO, false},
	} {
		p, err := goldenPass(Fig6Bench, tc.kind, Config{FromBoot: true}.fill())
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.e.newReplayer()
		if err != nil {
			t.Fatal(err)
		}
		memoryDivs := 0
		for _, cut := range p.e.cuts {
			r.setSchedule([]time.Duration{cut})
			run, err := r.sess.Run(r.seed)
			if err != nil {
				t.Fatalf("%v at %v: %v", tc.kind, cut, err)
			}
			dev, rt := r.sess.Device(), r.sess.Runtime()
			got := r.classify(run, nil)
			want := r.classifyPerWord(dev, rt, run)
			if got.hash != want.hash {
				t.Errorf("%v at %v: hash %#x, per-word %#x", tc.kind, cut, got.hash, want.hash)
			}
			if (got.div == nil) != (want.div == nil) || got.div != nil && !reflect.DeepEqual(*got.div, *want.div) {
				t.Errorf("%v at %v: divergence %+v, per-word %+v", tc.kind, cut, got.div, want.div)
			}
			if got.div != nil && got.div.Kind == "memory" {
				memoryDivs++
			}
		}
		if tc.diverges != (memoryDivs > 0) {
			t.Errorf("%v: %d memory divergences over %d points, want divergent=%v",
				tc.kind, memoryDivs, len(p.e.cuts), tc.diverges)
		}
	}
}

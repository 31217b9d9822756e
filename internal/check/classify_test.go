package check

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/stats"
)

// classifyPerWord is the reference classify: every app word read through
// Memory.Read and compared one at a time, and the outcome hash folded
// over every word in order (classify's hash before per-variable
// digests). classify's hash value differs from it; it must partition
// outcomes into the same equivalence classes and report the same
// divergence.
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

// TestClassifyMatchesPerWord replays, from boot, every schedule an
// exhaustive k=2 check of the equiv apps (fig6, temp, dma) explores
// under all four runtimes: each golden cut at level 1, then each cut of
// the recovery trajectory of every level-1 node nestedPlan expands. It
// checks classify against the per-word reference: the two hashes
// partition each cell's outcomes into the same classes (so bisection
// and collapse choose the same points), and every outcome gets the same
// divergence.
func TestClassifyMatchesPerWord(t *testing.T) {
	benches := []struct {
		name    string
		factory experiments.AppFactory
	}{{"fig6", Fig6Bench}, {"temp", tempFactory}, {"dma", dmaFactory}}
	divergent := map[string]bool{}
	for _, app := range benches {
		for _, kind := range equivKinds {
			cell := app.name + "/" + kind.String()
			p, err := goldenPass(app.factory, kind, Config{FromBoot: true}.Filled())
			if err != nil {
				t.Fatal(err)
			}
			r, err := p.e.newReplayer()
			if err != nil {
				t.Fatal(err)
			}
			toNew, toOld := map[uint64]uint64{}, map[uint64]uint64{}
			// level replays prefix + cuts[i] for every cut and returns
			// classify's outcomes and the reference's.
			level := func(prefix, cuts []time.Duration) (got, want []outcome) {
				for _, cut := range cuts {
					schedule := append(slices.Clone(prefix), cut)
					r.setSchedule(schedule)
					run, err := r.sess.Run(r.seed)
					if err != nil {
						t.Fatalf("%s %v: %v", cell, schedule, err)
					}
					dev, rt := r.sess.Device(), r.sess.Runtime()
					g, w := r.classify(run, nil), r.classifyPerWord(dev, rt, run)
					if n, ok := toNew[w.hash]; ok && n != g.hash {
						t.Errorf("%s %v: splits the per-word class %#x", cell, schedule, w.hash)
					}
					if o, ok := toOld[g.hash]; ok && o != w.hash {
						t.Errorf("%s %v: merges the per-word classes %#x and %#x", cell, schedule, o, w.hash)
					}
					toNew[w.hash], toOld[g.hash] = g.hash, w.hash
					if (g.div == nil) != (w.div == nil) || g.div != nil && !reflect.DeepEqual(*g.div, *w.div) {
						t.Errorf("%s %v: divergence %+v, per-word %+v", cell, schedule, g.div, w.div)
					}
					if g.div != nil && g.div.Kind == "memory" {
						divergent[cell] = true
					}
					got, want = append(got, g), append(want, w)
				}
				return got, want
			}
			got, want := level(nil, p.e.cuts)
			reps := nestedPlan(want, 0, len(want))
			if !reflect.DeepEqual(nestedPlan(got, 0, len(got)), reps) {
				t.Errorf("%s: level-1 expansion %v, per-word %v", cell, nestedPlan(got, 0, len(got)), reps)
			}
			for _, rep := range reps {
				prefix := []time.Duration{p.e.cuts[rep.idx]}
				suffix, err := r.traceBoot(prefix)
				if err != nil {
					t.Fatal(err)
				}
				level(prefix, suffix)
			}
			if len(reps) == 0 || len(toNew) < 2 {
				t.Errorf("%s: %d level-1 nodes expanded, %d classes; want at least 1 and 2",
					cell, len(reps), len(toNew))
			}
		}
	}
	// fig6's WAR bug corrupts a[0] under Alpaca; EaseIO keeps every
	// replay equal to golden.
	if !divergent["fig6/Alpaca"] || divergent["fig6/EaseIO"] {
		t.Errorf("memory divergences in %v, want fig6/Alpaca and not fig6/EaseIO", divergent)
	}
}

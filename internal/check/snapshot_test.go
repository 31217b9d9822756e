package check

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
)

var allKinds = []experiments.RuntimeKind{
	experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
}

// TestReplayModesByteIdentical pins the checkpointed replay's correctness
// claim: restoring a golden-prefix checkpoint and simulating only the
// post-failure suffix must render the exact same exhaustive report as
// re-simulating every replay from boot — byte for byte, divergences
// included (the baselines' fig6 failures must reproduce identically too).
func TestReplayModesByteIdentical(t *testing.T) {
	type cell struct {
		name string
		app  experiments.AppFactory
		kind experiments.RuntimeKind
	}
	var cells []cell
	for _, k := range allKinds {
		cells = append(cells, cell{"fig6/" + k.String(), Fig6Bench, k})
	}
	if !testing.Short() {
		for _, k := range allKinds {
			cells = append(cells, cell{"temp/" + k.String(), tempFactory, k})
		}
		cells = append(cells, cell{"dma/EaseIO", dmaFactory, experiments.EaseIO})
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Exhaustive: true, Workers: 2}
			ckpt, err := Run(context.Background(), c.app, c.kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.FromBoot = true
			boot, err := Run(context.Background(), c.app, c.kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ckpt.Render() != boot.Render() {
				t.Errorf("checkpointed and from-boot reports differ:\n--- checkpointed ---\n%s--- from boot ---\n%s",
					ckpt.Render(), boot.Render())
			}
		})
	}
}

// TestNestedReplayModesByteIdentical extends the byte-identity claim to
// the checkpoint tree: a k=2 exhaustive check must render the same
// report whether subtrees resume from recovery-trajectory checkpoints
// or every schedule replays from boot.
func TestNestedReplayModesByteIdentical(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Exhaustive: true, Failures: 2, Workers: 2}
			ckpt, err := Run(context.Background(), Fig6Bench, kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.FromBoot = true
			boot, err := Run(context.Background(), Fig6Bench, kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ckpt.Render() != boot.Render() {
				t.Errorf("checkpointed and from-boot k=2 reports differ:\n--- checkpointed ---\n%s--- from boot ---\n%s",
					ckpt.Render(), boot.Render())
			}
		})
	}
}

// TestNestedCheckpointFidelityTorture is the two-failure twin of
// TestCheckpointFidelityTorture: it drives the checkpoint tree's raw
// primitives by hand — golden checkpoint at cut₁, recovery-trajectory
// trace, suffix checkpoint at cut₂ along that trajectory, resume with
// the second failure — and compares the complete final state (FRAM word
// for word, the ledger, the full run statistics) against a from-boot
// run that fails at exactly [cut₁, cut₂]. This is the fidelity claim
// the nested checker's pruning and reporting both stand on. The sensor
// app rides along because its freshness record (sample clocks, stale
// serves) lives in the run statistics a checkpoint must carry — a
// Snapshot/Restore that dropped it would pass fig6 and still let the
// nested checker misreport staleness.
func TestNestedCheckpointFidelityTorture(t *testing.T) {
	for _, app := range []struct {
		name    string
		factory experiments.AppFactory
	}{
		{"fig6", Fig6Bench},
		{"sensor", sensorFactory},
	} {
		for _, kind := range allKinds {
			app, kind := app, kind
			t.Run(app.name+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				nestedFidelityTorture(t, app.factory, kind)
			})
		}
	}
}

func nestedFidelityTorture(t *testing.T, factory experiments.AppFactory, kind experiments.RuntimeKind) {
	const seed = 7
	bench, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	rec := &cutRecorder{}
	sess := kernel.NewSession(experiments.NewRuntime(kind), bench.App, power.Continuous{})
	sess.Cuts = rec
	if _, err := sess.Run(seed); err != nil {
		t.Fatal(err)
	}
	level1 := append([]time.Duration(nil), rec.cuts...)
	if len(level1) < 2 {
		t.Fatalf("only %d candidate cut points", len(level1))
	}

	// First cut plus a seeded-random sample of further first cuts.
	rng := rand.New(rand.NewSource(0x2fa11))
	picks := map[int]bool{0: true}
	for len(picks) < 4 && len(picks) < len(level1)-1 {
		picks[rng.Intn(len(level1)-1)] = true // not the last: its recovery has no cuts left
	}
	idxs := make([]int, 0, len(picks))
	for i := range picks {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)

	rcr := &recorder{sess: sess, seed: seed}
	cps, err := rcr.record(level1, idxs)
	if err != nil {
		t.Fatal(err)
	}

	// One attached session per role, resumed the way the checker's own
	// replayers are.
	newInstance := func(sch *power.Schedule) *kernel.Session {
		b, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		s := kernel.NewSession(experiments.NewRuntime(kind), b.App, sch)
		if err := s.Attach(seed); err != nil {
			t.Fatal(err)
		}
		return s
	}

	pairs := 0
	for k, i1 := range idxs {
		c1 := level1[i1]
		cp1 := cps[k]

		// Trace the recovery trajectory after the first failure.
		trSch := power.NewSchedule(c1)
		tr := newInstance(trSch)
		trSch.Reset(0)
		tr2 := &cutRecorder{}
		tr.Cuts = tr2
		if _, err := tr.Resume(cp1); err != nil {
			t.Fatalf("cut %v: trace: %v", c1, err)
		}
		tr.Cuts = nil
		suffix := tr2.cuts
		if len(suffix) == 0 {
			continue
		}

		// A couple of second cuts per first cut: the trajectory's
		// first boundary, its last, and a seeded-random one.
		j := map[int]bool{0: true, len(suffix) - 1: true}
		j[rng.Intn(len(suffix))] = true
		var jdx []int
		for i := range j {
			jdx = append(jdx, i)
		}
		sort.Ints(jdx)

		// Re-run the same trajectory with a snapshotting sink to
		// capture the suffix checkpoints (recordSuffix by hand).
		sink := newSnapSink(tr, suffix, jdx)
		trSch.Reset(0)
		tr.Cuts = sink
		if _, err := tr.Resume(cp1); err != nil {
			t.Fatalf("cut %v: suffix recording: %v", c1, err)
		}
		tr.Cuts = nil
		if len(sink.cps) != len(sink.targets) {
			t.Fatalf("cut %v: recorded %d of %d suffix checkpoints", c1, len(sink.cps), len(sink.targets))
		}

		for k2, i2 := range jdx {
			c2 := suffix[i2]
			pairs++

			// Tree path: restore the suffix checkpoint and resume
			// with the second failure, the only one its supply holds
			// (the first is in the checkpoint's past).
			evSch := power.NewSchedule(c2)
			ev := newInstance(evSch)
			evSch.Reset(0)
			if _, err := ev.Resume(sink.cps[k2]); err != nil {
				t.Fatalf("schedule [%v %v]: resume: %v", c1, c2, err)
			}
			evDev := ev.Device()

			// From-boot reference with both failures scheduled: a new
			// session's first run.
			refBench, err := factory()
			if err != nil {
				t.Fatal(err)
			}
			ref := kernel.NewSession(experiments.NewRuntime(kind), refBench.App, power.NewSchedule(c1, c2))
			if _, err := ref.Run(seed); err != nil {
				t.Fatalf("schedule [%v %v]: from boot: %v", c1, c2, err)
			}
			refDev := ref.Device()

			if diffs := framDiff(evDev.Mem, refDev.Mem, 4); diffs != nil {
				t.Errorf("schedule [%v %v]: final FRAM differs at words %v", c1, c2, diffs)
			}
			if !reflect.DeepEqual(refDev.Ledger, evDev.Ledger) {
				t.Errorf("schedule [%v %v]: ledgers differ:\nfrom-boot: %+v\ntree:      %+v",
					c1, c2, refDev.Ledger, evDev.Ledger)
			}
			if !reflect.DeepEqual(refDev.Run, evDev.Run) {
				t.Errorf("schedule [%v %v]: run stats differ:\nfrom-boot: %+v\ntree:      %+v",
					c1, c2, refDev.Run, evDev.Run)
			}
		}
		ckptRecycle(sink.cps...)
	}
	if pairs < 3 {
		t.Errorf("only %d (cut₁, cut₂) pairs exercised", pairs)
	}
}

// TestCheckpointFidelityTorture exercises the snapshot/restore primitives
// directly, outside the checker's own plumbing: take checkpoints of the
// golden pass at seeded-random cut points, restore each into a fresh
// second device, resume with the injected failure, and compare the
// complete final state — FRAM word for word, the ledger, and the full run
// statistics — against a from-boot run that fails at exactly the same
// point.
func TestCheckpointFidelityTorture(t *testing.T) {
	const seed = 7
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			bench, err := Fig6Bench()
			if err != nil {
				t.Fatal(err)
			}
			rec := &cutRecorder{}
			sess := kernel.NewSession(experiments.NewRuntime(kind), bench.App, power.Continuous{})
			sess.Cuts = rec
			if _, err := sess.Run(seed); err != nil {
				t.Fatal(err)
			}
			if len(rec.cuts) < 2 {
				t.Fatalf("only %d candidate cut points", len(rec.cuts))
			}

			// First and last cut plus a seeded-random sample in between.
			rng := rand.New(rand.NewSource(0xf1de))
			picks := map[int]bool{0: true, len(rec.cuts) - 1: true}
			for len(picks) < 12 && len(picks) < len(rec.cuts) {
				picks[rng.Intn(len(rec.cuts))] = true
			}
			idxs := make([]int, 0, len(picks))
			for i := range picks {
				idxs = append(idxs, i)
			}
			sort.Ints(idxs)

			rcr := &recorder{sess: sess, seed: seed}
			cps, err := rcr.record(rec.cuts, idxs)
			if err != nil {
				t.Fatal(err)
			}

			for k, idx := range idxs {
				cut := rec.cuts[idx]

				// From-boot reference: a fresh run with one scheduled
				// failure at the cut.
				refBench, err := Fig6Bench()
				if err != nil {
					t.Fatal(err)
				}
				ref := kernel.NewSession(experiments.NewRuntime(kind), refBench.App, power.NewSchedule(cut))
				if _, err := ref.Run(seed); err != nil {
					t.Fatal(err)
				}
				refDev := ref.Device()

				// Checkpointed path: restore the golden-prefix snapshot into
				// a second instance and simulate only the suffix.
				sufBench, err := Fig6Bench()
				if err != nil {
					t.Fatal(err)
				}
				suf := kernel.NewSession(experiments.NewRuntime(kind), sufBench.App, power.NewSchedule(cut))
				if err := suf.Attach(seed); err != nil {
					t.Fatal(err)
				}
				if _, err := suf.Resume(cps[k]); err != nil {
					t.Fatal(err)
				}
				sufDev := suf.Device()

				if diffs := framDiff(sufDev.Mem, refDev.Mem, 4); diffs != nil {
					t.Errorf("cut %v: final FRAM differs at words %v", cut, diffs)
				}
				if !reflect.DeepEqual(refDev.Ledger, sufDev.Ledger) {
					t.Errorf("cut %v: ledgers differ:\nfrom-boot: %+v\nresumed:   %+v",
						cut, refDev.Ledger, sufDev.Ledger)
				}
				if !reflect.DeepEqual(refDev.Run, sufDev.Run) {
					t.Errorf("cut %v: run stats differ:\nfrom-boot: %+v\nresumed:   %+v",
						cut, refDev.Run, sufDev.Run)
				}
			}
		})
	}
}

// framDiff returns the word offsets (up to max) at which two memories'
// FRAM contents differ, compared through their device snapshots: words
// past a snapshot's used prefix are zero.
func framDiff(a, b *mem.Memory, max int) []int {
	wa, wb := a.SnapshotAll().Words(mem.FRAM), b.SnapshotAll().Words(mem.FRAM)
	var diffs []int
	for i := 0; i < len(wa) || i < len(wb); i++ {
		var x, y uint16
		if i < len(wa) {
			x = wa[i]
		}
		if i < len(wb) {
			y = wb[i]
		}
		if x != y {
			if diffs = append(diffs, i); len(diffs) >= max {
				break
			}
		}
	}
	return diffs
}

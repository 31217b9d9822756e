// Model check of the fleet WAL recovery protocol (apps.NewWALApp): the
// journal's append/replay discipline, expressed as an intermittent
// application, pushed through the exhaustive failure-point checker. See
// EXPERIMENTS.md ("Model-checking the fleet WAL") for the full account.

package check

import (
	"context"
	"testing"

	"easeio/internal/apps"
	"easeio/internal/experiments"
)

func walFactory() (*apps.Bench, error) { return apps.NewWALApp(apps.DefaultWALConfig()) }

// TestWALProtocolSurvivesAllFailurePoints: under runtimes whose task
// commits buffer writes — the guarantee the fleet WAL builds with its
// frame CRC — the protocol must survive one power failure at every
// candidate cut, and two at every pair the nested checker explores:
// the header durable and never refused, every record committed exactly
// once, each slot decoding as exactly one record type consistent with
// its payload, and the recovered digest equal to the pure fold of the
// log.
func TestWALProtocolSurvivesAllFailurePoints(t *testing.T) {
	for _, k := range []int{1, 2} {
		for _, kind := range []experiments.RuntimeKind{
			experiments.InK, experiments.EaseIO, experiments.JustDo,
		} {
			rep, err := Run(context.Background(), walFactory, kind, Config{Exhaustive: true, Failures: k})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.GoldenCorrect {
				t.Errorf("%s k=%d: the continuous-power run breaks the journal invariant", kind, k)
			}
			if rep.Explored != rep.Candidates {
				t.Errorf("%s k=%d: explored %d of %d candidates; the model check must be exhaustive",
					kind, k, rep.Explored, rep.Candidates)
			}
			for _, ds := range rep.Depths {
				if ds.Explored != ds.Candidates {
					t.Errorf("%s k=%d: explored %d of %d candidates at depth %d",
						kind, k, ds.Explored, ds.Candidates, ds.Depth)
				}
			}
			if !rep.Passed() {
				t.Errorf("WAL protocol diverged under %s at k=%d:\n%s", kind, k, rep.Render())
			}
		}
	}
}

// TestWALProtocolCorruptsWithoutAtomicAppend: on a runtime that
// re-executes appends over directly-written journal slots (Alpaca's
// non-WAR variables), the checker must rediscover the torn-journal
// corruption the WAL's frame commit exists to prevent — a replayed
// append observing a different world and double-decoding a record.
func TestWALProtocolCorruptsWithoutAtomicAppend(t *testing.T) {
	rep, err := Run(context.Background(), walFactory, experiments.Alpaca, Config{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("WAL protocol passed under Alpaca; non-atomic appends should corrupt the journal")
	}
	if d := rep.Divergences[0]; d.Kind != "output" {
		t.Errorf("first divergence kind %s (%s), want the CheckOutput journal invariant", d.Kind, d.Detail)
	}
	// The corruption must be reachable from many cuts, not a knife-edge:
	// every failure inside an append's payload-to-commit window replays
	// the sample.
	if frac := float64(len(rep.Divergences)) / float64(rep.Candidates); frac < 0.05 {
		t.Errorf("only %d/%d cuts corrupt the journal; the exposure window should be wide",
			len(rep.Divergences), rep.Candidates)
	}
}

package check

import (
	"context"
	"reflect"
	"testing"

	"easeio/internal/experiments"
)

// TestUnitSplitInvariance pins the pipeline's split invariance at the
// package level: plan a k=2 job, split its units into contiguous groups,
// grow each group in a separate RunUnits (its own golden pass, like a
// remote worker), and merge — the report must be deep-equal to Run's,
// which grows every unit as one group, for every runtime, divergence-free
// or not, in exhaustive and adaptive mode alike (bisection below level 1
// is local to each node).
func TestUnitSplitInvariance(t *testing.T) {
	ctx := context.Background()
	// The sensor app rides along so the split also covers freshness
	// state: its stale-serve record must survive the root checkpoints'
	// extra restore hop and still fold into identical Timely counts.
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
				for _, cfg := range []Config{
					{Failures: 2, Exhaustive: true, Workers: 2},
					{Failures: 2, Grid: 16, Workers: 2},
				} {
					want, err := Run(ctx, app.factory, kind, cfg)
					if err != nil {
						t.Fatal(err)
					}
					p, err := Plan(ctx, app.factory, kind, cfg)
					if err != nil {
						t.Fatal(err)
					}
					// EaseIO-style runtimes collapse fig6's level-1 frontier to
					// a single representative, so the split degenerates to one
					// group, which is itself worth pinning. The baseline
					// runtimes (Alpaca, InK) keep several units and exercise the
					// real multi-group merge.
					groups := p.Split(3)
					t.Logf("exhaustive=%v: %d level-2 units in %d groups", cfg.Exhaustive, len(p.Units), len(groups))
					parts := []UnitReport{p.Level1}
					for _, g := range groups {
						rep, err := RunUnits(ctx, app.factory, kind, cfg, g)
						if err != nil {
							t.Fatal(err)
						}
						parts = append(parts, rep)
					}
					if got := Merge(p.Header, parts); !reflect.DeepEqual(got, want) {
						t.Fatalf("exhaustive=%v: merged report differs from in-process run:\n got %+v\nwant %+v",
							cfg.Exhaustive, got, want)
					}
				}
			})
		}
	}
}

// TestRunUnitsEmpty pins the degenerate contract: an empty group is a
// complete, empty result — workers never error on it.
func TestRunUnitsEmpty(t *testing.T) {
	rep, err := RunUnits(context.Background(), Fig6Bench, allKinds[2],
		Config{Failures: 2, Exhaustive: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Depths) != 0 || len(rep.Divergences) != 0 {
		t.Fatalf("empty unit list produced a non-empty result: %+v", rep)
	}
}

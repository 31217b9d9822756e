package fleet

import (
	"context"
	"strings"
	"testing"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/wire"
)

// taskPtrWord returns the FRAM word of app's persistent task pointer
// under EaseIO, as the attached runtime reports it.
func taskPtrWord(t *testing.T, app string) int {
	t.Helper()
	bench, err := testApps[app]()
	if err != nil {
		t.Fatal(err)
	}
	dev := kernel.NewDevice(power.Continuous{}, 1)
	rt := experiments.NewRuntime(experiments.EaseIO)
	if err := rt.Attach(dev, bench.App); err != nil {
		t.Fatal(err)
	}
	a := rt.TaskPointer()
	if a.Bank != mem.FRAM {
		t.Fatalf("%s: task pointer in %v", app, a.Bank)
	}
	return a.Word
}

// malformedShard plans a k=2 check of app under EaseIO, lets mutate
// damage the first unit's root, and encodes that unit as a fig6 subtree
// shard.
func malformedShard(t *testing.T, app string, cfg check.Config, mutate func(*check.Unit)) []byte {
	t.Helper()
	cfg.Failures = 2
	p, err := check.Plan(context.Background(), testApps[app], experiments.EaseIO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Units) == 0 {
		t.Fatalf("%s: the k=2 plan has no units", app)
	}
	u := p.Units[0]
	mutate(&u)
	return wire.AppendSubtreeShard(nil, wire.SubtreeShard{Job: 1, App: "fig6",
		Runtime: experiments.EaseIO.String(),
		Check:   check.Config{Failures: 2, Exhaustive: true, Workers: 1}, Units: []check.Unit{u}})
}

// TestMalformedUnitFailsShard pins that a unit whose root cannot belong
// to the shard's app fails the shard with an error instead of crashing
// the worker: a runtime state with its slot and task tables emptied, a
// FRAM task-pointer word that names no task, and a root checkpoint
// recorded on a different app's memory layout.
func TestMalformedUnitFailsShard(t *testing.T) {
	ptr := taskPtrWord(t, "fig6")
	for _, tc := range []struct {
		name, app string
		cfg       check.Config
		mutate    func(*check.Unit)
		want      string
	}{
		{"emptied-runtime-tables", "fig6", check.Config{Exhaustive: true},
			func(u *check.Unit) { u.Root.Runtime.Slots, u.Root.Runtime.TaskInst = nil, nil }, "slots"},
		{"fram-task-pointer", "fig6", check.Config{Exhaustive: true},
			func(u *check.Unit) {
				var words [mem.NumBanks][]uint16
				for b := range words {
					words[b] = u.Root.Mem.Words(mem.Bank(b))
				}
				words[mem.FRAM][ptr] = 99
				u.Root.Mem.SetWords(words)
			}, "task pointer"},
		{"foreign-layout", "fir", check.Config{Grid: 4},
			func(*check.Unit) {}, "watermark"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			task := malformedShard(t, tc.app, tc.cfg, tc.mutate)
			_, err := ExecuteShard(context.Background(), testApps, task)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ExecuteShard = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

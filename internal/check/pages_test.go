package check

import (
	"testing"

	"easeio/internal/apps"
	"easeio/internal/experiments"
	"easeio/internal/mem"
)

// TestCheckpointsSharePages pins that a recording pass copies only what
// changed: over the seed-1 golden recording passes of weather and dma
// under every runtime, recorded in the explorer's batches, the pages a
// checkpoint does not share with the one before it stay at most 3% of
// the pages the pass's checkpoints hold. Each batch's first checkpoint
// is counted whole. A regression back to whole copies passes every
// equivalence test; this is the test that notices it.
func TestCheckpointsSharePages(t *testing.T) {
	factories := map[string]experiments.AppFactory{
		"weather": func() (*apps.Bench, error) { return apps.NewWeatherApp(apps.DefaultWeatherConfig()) },
		"dma":     dmaFactory,
	}
	for name, factory := range factories {
		for _, kind := range allKinds {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				p, err := goldenPass(factory, kind, Config{Seed: 1}.Filled())
				if err != nil {
					t.Fatal(err)
				}
				cuts := p.e.cuts
				fresh, total := 0, 0
				for lo := 0; lo < len(cuts); lo += checkpointBatch {
					idxs := make([]int, 0, checkpointBatch)
					for i := lo; i < min(lo+checkpointBatch, len(cuts)); i++ {
						idxs = append(idxs, i)
					}
					cps, err := p.e.rec.record(cuts, idxs)
					if err != nil {
						t.Fatal(err)
					}
					prev := &mem.DeviceSnapshot{}
					for _, cp := range cps {
						f, n := newPages(&cp.Mem, prev)
						prev = &cp.Mem
						fresh += f
						total += n
					}
					ckptRecycle(cps...)
				}
				share := float64(fresh) / float64(total)
				t.Logf("%d checkpoints: %d of %d pages new (%.2f%%)", len(cuts), fresh, total, 100*share)
				if share > 0.03 {
					t.Errorf("%d of %d checkpoint pages are new (%.2f%%), want at most 3%%",
						fresh, total, 100*share)
				}
			})
		}
	}
}

// newPages reports how many of s's pages prev does not hold at the same
// place, and how many pages s holds. A shared page is one page of the
// recording memory's store, so the two snapshots' slices of it start at
// the same word; prev is alive, so none of its pages' storage can hold
// a page of s that it does not share.
func newPages(s, prev *mem.DeviceSnapshot) (fresh, total int) {
	for b := mem.Bank(0); b < mem.Bank(mem.NumBanks); b++ {
		np := (s.Len(b) + mem.PageWords - 1) / mem.PageWords
		for p := 0; p < np; p++ {
			if p*mem.PageWords >= prev.Len(b) || &s.Page(b, p)[0] != &prev.Page(b, p)[0] {
				fresh++
			}
		}
		total += np
	}
	return fresh, total
}

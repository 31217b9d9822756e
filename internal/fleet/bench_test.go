// Fleet overhead benchmark: the same sweep executed in-process
// (experiments.RunMany) and through a WAL-backed coordinator with 1, 2
// and 4 loopback workers, each leg running the engine's default inner
// parallelism. The interesting quantities are the fixed cost of
// journaling + shard dispatch (visible at 1 worker vs in-process) and
// the scaling from adding workers. BENCH_fleet.json tracks the
// datapoints.

package fleet

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"easeio/internal/experiments"
)

// benchSpec is sized so per-shard execution dominates scheduling noise
// but a full benchmark iteration stays in the tens of milliseconds.
var benchSpec = Spec{
	Mode: ModeSweep, App: "fir", Runtime: "EaseIO",
	Runs: 512, BaseSeed: 11, Shards: 8,
}

func BenchmarkFleetSweep(b *testing.B) {
	b.Run("inprocess", func(b *testing.B) {
		// The engine's default worker count, as every fleet shard runs
		// (benchSpec leaves ShardWorkers zero).
		cfg := experiments.Config{Runs: benchSpec.Runs, BaseSeed: benchSpec.BaseSeed}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunMany(cfg, testApps[benchSpec.App], experiments.EaseIO); err != nil {
				b.Fatal(err)
			}
		}
		reportRunRate(b)
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("fleet-%dw", workers), func(b *testing.B) {
			c, err := New(CoordinatorConfig{
				WALPath: filepath.Join(b.TempDir(), "bench.wal"),
				Source:  testApps,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for i := 0; i < workers; i++ {
				go RunLoopback(ctx, c, fmt.Sprintf("bench-%d", i), testApps, 100*time.Microsecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := c.Submit(benchSpec)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Wait(context.Background(), id); err != nil {
					b.Fatal(err)
				}
			}
			reportRunRate(b)
		})
	}
}

func reportRunRate(b *testing.B) {
	b.ReportMetric(float64(benchSpec.Runs)*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
}

package main

// Host-speed normalization. On a shared host the same code runs up to 1.8x
// slower for seconds or minutes at a time (measured on the 2-core
// reference host: other tenants' load on the same physical cores), which
// swamps any change a commit makes. The benchmark therefore times a fixed
// probe next to the work it measures and scales each time by
// probeRef / probe: a measurement taken while the host runs the probe 1.5x
// slower is reported as if the host ran at its reference speed.
//
// The probe is throughput-bound ALU work on every core (the simulator's
// hot loops are too, unlike latency-bound pointer chasing, which barely
// notices the slow periods), it shares no code with the repository, and it
// runs only while no job is in flight, so it measures the host and not the
// benchmark's own load. Which workloads are scaled: workload.hostScaled.

import (
	"runtime"
	"sync"
	"time"
)

// probeRef is the probe's time on the reference host in its fast periods;
// it sets the scale normalized times are reported in.
const probeRef = 500 * time.Microsecond

var probeSink []uint64

// probe returns the fastest of three runs of the kernel: a run that
// overlaps a garbage collection or a goroutine the pass left behind reads
// slow for reasons of the process, not of the host.
func probe() time.Duration {
	best := probeOnce()
	for i := 0; i < 2; i++ {
		best = min(best, probeOnce())
	}
	return best
}

// probeOnce runs the fixed kernel on GOMAXPROCS goroutines and returns the
// wall time they took.
func probeOnce() time.Duration {
	n := runtime.GOMAXPROCS(0)
	sums := make([]uint64, n)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b, c, d := uint64(g+1), uint64(g+2), uint64(g+3), uint64(g+4)
			for i := 0; i < 300_000; i++ {
				a = a*6364136223846793005 + 1442695040888963407
				b ^= b << 13
				b ^= b >> 7
				c += a ^ (c >> 3)
				d = d*31 + b
			}
			sums[g] = a ^ b ^ c ^ d
		}()
	}
	wg.Wait()
	probeSink = sums
	return time.Since(start)
}

// hostScale is the factor that turns a time measured between two probes
// into a reference-speed time.
func hostScale(before, after time.Duration) float64 {
	return 2 * float64(probeRef) / float64(before+after)
}

// Checkpoint recording for the suffix-replay path. Replaying a failure
// point from boot costs the whole prefix again even though every replay
// shares it with the golden run; instead, the recorder re-runs the
// golden continuous pass with a snapshotting CutSink and captures one
// device+runtime checkpoint per pending cut point, which a replayer then
// restores and resumes with the injected failure (kernel.Snapshot /
// kernel.ResumeWithFailure). Rounds are recorded in bounded batches so a
// large exhaustive round holds at most checkpointBatch checkpoints in
// memory at once, and a batch's checkpoints are recycled once its
// replays finish — recording is allocation-free at steady state.

package check

import (
	"fmt"
	"sync"
	"time"

	"easeio/internal/apps"
	"easeio/internal/kernel"
	"easeio/internal/power"
)

// checkpointBatch bounds how many checkpoints one recording pass
// captures. Each batch costs one extra golden pass, which the replays it
// feeds amortize many times over; the bound keeps peak memory
// proportional to the batch, not the round.
const checkpointBatch = 256

// checkpoint pairs a device checkpoint with the runtime's volatile
// state, both captured at the same charge-slice boundary.
type checkpoint struct {
	dev *kernel.Checkpoint
	rt  any
}

// snapSink is the CutSink of a recording pass: at each targeted cut
// on-time it snapshots the device and the runtime. Targets must be
// ascending (cut on-times strictly increase within a run).
type snapSink struct {
	targets []time.Duration // cut on-times to snapshot, ascending
	idxs    []int           // candidate index per target
	next    int
	dev     *kernel.Device
	rt      kernel.Hooks
	cps     map[int]*checkpoint
}

// NoteCut implements kernel.CutSink.
func (s *snapSink) NoteCut(onTime time.Duration) {
	if s.next < len(s.targets) && onTime == s.targets[s.next] {
		cp := ckptGet()
		cp.dev = s.dev.SnapshotInto(cp.dev)
		cp.rt = s.rt.SnapshotState(cp.rt)
		s.cps[s.idxs[s.next]] = cp
		s.next++
	}
}

// newSnapSink builds the sink that snapshots dev and rt at the cut
// on-times cuts[idxs[0]], cuts[idxs[1]], … (idxs ascending).
func newSnapSink(dev *kernel.Device, rt kernel.Hooks, cuts []time.Duration, idxs []int) *snapSink {
	s := &snapSink{
		targets: make([]time.Duration, len(idxs)),
		idxs:    idxs,
		dev:     dev,
		rt:      rt,
		cps:     make(map[int]*checkpoint, len(idxs)),
	}
	for i, idx := range idxs {
		s.targets[i] = cuts[idx]
	}
	return s
}

// recorder re-runs the golden continuous pass once per batch on the
// golden session's own device, runtime and app — the pass reproduces
// the golden run exactly through the same reset path sweeps use
// (Device.Reset + Hooks.Reset + RunAttached).
type recorder struct {
	bench *apps.Bench
	rt    kernel.Hooks
	dev   *kernel.Device
	seed  int64
}

// ckptPool recycles checkpoints (and, through SnapshotInto, their memory
// and stats buffers) across batches and across Run calls. An exhaustive
// round on a small app fits one batch, so a per-recorder free list would
// never see a recycled checkpoint; the process-wide pool is what makes
// recording allocation-free at steady state.
var ckptPool = sync.Pool{New: func() any { return &checkpoint{} }}

// newRecorder wraps the golden pass's already-run device, runtime and
// app for checkpoint-recording re-runs.
func newRecorder(bench *apps.Bench, rt kernel.Hooks, dev *kernel.Device, seed int64) *recorder {
	return &recorder{bench: bench, rt: rt, dev: dev, seed: seed}
}

// ckptGet pops a recycled checkpoint, or allocates a fresh one.
func ckptGet() *checkpoint {
	return ckptPool.Get().(*checkpoint)
}

// ckptRecycle returns a batch's checkpoints to the pool once their
// replays are done. The checkpoints must no longer be referenced. cp.rt
// is kept: the next recording pass's SnapshotState overwrites its
// storage in place instead of reallocating.
func ckptRecycle(cps map[int]*checkpoint) {
	for _, cp := range cps {
		ckptPool.Put(cp)
	}
}

// record re-runs the golden pass and returns one checkpoint per
// requested candidate index (idxs ascending, indexing cuts).
func (r *recorder) record(cuts []time.Duration, idxs []int) (map[int]*checkpoint, error) {
	sink := newSnapSink(r.dev, r.rt, cuts, idxs)
	r.dev.Reset(power.Continuous{}, r.seed)
	if err := r.rt.Reset(r.dev); err != nil {
		return nil, fmt.Errorf("check: recording pass reset: %w", err)
	}
	r.dev.Cuts = sink
	if err := kernel.RunAttached(r.dev, r.rt, r.bench.App); err != nil {
		return nil, fmt.Errorf("check: recording pass: %w", err)
	}
	if sink.next != len(sink.targets) {
		return nil, fmt.Errorf("check: recording pass hit %d of %d cut points — golden run not reproducible",
			sink.next, len(sink.targets))
	}
	return sink.cps, nil
}

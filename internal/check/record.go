// Checkpoint recording for the suffix-replay path. Replaying a failure
// point from boot costs the whole prefix again even though every replay
// shares it with the golden run; instead, the recorder re-runs the
// golden continuous pass with a snapshotting CutSink and captures one
// checkpoint (device and runtime halves) per pending cut point, which a
// replayer then restores and resumes with the injected failure
// (kernel.Device.SnapshotInto / kernel.Session.Resume). Consecutive
// checkpoints of a pass share every memory page the run did not write
// between their cuts, so a checkpoint costs its few changed pages.
// Rounds are recorded in bounded batches so a large exhaustive round
// holds at most checkpointBatch checkpoints in memory at once, and a
// batch's checkpoints are recycled once its replays finish — recording
// is allocation-free at steady state.

package check

import (
	"fmt"
	"sync"
	"time"

	"easeio/internal/kernel"
)

// checkpointBatch bounds how many checkpoints one recording pass
// captures. Each batch costs one extra golden pass, which the replays it
// feeds amortize many times over; the bound keeps peak memory
// proportional to the batch, not the round.
const checkpointBatch = 256

// snapSink is the CutSink of a recording pass: at each targeted cut
// on-time it snapshots the session's device and runtime. Targets must be
// ascending (cut on-times strictly increase within a run).
type snapSink struct {
	targets []time.Duration // cut on-times to snapshot, ascending
	sess    *kernel.Session
	cps     []*kernel.Checkpoint // one per target hit so far
}

// NoteCut implements kernel.CutSink.
func (s *snapSink) NoteCut(onTime time.Duration) {
	if n := len(s.cps); n < len(s.targets) && onTime == s.targets[n] {
		s.cps = append(s.cps, s.sess.Device().SnapshotInto(ckptGet()))
	}
}

// newSnapSink builds the sink that snapshots sess at the cut on-times
// cuts[idxs[0]], cuts[idxs[1]], … (idxs ascending).
func newSnapSink(sess *kernel.Session, cuts []time.Duration, idxs []int) *snapSink {
	s := &snapSink{
		targets: make([]time.Duration, len(idxs)),
		sess:    sess,
		cps:     make([]*kernel.Checkpoint, 0, len(idxs)),
	}
	for i, idx := range idxs {
		s.targets[i] = cuts[idx]
	}
	return s
}

// finish checks that a recording pass hit every target — a miss means
// the recorded trajectory did not reproduce — and hands over its
// checkpoints, parallel to the sink's idxs.
func (s *snapSink) finish(pass, trajectory string) ([]*kernel.Checkpoint, error) {
	if len(s.cps) != len(s.targets) {
		return nil, fmt.Errorf("check: %s hit %d of %d cut points — %s not reproducible",
			pass, len(s.cps), len(s.targets), trajectory)
	}
	return s.cps, nil
}

// recorder re-runs the golden continuous pass once per batch on the
// golden session itself — Session.Run's in-place reset reproduces the
// golden run exactly, as it does every sweep seed.
type recorder struct {
	sess *kernel.Session
	seed int64
}

// ckptPool recycles checkpoints (and, through SnapshotInto, their
// memory, stats and runtime buffers) across batches and across Run
// calls. An exhaustive round on a small app fits one batch, so a
// per-recorder free list would never see a recycled checkpoint; the
// process-wide pool is what makes recording allocation-free at steady
// state.
var ckptPool = sync.Pool{New: func() any { return &kernel.Checkpoint{} }}

// ckptGet pops a recycled checkpoint, or allocates a fresh one.
func ckptGet() *kernel.Checkpoint {
	return ckptPool.Get().(*kernel.Checkpoint)
}

// ckptRecycle returns checkpoints to the pool once their replays are
// done, releasing their memory pages to the store they came from. The
// checkpoints must no longer be referenced; the next recording pass's
// SnapshotInto overwrites their storage in place instead of
// reallocating. Nil entries (from-boot mode) are skipped.
func ckptRecycle(cps ...*kernel.Checkpoint) {
	for _, cp := range cps {
		if cp != nil {
			cp.Mem.Release()
			ckptPool.Put(cp)
		}
	}
}

// record re-runs the golden pass and returns one checkpoint per
// requested candidate index (idxs ascending, indexing cuts), parallel
// to idxs.
func (r *recorder) record(cuts []time.Duration, idxs []int) ([]*kernel.Checkpoint, error) {
	sink := newSnapSink(r.sess, cuts, idxs)
	r.sess.Cuts = sink
	_, err := r.sess.Run(r.seed)
	r.sess.Cuts = nil
	if err != nil {
		return nil, fmt.Errorf("check: recording pass: %w", err)
	}
	return sink.finish("recording pass", "golden run")
}

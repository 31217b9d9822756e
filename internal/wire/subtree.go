// The checker's work unit on the wire. A subtree shard ships a
// contiguous group of units (check.Unit): each a root — boot, or the
// device+runtime checkpoint at the last cut of a passing failure prefix —
// plus the prefix, the number of hash-equal siblings the root stands for,
// and the candidate-index range to explore below it. A stateless worker
// recomputes the golden run, restores the roots and grows their subtrees
// without replaying any prefix. The matching result carries the
// exploration's per-depth stats and divergences; merging results per
// depth in shard order reproduces the unsharded report byte for byte
// (see check.Merge).

package wire

import (
	"time"

	"easeio/internal/check"
	"easeio/internal/rtbase"
)

// Unit is one check work unit. An empty Checkpoint (with an empty
// Schedule and a zero RT) is a boot root; otherwise Checkpoint is an
// embedded KindCheckpoint message (the device half) and RT the runtime's
// bookkeeping state at the same cut. CutLo/CutHi select the root's
// candidate-index range; CutHi == 0 means all of them.
type Unit struct {
	Schedule     []time.Duration
	Collapsed    int
	Checkpoint   []byte
	RT           rtbase.BaseWireState
	CutLo, CutHi int
}

// SubtreeShard describes one worker's slice of a checker job: grow the
// given units under the job's configuration. The worker recomputes the
// golden reference locally — the golden pass is deterministic, so only
// the units themselves need shipping.
type SubtreeShard struct {
	Job     uint64
	Shard   int
	App     string
	Runtime string

	Seed       int64
	Off        time.Duration
	Failures   int // total exploration depth k
	Exhaustive bool
	Grid       int
	Workers    int
	Units      []Unit
}

// SubtreeResult is a worker's completed subtree shard: the per-depth
// stats and divergences of the units' subtrees, in the same
// (depth, unit, candidate) order the in-process checker books them. A
// coordinator also journals its own level-1 exploration in this form.
type SubtreeResult struct {
	Job         uint64
	Shard       int
	Depths      []check.DepthStats
	Divergences []check.Divergence
}

// AppendSubtreeShard encodes s as a KindSubtreeShard message appended to
// dst.
func AppendSubtreeShard(dst []byte, s SubtreeShard) []byte {
	dst = appendHeader(dst, KindSubtreeShard)
	dst = appendUvarint(dst, s.Job)
	dst = appendVarint(dst, int64(s.Shard))
	dst = appendString(dst, s.App)
	dst = appendString(dst, s.Runtime)
	dst = appendVarint(dst, s.Seed)
	dst = appendVarint(dst, int64(s.Off))
	dst = appendVarint(dst, int64(s.Failures))
	dst = appendBool(dst, s.Exhaustive)
	dst = appendVarint(dst, int64(s.Grid))
	dst = appendVarint(dst, int64(s.Workers))
	dst = appendUvarint(dst, uint64(len(s.Units)))
	for _, u := range s.Units {
		dst = appendUvarint(dst, uint64(len(u.Schedule)))
		for _, t := range u.Schedule {
			dst = appendVarint(dst, int64(t))
		}
		dst = appendVarint(dst, int64(u.Collapsed))
		dst = appendUvarint(dst, uint64(len(u.Checkpoint)))
		dst = append(dst, u.Checkpoint...)
		dst = appendBaseWireState(dst, u.RT)
		dst = appendVarint(dst, int64(u.CutLo))
		dst = appendVarint(dst, int64(u.CutHi))
	}
	return dst
}

// DecodeSubtreeShard decodes a KindSubtreeShard message. The units'
// Checkpoint slices are fresh copies — nothing aliases b.
func DecodeSubtreeShard(b []byte) (SubtreeShard, error) {
	d := &dec{b: b}
	d.header(KindSubtreeShard)
	s := SubtreeShard{
		Job:        d.uvarint(),
		Shard:      int(d.varint()),
		App:        d.string(),
		Runtime:    d.string(),
		Seed:       d.varint(),
		Off:        time.Duration(d.varint()),
		Failures:   int(d.varint()),
		Exhaustive: d.bool(),
		Grid:       int(d.varint()),
		Workers:    int(d.varint()),
	}
	// Each unit is at least 8 bytes (empty schedule, collapsed, empty
	// checkpoint, empty base state, cut range).
	if n := d.count(8); d.err == nil && n > 0 {
		s.Units = make([]Unit, n)
		for i := 0; i < n && d.err == nil; i++ {
			u := &s.Units[i]
			if m := d.count(1); d.err == nil && m > 0 {
				u.Schedule = make([]time.Duration, m)
				for j := 0; j < m && d.err == nil; j++ {
					u.Schedule[j] = time.Duration(d.varint())
				}
			}
			u.Collapsed = int(d.varint())
			if m := d.count(1); d.err == nil && m > 0 {
				u.Checkpoint = make([]byte, m)
				copy(u.Checkpoint, d.b[d.off:])
				d.off += m
			}
			u.RT = d.baseWireState()
			u.CutLo = int(d.varint())
			u.CutHi = int(d.varint())
		}
	}
	if d.err != nil {
		return SubtreeShard{}, d.err
	}
	if n := d.remaining(); n != 0 {
		return SubtreeShard{}, d.trailing(n)
	}
	return s, nil
}

// AppendSubtreeResult encodes r as a KindSubtreeResult message appended
// to dst.
func AppendSubtreeResult(dst []byte, r SubtreeResult) []byte {
	dst = appendHeader(dst, KindSubtreeResult)
	dst = appendUvarint(dst, r.Job)
	dst = appendVarint(dst, int64(r.Shard))
	dst = appendDepthStats(dst, r.Depths)
	return appendDivergences(dst, r.Divergences)
}

// DecodeSubtreeResult decodes a KindSubtreeResult message.
func DecodeSubtreeResult(b []byte) (SubtreeResult, error) {
	d := &dec{b: b}
	d.header(KindSubtreeResult)
	r := SubtreeResult{
		Job:   d.uvarint(),
		Shard: int(d.varint()),
	}
	r.Depths = d.depthStats()
	r.Divergences = d.divergences()
	if d.err != nil {
		return SubtreeResult{}, d.err
	}
	if n := d.remaining(); n != 0 {
		return SubtreeResult{}, d.trailing(n)
	}
	return r, nil
}

// appendBaseWireState encodes a runtime bookkeeping snapshot.
func appendBaseWireState(dst []byte, w rtbase.BaseWireState) []byte {
	dst = appendVarint(dst, int64(w.Cur))
	dst = appendUvarint(dst, uint64(len(w.Slots)))
	for _, sl := range w.Slots {
		dst = appendVarint(dst, int64(sl.TaskID))
		dst = appendVarint(dst, int64(sl.TaskInst))
		dst = appendVarint(dst, int64(sl.ExecCount))
		dst = appendBool(dst, sl.Completed)
	}
	dst = appendUvarint(dst, uint64(len(w.TaskInst)))
	for _, ti := range w.TaskInst {
		dst = appendVarint(dst, int64(ti))
	}
	return dst
}

func (d *dec) baseWireState() rtbase.BaseWireState {
	w := rtbase.BaseWireState{Cur: int(d.varint())}
	// Each slot is at least 4 bytes (three varints and a bool).
	if n := d.count(4); d.err == nil && n > 0 {
		w.Slots = make([]rtbase.IOSlotState, n)
		for i := 0; i < n && d.err == nil; i++ {
			w.Slots[i] = rtbase.IOSlotState{
				TaskID:    int32(d.varint()),
				TaskInst:  int32(d.varint()),
				ExecCount: int32(d.varint()),
				Completed: d.bool(),
			}
		}
	}
	if n := d.count(1); d.err == nil && n > 0 {
		w.TaskInst = make([]int32, n)
		for i := 0; i < n && d.err == nil; i++ {
			w.TaskInst[i] = int32(d.varint())
		}
	}
	return w
}

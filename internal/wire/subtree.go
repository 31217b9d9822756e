// The checker's work unit on the wire. A subtree shard ships a
// contiguous group of units (check.Unit): each a root — boot, or the
// checkpoint at the last cut of a passing failure prefix — plus the
// prefix, the number of hash-equal siblings the root stands for, and the
// candidate-index range to explore below it. A stateless worker
// recomputes the golden run, restores the roots and grows their subtrees
// without replaying any prefix. The matching result carries the
// exploration's per-depth stats and divergences; merging results per
// depth in shard order reproduces the unsharded report byte for byte
// (see check.Merge).

package wire

import (
	"time"

	"easeio/internal/check"
	"easeio/internal/kernel"
)

// SubtreeShard describes one worker's slice of a checker job: grow the
// given units under the job's configuration. The worker recomputes the
// golden reference locally — the golden pass is deterministic, so only
// the units themselves need shipping. Check travels as AppendCheckConfig
// plus its Workers: a worker runs exactly the configuration it decodes.
type SubtreeShard struct {
	Job     uint64
	Shard   int
	App     string
	Runtime string
	Check   check.Config
	Units   []check.Unit
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
	dst = AppendCheckConfig(dst, s.Check)
	dst = appendVarint(dst, int64(s.Check.Workers))
	dst = appendUvarint(dst, uint64(len(s.Units)))
	for _, u := range s.Units {
		dst = appendUvarint(dst, uint64(len(u.Schedule)))
		for _, t := range u.Schedule {
			dst = appendVarint(dst, int64(t))
		}
		dst = appendVarint(dst, int64(u.Collapsed))
		dst = appendRoot(dst, u.Root)
		dst = appendVarint(dst, int64(u.CutLo))
		dst = appendVarint(dst, int64(u.CutHi))
	}
	return dst
}

// DecodeSubtreeShard decodes a KindSubtreeShard message, validating
// every unit's root checkpoint. Nothing in the result aliases b.
func DecodeSubtreeShard(b []byte) (SubtreeShard, error) {
	d := &dec{b: b}
	d.header(KindSubtreeShard)
	s := SubtreeShard{
		Job:     d.uvarint(),
		Shard:   int(d.varint()),
		App:     d.string(),
		Runtime: d.string(),
		Check:   d.checkConfig(),
	}
	s.Check.Workers = int(d.varint())
	// Each unit is at least 5 bytes (empty schedule, collapsed, boot
	// root, cut range).
	if n := d.count(5); d.err == nil && n > 0 {
		s.Units = make([]check.Unit, n)
		for i := 0; i < n && d.err == nil; i++ {
			u := &s.Units[i]
			if m := d.count(1); d.err == nil && m > 0 {
				u.Schedule = make([]time.Duration, m)
				for j := 0; j < m && d.err == nil; j++ {
					u.Schedule[j] = time.Duration(d.varint())
				}
			}
			u.Collapsed = int(d.varint())
			u.Root = d.root()
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

// appendRoot encodes a unit's root as an embedded, length-prefixed
// KindCheckpoint message, empty for a boot root.
func appendRoot(dst []byte, cp *kernel.Checkpoint) []byte {
	if cp == nil {
		return appendUvarint(dst, 0)
	}
	msg := AppendCheckpoint(nil, cp)
	dst = appendUvarint(dst, uint64(len(msg)))
	return append(dst, msg...)
}

// root decodes appendRoot's encoding.
func (d *dec) root() *kernel.Checkpoint {
	m := d.count(1)
	if d.err != nil || m == 0 {
		return nil
	}
	cp, err := DecodeCheckpoint(d.b[d.off : d.off+m])
	if err != nil {
		d.fail("unit root: %v", err)
		return nil
	}
	d.off += m
	return cp
}

package wire

import (
	"time"

	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/stats"
	"easeio/internal/units"
)

// AppendCheckpoint encodes cp, device and runtime halves, as a
// KindCheckpoint message appended to dst.
func AppendCheckpoint(dst []byte, cp *kernel.Checkpoint) []byte {
	dst = appendHeader(dst, KindCheckpoint)

	// Memory snapshot: per-bank written prefix (its length is the bank's
	// high-water mark), flattened from its pages, and allocator
	// watermark, under one bank-count prefix.
	m := &cp.Mem
	dst = appendUvarint(dst, uint64(mem.NumBanks))
	for b := mem.Bank(0); b < mem.Bank(mem.NumBanks); b++ {
		n := m.Len(b)
		dst = appendUvarint(dst, uint64(n))
		for p := 0; p*mem.PageWords < n; p++ {
			dst = appendWords(dst, m.Page(b, p))
		}
		dst = appendVarint(dst, int64(m.Alloc[b]))
	}

	// Clock.
	dst = appendVarint(dst, int64(cp.Clock.Wall))
	dst = appendVarint(dst, int64(cp.Clock.Uptime))
	dst = appendVarint(dst, int64(cp.Clock.OnTime))
	dst = appendVarint(dst, int64(cp.Clock.Boots))

	// Ledger.
	for _, t := range cp.Ledger.Committed {
		dst = appendTotals(dst, t)
	}
	for _, t := range cp.Ledger.Pending {
		dst = appendTotals(dst, t)
	}

	// Run record and randomness position.
	dst = appendRun(dst, cp.Run)
	dst = appendVarint(dst, cp.RandSeed)
	dst = appendUvarint(dst, cp.RandDraws)

	// Runtime half: I/O slots, then task instance counters.
	rs := &cp.Runtime
	dst = appendUvarint(dst, uint64(len(rs.Slots)))
	for _, sl := range rs.Slots {
		dst = appendVarint(dst, int64(sl.TaskID))
		dst = appendVarint(dst, int64(sl.TaskInst))
		dst = appendVarint(dst, int64(sl.ExecCount))
		dst = appendBool(dst, sl.Completed)
	}
	dst = appendUvarint(dst, uint64(len(rs.TaskInst)))
	for _, ti := range rs.TaskInst {
		dst = appendVarint(dst, int64(ti))
	}
	return dst
}

// DecodeCheckpoint decodes a KindCheckpoint message into a restorable
// checkpoint and validates it (kernel.Checkpoint.Validate). Nothing in
// the result aliases b.
func DecodeCheckpoint(b []byte) (*kernel.Checkpoint, error) {
	d := &dec{b: b}
	d.header(KindCheckpoint)

	cp := &kernel.Checkpoint{}
	// Each bank contributes at least 2 bytes (empty words + 1 int).
	if banks := d.count(2); d.err == nil && banks != mem.NumBanks {
		d.fail("checkpoint has %d memory banks, want %d", banks, mem.NumBanks)
	}
	m := &cp.Mem
	var words [mem.NumBanks][]uint16
	for b := 0; b < mem.NumBanks && d.err == nil; b++ {
		words[b] = d.words()
		m.Alloc[b] = int(d.varint())
	}
	m.SetWords(words)

	cp.Clock.Wall = time.Duration(d.varint())
	cp.Clock.Uptime = time.Duration(d.varint())
	cp.Clock.OnTime = time.Duration(d.varint())
	cp.Clock.Boots = int(d.varint())

	for i := range cp.Ledger.Committed {
		cp.Ledger.Committed[i] = d.totals()
	}
	for i := range cp.Ledger.Pending {
		cp.Ledger.Pending[i] = d.totals()
	}

	cp.Run = d.run()
	cp.RandSeed = d.varint()
	cp.RandDraws = d.uvarint()

	rs := &cp.Runtime
	// Each slot is at least 4 bytes (three varints and a bool).
	if n := d.count(4); d.err == nil && n > 0 {
		rs.Slots = make([]kernel.IOSlot, n)
		for i := 0; i < n && d.err == nil; i++ {
			rs.Slots[i] = kernel.IOSlot{
				TaskID:    int32(d.varint()),
				TaskInst:  int32(d.varint()),
				ExecCount: int32(d.varint()),
				Completed: d.bool(),
			}
		}
	}
	if n := d.count(1); d.err == nil && n > 0 {
		rs.TaskInst = make([]int32, n)
		for i := 0; i < n && d.err == nil; i++ {
			rs.TaskInst[i] = int32(d.varint())
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if n := d.remaining(); n != 0 {
		return nil, d.trailing(n)
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return cp, nil
}

// Shared sub-encodings.

func appendTotals(b []byte, t stats.Totals) []byte {
	b = appendVarint(b, int64(t.T))
	return appendVarint(b, int64(t.E))
}

func (d *dec) totals() stats.Totals {
	return stats.Totals{T: time.Duration(d.varint()), E: units.Energy(d.varint())}
}

func (d *dec) trailing(n int) error {
	d.fail("%d trailing bytes after message", n)
	return d.err
}

// appendRun encodes a run record.
func appendRun(b []byte, r *stats.Run) []byte {
	b = appendString(b, r.App)
	b = appendString(b, r.Runtime)
	b = appendVarint(b, r.Seed)
	for _, t := range r.Work {
		b = appendTotals(b, t)
	}
	b = appendVarint(b, int64(r.PowerFailures))
	b = appendVarint(b, int64(r.TaskAttempts))
	b = appendVarint(b, int64(r.TaskCommits))
	b = appendVarint(b, int64(r.IOExecs))
	b = appendVarint(b, int64(r.IORepeats))
	b = appendVarint(b, int64(r.IOSkips))
	b = appendVarint(b, int64(r.DMAExecs))
	b = appendVarint(b, int64(r.DMARepeats))
	b = appendVarint(b, int64(r.DMASkips))
	b = appendVarint(b, int64(r.WallTime))
	b = appendVarint(b, int64(r.OnTime))
	// Freshness record: per-site sample clocks (NoSample encodes like any
	// other duration) and the staleness violations.
	b = appendUvarint(b, uint64(len(r.Samples)))
	for _, at := range r.Samples {
		b = appendVarint(b, int64(at))
	}
	b = appendUvarint(b, uint64(len(r.Stale)))
	for _, ev := range r.Stale {
		b = appendString(b, ev.Site)
		b = appendVarint(b, int64(ev.Age))
		b = appendVarint(b, int64(ev.Bound))
		b = appendVarint(b, int64(ev.At))
	}
	b = appendBool(b, r.Correct)
	return appendBool(b, r.Stuck)
}

func (d *dec) run() *stats.Run {
	r := &stats.Run{}
	r.App = d.string()
	r.Runtime = d.string()
	r.Seed = d.varint()
	for i := range r.Work {
		r.Work[i] = d.totals()
	}
	r.PowerFailures = int(d.varint())
	r.TaskAttempts = int(d.varint())
	r.TaskCommits = int(d.varint())
	r.IOExecs = int(d.varint())
	r.IORepeats = int(d.varint())
	r.IOSkips = int(d.varint())
	r.DMAExecs = int(d.varint())
	r.DMARepeats = int(d.varint())
	r.DMASkips = int(d.varint())
	r.WallTime = time.Duration(d.varint())
	r.OnTime = time.Duration(d.varint())
	// Each sample clock is at least 1 byte.
	if n := d.count(1); d.err == nil && n > 0 {
		r.Samples = make([]time.Duration, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.Samples[i] = time.Duration(d.varint())
		}
	}
	// Each stale event is at least 4 bytes (empty site + 3 durations).
	if n := d.count(4); d.err == nil && n > 0 {
		r.Stale = make([]stats.StaleEvent, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.Stale[i] = stats.StaleEvent{
				Site:  d.string(),
				Age:   time.Duration(d.varint()),
				Bound: time.Duration(d.varint()),
				At:    time.Duration(d.varint()),
			}
		}
	}
	r.Correct = d.bool()
	r.Stuck = d.bool()
	if d.err != nil {
		return nil
	}
	return r
}

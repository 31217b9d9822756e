package wire

import (
	"time"

	"easeio/internal/check"
	"easeio/internal/stats"
	"easeio/internal/units"
)

// SweepShard describes one worker's slice of a sweep job: run seeds
// BaseSeed+Lo … BaseSeed+Hi-1 of App under Runtime. Shards partition
// [0, Runs) contiguously; merging the shards' aggregators in Shard order
// reproduces the sequential fold byte for byte.
type SweepShard struct {
	Job     uint64
	Shard   int
	App     string
	Runtime string // experiments.RuntimeKind name, parsed by the worker

	BaseSeed int64
	Lo, Hi   int // seed-index range [Lo, Hi)
	Workers  int // the worker's inner parallelism (0 = its default)
}

// SweepResult is a worker's completed sweep shard: the aggregator over
// exactly the shard's seed range, plus any per-run errors.
type SweepResult struct {
	Job   uint64
	Shard int
	Agg   stats.Aggregator
	Errs  []string
}

// AppendSweepShard encodes s as a KindSweepShard message appended to dst.
func AppendSweepShard(dst []byte, s SweepShard) []byte {
	dst = appendHeader(dst, KindSweepShard)
	dst = appendUvarint(dst, s.Job)
	dst = appendVarint(dst, int64(s.Shard))
	dst = appendString(dst, s.App)
	dst = appendString(dst, s.Runtime)
	dst = appendVarint(dst, s.BaseSeed)
	dst = appendVarint(dst, int64(s.Lo))
	dst = appendVarint(dst, int64(s.Hi))
	return appendVarint(dst, int64(s.Workers))
}

// DecodeSweepShard decodes a KindSweepShard message.
func DecodeSweepShard(b []byte) (SweepShard, error) {
	d := &dec{b: b}
	d.header(KindSweepShard)
	s := SweepShard{
		Job:      d.uvarint(),
		Shard:    int(d.varint()),
		App:      d.string(),
		Runtime:  d.string(),
		BaseSeed: d.varint(),
		Lo:       int(d.varint()),
		Hi:       int(d.varint()),
		Workers:  int(d.varint()),
	}
	if d.err != nil {
		return SweepShard{}, d.err
	}
	if n := d.remaining(); n != 0 {
		return SweepShard{}, d.trailing(n)
	}
	return s, nil
}

// AppendSweepResult encodes r as a KindSweepResult message appended to
// dst.
func AppendSweepResult(dst []byte, r SweepResult) []byte {
	dst = appendHeader(dst, KindSweepResult)
	dst = appendUvarint(dst, r.Job)
	dst = appendVarint(dst, int64(r.Shard))
	dst = appendAggregator(dst, r.Agg)
	dst = appendUvarint(dst, uint64(len(r.Errs)))
	for _, e := range r.Errs {
		dst = appendString(dst, e)
	}
	return dst
}

// DecodeSweepResult decodes a KindSweepResult message.
func DecodeSweepResult(b []byte) (SweepResult, error) {
	d := &dec{b: b}
	d.header(KindSweepResult)
	r := SweepResult{
		Job:   d.uvarint(),
		Shard: int(d.varint()),
		Agg:   d.aggregator(),
	}
	if n := d.count(1); d.err == nil && n > 0 {
		r.Errs = make([]string, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.Errs[i] = d.string()
		}
	}
	if d.err != nil {
		return SweepResult{}, d.err
	}
	if n := d.remaining(); n != 0 {
		return SweepResult{}, d.trailing(n)
	}
	return r, nil
}

// appendDepthStats encodes a per-depth exploration stats list (shared by
// subtree results and merged reports).
func appendDepthStats(dst []byte, depths []check.DepthStats) []byte {
	dst = appendUvarint(dst, uint64(len(depths)))
	for _, ds := range depths {
		dst = appendVarint(dst, int64(ds.Depth))
		dst = appendVarint(dst, int64(ds.Expanded))
		dst = appendVarint(dst, int64(ds.Collapsed))
		dst = appendVarint(dst, int64(ds.Candidates))
		dst = appendVarint(dst, int64(ds.Explored))
		dst = appendVarint(dst, int64(ds.Pruned))
	}
	return dst
}

func (d *dec) depthStats() []check.DepthStats {
	// Each depth entry is 6 varints, at least 6 bytes.
	n := d.count(6)
	if d.err != nil || n == 0 {
		return nil
	}
	depths := make([]check.DepthStats, n)
	for i := 0; i < n && d.err == nil; i++ {
		depths[i] = check.DepthStats{
			Depth:      int(d.varint()),
			Expanded:   int(d.varint()),
			Collapsed:  int(d.varint()),
			Candidates: int(d.varint()),
			Explored:   int(d.varint()),
			Pruned:     int(d.varint()),
		}
	}
	return depths
}

// appendDivergences encodes a divergence list (shared by subtree results
// and merged reports).
func appendDivergences(dst []byte, divs []check.Divergence) []byte {
	dst = appendUvarint(dst, uint64(len(divs)))
	for _, dv := range divs {
		dst = appendVarint(dst, int64(dv.At))
		dst = appendVarint(dst, int64(dv.Index))
		dst = appendString(dst, dv.Kind)
		dst = appendString(dst, dv.Detail)
		dst = appendUvarint(dst, uint64(len(dv.Schedule)))
		for _, t := range dv.Schedule {
			dst = appendVarint(dst, int64(t))
		}
	}
	return dst
}

func (d *dec) divergences() []check.Divergence {
	// Each divergence is at least 5 bytes (two varints, two empty
	// strings, an empty schedule).
	n := d.count(5)
	if d.err != nil || n == 0 {
		return nil
	}
	divs := make([]check.Divergence, n)
	for i := 0; i < n && d.err == nil; i++ {
		divs[i] = check.Divergence{
			At:     time.Duration(d.varint()),
			Index:  int(d.varint()),
			Kind:   d.string(),
			Detail: d.string(),
		}
		if m := d.count(1); d.err == nil && m > 0 {
			divs[i].Schedule = make([]time.Duration, m)
			for j := 0; j < m && d.err == nil; j++ {
				divs[i].Schedule[j] = time.Duration(d.varint())
			}
		}
	}
	return divs
}

// Aggregator fold state (the sweep merge unit), field by field in
// declaration order.

func appendAggregator(b []byte, a stats.Aggregator) []byte {
	b = appendString(b, a.App)
	b = appendString(b, a.Runtime)
	b = appendVarint(b, int64(a.Runs))
	for _, t := range a.Work {
		b = appendTotals(b, t)
	}
	b = appendVarint(b, int64(a.Energy))
	b = appendVarint(b, int64(a.OnTime))
	b = appendVarint(b, int64(a.WallTime))
	b = appendVarint(b, int64(a.PowerFailures))
	b = appendVarint(b, int64(a.IOExecs))
	b = appendVarint(b, int64(a.IORepeats))
	b = appendVarint(b, int64(a.IOSkips))
	b = appendVarint(b, int64(a.DMAExecs))
	b = appendVarint(b, int64(a.DMARepeats))
	b = appendVarint(b, int64(a.DMASkips))
	b = appendVarint(b, int64(a.Correct))
	b = appendVarint(b, int64(a.Incorrect))
	b = appendVarint(b, int64(a.Stuck))
	b = appendUvarint(b, uint64(len(a.Totals)))
	for _, t := range a.Totals {
		b = appendVarint(b, int64(t))
	}
	return b
}

func (d *dec) aggregator() stats.Aggregator {
	var a stats.Aggregator
	a.App = d.string()
	a.Runtime = d.string()
	a.Runs = int(d.varint())
	for i := range a.Work {
		a.Work[i] = d.totals()
	}
	a.Energy = units.Energy(d.varint())
	a.OnTime = time.Duration(d.varint())
	a.WallTime = time.Duration(d.varint())
	a.PowerFailures = int(d.varint())
	a.IOExecs = int(d.varint())
	a.IORepeats = int(d.varint())
	a.IOSkips = int(d.varint())
	a.DMAExecs = int(d.varint())
	a.DMARepeats = int(d.varint())
	a.DMASkips = int(d.varint())
	a.Correct = int(d.varint())
	a.Incorrect = int(d.varint())
	a.Stuck = int(d.varint())
	if n := d.count(1); d.err == nil && n > 0 {
		a.Totals = make([]time.Duration, n)
		for i := 0; i < n && d.err == nil; i++ {
			a.Totals[i] = time.Duration(d.varint())
		}
	}
	return a
}

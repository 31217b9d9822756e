// Package stats defines the measurement records the simulator produces and
// the aggregation used by the experiment harnesses.
//
// The paper's five metrics (§5.2) map onto these records as follows:
// wasted work → the Wasted bucket; energy consumption → the energy ledger;
// execution correctness → Correct; runtime overhead → the Overhead bucket;
// memory overhead → the allocator report in internal/experiments.
package stats

import (
	"fmt"
	"sort"
	"time"

	"easeio/internal/units"
)

// Bucket classifies charged work.
type Bucket uint8

const (
	// App is useful application work that was committed.
	App Bucket = iota
	// Overhead is runtime bookkeeping (privatization, commits, flag
	// checks, timestamps) that was committed.
	Overhead
	// Wasted is work lost to power failures: everything charged during an
	// attempt that did not commit.
	Wasted

	// NumBuckets is the number of work buckets.
	NumBuckets
)

// String names the bucket as the paper's figures do.
func (b Bucket) String() string {
	switch b {
	case App:
		return "App"
	case Overhead:
		return "Overhead"
	case Wasted:
		return "Wasted"
	default:
		return fmt.Sprintf("Bucket(%d)", uint8(b))
	}
}

// Totals is a (time, energy) pair.
type Totals struct {
	T time.Duration
	E units.Energy
}

// Add accumulates o into t.
func (t *Totals) Add(o Totals) {
	t.T += o.T
	t.E += o.E
}

// Sub returns t − o.
func (t Totals) Sub(o Totals) Totals { return Totals{t.T - o.T, t.E - o.E} }

// Run records one complete execution of one application under one runtime.
type Run struct {
	App     string
	Runtime string
	Seed    int64

	// Work holds committed totals per bucket.
	Work [NumBuckets]Totals

	// PowerFailures counts reboots forced by the supply.
	PowerFailures int
	// TaskAttempts counts task executions started; TaskCommits counts
	// those that reached their transition.
	TaskAttempts int
	TaskCommits  int

	// IOExecs counts peripheral operations actually performed; IORepeats
	// counts the subset that re-did an operation a previous energy cycle
	// had already completed (the paper's "redundant I/O"); IOSkips counts
	// operations EaseIO avoided thanks to re-execution semantics.
	IOExecs   int
	IORepeats int
	IOSkips   int

	// DMAExecs/DMARepeats/DMASkips mirror the I/O counters for DMA
	// transfers.
	DMAExecs   int
	DMARepeats int
	DMASkips   int

	// Samples records, per freshness-bounded I/O site ID, the wall-clock
	// time the site's value was last physically sampled (NoSample before
	// the first execution). The slice is grown lazily, so apps without
	// freshness bounds never allocate it. Re-execution skips keep the old
	// sample time — that is exactly the staleness the freshness oracle
	// measures.
	Samples []time.Duration
	// Stale lists every freshness-bound violation in commit order: a
	// task commit consumed a sampled input older than its declared
	// staleness bound.
	Stale []StaleEvent

	// WallTime is total simulated wall-clock time (on + off); OnTime is
	// the powered-on portion (the "execution time" in Figures 7 and 10).
	WallTime time.Duration
	OnTime   time.Duration

	// Correct reports whether the run's output matched the golden
	// (continuous-power) result. Stuck is set when an energy-driven run
	// could not recharge and was abandoned.
	Correct bool
	Stuck   bool
}

// NoSample marks a freshness-bounded site that has not executed yet in
// Run.Samples.
const NoSample = time.Duration(-1)

// StaleEvent is one freshness-bound violation: a task commit consumed an
// input sampled longer ago than the site's declared bound allows. Off
// durations count against the bound — that is the point: memory can be
// perfectly consistent while the data it holds has gone stale across a
// recharge.
type StaleEvent struct {
	// Site is the I/O site's name.
	Site string
	// Age is the input's age at consumption (commit time − sample time);
	// Bound is the site's declared staleness bound.
	Age   time.Duration
	Bound time.Duration
	// At is the consuming commit's wall-clock time.
	At time.Duration
}

// SampleAt returns the site's last sample time, or NoSample.
func (r *Run) SampleAt(siteID int) time.Duration {
	if siteID >= len(r.Samples) {
		return NoSample
	}
	return r.Samples[siteID]
}

// NoteSample records the site's physical execution at wall-clock time t.
func (r *Run) NoteSample(siteID int, t time.Duration) {
	for len(r.Samples) <= siteID {
		r.Samples = append(r.Samples, NoSample)
	}
	r.Samples[siteID] = t
}

// NoteStale appends one freshness-bound violation.
func (r *Run) NoteStale(site string, age, bound, at time.Duration) {
	r.Stale = append(r.Stale, StaleEvent{Site: site, Age: age, Bound: bound, At: at})
}

// Clone returns an independent deep copy of the run (Samples and Stale
// are the reference fields). Device checkpoints hold clones so
// that restoring the same checkpoint twice never aliases counters
// between replays.
func (r *Run) Clone() *Run { return r.CloneInto(nil) }

// CloneInto deep-copies r into dst, reusing dst's slice storage when
// possible; a nil dst allocates. It returns the copy. A nil slice stays
// nil, so a cloned record's shape matches a freshly allocated one
// regardless of what the reused storage held before.
func (r *Run) CloneInto(dst *Run) *Run {
	if dst == nil {
		dst = &Run{}
	}
	samples := dst.Samples
	stale := dst.Stale
	*dst = *r
	dst.Samples, dst.Stale = nil, nil
	if r.Samples != nil {
		dst.Samples = append(samples[:0], r.Samples...)
	}
	if r.Stale != nil {
		dst.Stale = append(stale[:0], r.Stale...)
	}
	return dst
}

// ResetForRun rewinds r to the state a fresh &Run{Seed: seed} would
// have, reusing the Samples array (truncated) when it was already
// allocated — the pooled-session path resets one Run record per device
// instead of allocating one per run. It stays attached only on records
// that sampled a freshness-bounded site before, so for any given app the
// record's shape after a run matches a freshly allocated one.
func (r *Run) ResetForRun(seed int64) {
	samples := r.Samples
	*r = Run{Seed: seed}
	if samples != nil {
		r.Samples = samples[:0]
	}
}

// TotalEnergy returns the energy committed across all buckets.
func (r *Run) TotalEnergy() units.Energy {
	var e units.Energy
	for _, w := range r.Work {
		e += w.E
	}
	return e
}

// Summary is the aggregate of many runs (the paper averages 1000 seeded
// executions per configuration, §5.3).
type Summary struct {
	App     string
	Runtime string
	Runs    int

	// Mean work per bucket.
	Work [NumBuckets]Totals

	// Sums of the run counters (Table 4 reports sums over all runs).
	PowerFailures int
	IOExecs       int
	IORepeats     int
	IOSkips       int
	DMAExecs      int
	DMARepeats    int
	DMASkips      int

	// MeanEnergy is the average total committed energy per run.
	MeanEnergy units.Energy
	// MeanOnTime is the average powered-on execution time per run.
	MeanOnTime time.Duration
	// MeanWallTime is the average wall-clock time per run, including
	// recharge (off) periods — the time-to-completion a harvested
	// deployment observes (Figure 13).
	MeanWallTime time.Duration
	// P50TotalTime and P95TotalTime are percentiles of per-run committed
	// total time — the tail a deployment provisions for.
	P50TotalTime, P95TotalTime time.Duration

	// CorrectRuns / IncorrectRuns split the runs by output correctness
	// (Figure 12).
	CorrectRuns   int
	IncorrectRuns int
	StuckRuns     int
}

// Aggregator folds runs into a Summary incrementally, so a sweep over
// thousands of seeds never retains the per-run records: only the running
// sums plus one committed-total-time word per run (for the percentiles)
// survive each Add. Aggregators merge, which lets sharded sweeps fold
// per-worker and combine at the end.
//
// The exported fields are the whole fold state: a fleet sweep shard
// ships its Aggregator as-is (wire.SweepResult) and the coordinator
// merges the shards in shard order, reproducing a single-process sweep
// over the same seeds byte for byte.
//
// All added runs must share the same app and runtime (adopted from the
// first run); Add panics otherwise, since mixing configurations is a
// harness bug. Every fold — Add and Merge alike — is a sum or an append,
// so the final Summary depends only on the order totals are appended in,
// not on how the runs were partitioned across aggregators.
type Aggregator struct {
	App     string
	Runtime string
	Runs    int

	Work             [NumBuckets]Totals
	Energy           units.Energy
	OnTime, WallTime time.Duration

	PowerFailures int
	IOExecs       int
	IORepeats     int
	IOSkips       int
	DMAExecs      int
	DMARepeats    int
	DMASkips      int

	Correct   int
	Incorrect int
	Stuck     int

	// Totals holds each run's committed total time, in Add order (the
	// percentile inputs).
	Totals []time.Duration
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Add folds one run into the aggregate.
func (a *Aggregator) Add(r *Run) {
	if a.Runs == 0 {
		a.App, a.Runtime = r.App, r.Runtime
	} else if r.App != a.App || r.Runtime != a.Runtime {
		panic(fmt.Sprintf("stats: mixed aggregate: %s/%s vs %s/%s",
			r.App, r.Runtime, a.App, a.Runtime))
	}
	a.Runs++
	for b := Bucket(0); b < NumBuckets; b++ {
		a.Work[b].Add(r.Work[b])
	}
	a.Energy += r.TotalEnergy()
	a.OnTime += r.OnTime
	a.WallTime += r.WallTime
	a.PowerFailures += r.PowerFailures
	a.IOExecs += r.IOExecs
	a.IORepeats += r.IORepeats
	a.IOSkips += r.IOSkips
	a.DMAExecs += r.DMAExecs
	a.DMARepeats += r.DMARepeats
	a.DMASkips += r.DMASkips
	if r.Stuck {
		a.Stuck++
	} else if r.Correct {
		a.Correct++
	} else {
		a.Incorrect++
	}
	a.Totals = append(a.Totals, r.Work[App].T+r.Work[Overhead].T+r.Work[Wasted].T)
}

// Merge folds aggregator o into a, as if o's runs had been added to a in
// their original order. Merging shard aggregators in shard order therefore
// reproduces the sequential fold exactly.
func (a *Aggregator) Merge(o *Aggregator) {
	if o.Runs == 0 {
		return
	}
	if a.Runs == 0 {
		a.App, a.Runtime = o.App, o.Runtime
	} else if o.App != a.App || o.Runtime != a.Runtime {
		panic(fmt.Sprintf("stats: mixed aggregate: %s/%s vs %s/%s",
			o.App, o.Runtime, a.App, a.Runtime))
	}
	a.Runs += o.Runs
	for b := Bucket(0); b < NumBuckets; b++ {
		a.Work[b].Add(o.Work[b])
	}
	a.Energy += o.Energy
	a.OnTime += o.OnTime
	a.WallTime += o.WallTime
	a.PowerFailures += o.PowerFailures
	a.IOExecs += o.IOExecs
	a.IORepeats += o.IORepeats
	a.IOSkips += o.IOSkips
	a.DMAExecs += o.DMAExecs
	a.DMARepeats += o.DMARepeats
	a.DMASkips += o.DMASkips
	a.Correct += o.Correct
	a.Incorrect += o.Incorrect
	a.Stuck += o.Stuck
	a.Totals = append(a.Totals, o.Totals...)
}

// Summary finalizes the aggregate. The aggregator stays usable: more runs
// can be added and Summary called again.
func (a *Aggregator) Summary() Summary {
	if a.Runs == 0 {
		return Summary{}
	}
	s := Summary{
		App:           a.App,
		Runtime:       a.Runtime,
		Runs:          a.Runs,
		PowerFailures: a.PowerFailures,
		IOExecs:       a.IOExecs,
		IORepeats:     a.IORepeats,
		IOSkips:       a.IOSkips,
		DMAExecs:      a.DMAExecs,
		DMARepeats:    a.DMARepeats,
		DMASkips:      a.DMASkips,
		CorrectRuns:   a.Correct,
		IncorrectRuns: a.Incorrect,
		StuckRuns:     a.Stuck,
	}
	n := int64(a.Runs)
	for b := Bucket(0); b < NumBuckets; b++ {
		s.Work[b] = Totals{a.Work[b].T / time.Duration(n), a.Work[b].E / units.Energy(n)}
	}
	s.MeanEnergy = a.Energy / units.Energy(n)
	s.MeanOnTime = a.OnTime / time.Duration(n)
	s.MeanWallTime = a.WallTime / time.Duration(n)

	totals := make([]time.Duration, len(a.Totals))
	copy(totals, a.Totals)
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	s.P50TotalTime = percentile(totals, 50)
	s.P95TotalTime = percentile(totals, 95)
	return s
}

// MeanTotalTime returns the mean committed time across buckets — the total
// bar height in Figures 7 and 10.
func (s Summary) MeanTotalTime() time.Duration {
	return s.Work[App].T + s.Work[Overhead].T + s.Work[Wasted].T
}

// WastedRatio returns wasted work time as a fraction of useful app work
// time — the efficiency headline a serving deployment watches (the
// paper's wasted-work reduction, as a single gauge). Zero app work yields
// zero.
func (s Summary) WastedRatio() float64 {
	if s.Work[App].T == 0 {
		return 0
	}
	return float64(s.Work[Wasted].T) / float64(s.Work[App].T)
}

// OverheadRatio returns runtime-overhead time as a fraction of useful app
// work time. Zero app work yields zero.
func (s Summary) OverheadRatio() float64 {
	if s.Work[App].T == 0 {
		return 0
	}
	return float64(s.Work[Overhead].T) / float64(s.Work[App].T)
}

// percentile returns the p-th percentile (nearest-rank) of a sorted slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

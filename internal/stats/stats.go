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

	// PerSite maps I/O site names to execution counts.
	PerSite map[string]int

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

// Clone returns an independent deep copy of the run (PerSite, Samples
// and Stale are the reference fields). Device checkpoints hold clones so
// that restoring the same checkpoint twice never aliases counters
// between replays.
func (r *Run) Clone() *Run { return r.CloneInto(nil) }

// CloneInto deep-copies r into dst, reusing dst's PerSite map and slice
// storage when possible; a nil dst allocates. It returns the copy.
func (r *Run) CloneInto(dst *Run) *Run {
	if dst == nil {
		dst = &Run{}
	}
	per := dst.PerSite
	samples := dst.Samples
	stale := dst.Stale
	*dst = *r
	dst.PerSite = nil
	if r.PerSite != nil {
		if per == nil {
			per = make(map[string]int, len(r.PerSite))
		} else {
			clear(per)
		}
		for k, v := range r.PerSite {
			per[k] = v
		}
		dst.PerSite = per
	}
	// Mirror the PerSite rule for the slices: nil stays nil, so a cloned
	// record's shape matches a freshly allocated one regardless of what
	// the reused storage held before.
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
// have, reusing the PerSite map (cleared in place) and the Samples array
// (truncated) when they were already allocated — the pooled-session path
// resets one Run record per device instead of allocating one per run.
// Both stay attached only on records that counted I/O or sampled a
// freshness-bounded site before, so for any given app the record's
// shape after a run matches a freshly allocated one.
func (r *Run) ResetForRun(seed int64) {
	per, samples := r.PerSite, r.Samples
	*r = Run{Seed: seed}
	if per != nil {
		clear(per)
		r.PerSite = per
	}
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

// CountIO increments the per-site execution counter.
func (r *Run) CountIO(site string) {
	if r.PerSite == nil {
		r.PerSite = make(map[string]int)
	}
	r.PerSite[site]++
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
// All added runs must share the same app and runtime (adopted from the
// first run); Add panics otherwise, since mixing configurations is a
// harness bug. Every fold — Add and Merge alike — is a sum or an append,
// so the final Summary depends only on the order totals are appended in,
// not on how the runs were partitioned across aggregators.
type Aggregator struct {
	app     string
	runtime string
	n       int

	work             [NumBuckets]Totals
	energy           units.Energy
	onTime, wallTime time.Duration

	powerFailures int
	ioExecs       int
	ioRepeats     int
	ioSkips       int
	dmaExecs      int
	dmaRepeats    int
	dmaSkips      int

	correct   int
	incorrect int
	stuck     int

	// totals holds each run's committed total time, in Add order.
	totals []time.Duration
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Runs returns how many runs have been folded in.
func (a *Aggregator) Runs() int { return a.n }

// Add folds one run into the aggregate.
func (a *Aggregator) Add(r *Run) {
	if a.n == 0 {
		a.app, a.runtime = r.App, r.Runtime
	} else if r.App != a.app || r.Runtime != a.runtime {
		panic(fmt.Sprintf("stats: mixed aggregate: %s/%s vs %s/%s",
			r.App, r.Runtime, a.app, a.runtime))
	}
	a.n++
	for b := Bucket(0); b < NumBuckets; b++ {
		a.work[b].Add(r.Work[b])
	}
	a.energy += r.TotalEnergy()
	a.onTime += r.OnTime
	a.wallTime += r.WallTime
	a.powerFailures += r.PowerFailures
	a.ioExecs += r.IOExecs
	a.ioRepeats += r.IORepeats
	a.ioSkips += r.IOSkips
	a.dmaExecs += r.DMAExecs
	a.dmaRepeats += r.DMARepeats
	a.dmaSkips += r.DMASkips
	if r.Stuck {
		a.stuck++
	} else if r.Correct {
		a.correct++
	} else {
		a.incorrect++
	}
	a.totals = append(a.totals, r.Work[App].T+r.Work[Overhead].T+r.Work[Wasted].T)
}

// Merge folds aggregator o into a, as if o's runs had been added to a in
// their original order. Merging shard aggregators in shard order therefore
// reproduces the sequential fold exactly.
func (a *Aggregator) Merge(o *Aggregator) {
	if o.n == 0 {
		return
	}
	if a.n == 0 {
		a.app, a.runtime = o.app, o.runtime
	} else if o.app != a.app || o.runtime != a.runtime {
		panic(fmt.Sprintf("stats: mixed aggregate: %s/%s vs %s/%s",
			o.app, o.runtime, a.app, a.runtime))
	}
	a.n += o.n
	for b := Bucket(0); b < NumBuckets; b++ {
		a.work[b].Add(o.work[b])
	}
	a.energy += o.energy
	a.onTime += o.onTime
	a.wallTime += o.wallTime
	a.powerFailures += o.powerFailures
	a.ioExecs += o.ioExecs
	a.ioRepeats += o.ioRepeats
	a.ioSkips += o.ioSkips
	a.dmaExecs += o.dmaExecs
	a.dmaRepeats += o.dmaRepeats
	a.dmaSkips += o.dmaSkips
	a.correct += o.correct
	a.incorrect += o.incorrect
	a.stuck += o.stuck
	a.totals = append(a.totals, o.totals...)
}

// Summary finalizes the aggregate. The aggregator stays usable: more runs
// can be added and Summary called again.
func (a *Aggregator) Summary() Summary {
	if a.n == 0 {
		return Summary{}
	}
	s := Summary{
		App:           a.app,
		Runtime:       a.runtime,
		Runs:          a.n,
		PowerFailures: a.powerFailures,
		IOExecs:       a.ioExecs,
		IORepeats:     a.ioRepeats,
		IOSkips:       a.ioSkips,
		DMAExecs:      a.dmaExecs,
		DMARepeats:    a.dmaRepeats,
		DMASkips:      a.dmaSkips,
		CorrectRuns:   a.correct,
		IncorrectRuns: a.incorrect,
		StuckRuns:     a.stuck,
	}
	n := int64(a.n)
	for b := Bucket(0); b < NumBuckets; b++ {
		s.Work[b] = Totals{a.work[b].T / time.Duration(n), a.work[b].E / units.Energy(n)}
	}
	s.MeanEnergy = a.energy / units.Energy(n)
	s.MeanOnTime = a.onTime / time.Duration(n)
	s.MeanWallTime = a.wallTime / time.Duration(n)

	totals := make([]time.Duration, len(a.totals))
	copy(totals, a.totals)
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	s.P50TotalTime = percentile(totals, 50)
	s.P95TotalTime = percentile(totals, 95)
	return s
}

// AggregatorState is the exported, serializable fold state of an
// Aggregator. A sharded sweep running across processes ships each
// shard's state and merges them in shard order — folding states
// reproduces folding the runs, so the final Summary is byte-identical
// to a single-process sweep over the same seeds.
type AggregatorState struct {
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

	// Totals holds each folded run's committed total time, in Add order
	// (the percentile inputs).
	Totals []time.Duration
}

// Export returns the aggregator's fold state. The Totals slice aliases
// the aggregator's storage — treat it as read-only while the aggregator
// keeps folding.
func (a *Aggregator) Export() AggregatorState {
	return AggregatorState{
		App:           a.app,
		Runtime:       a.runtime,
		Runs:          a.n,
		Work:          a.work,
		Energy:        a.energy,
		OnTime:        a.onTime,
		WallTime:      a.wallTime,
		PowerFailures: a.powerFailures,
		IOExecs:       a.ioExecs,
		IORepeats:     a.ioRepeats,
		IOSkips:       a.ioSkips,
		DMAExecs:      a.dmaExecs,
		DMARepeats:    a.dmaRepeats,
		DMASkips:      a.dmaSkips,
		Correct:       a.correct,
		Incorrect:     a.incorrect,
		Stuck:         a.stuck,
		Totals:        a.totals,
	}
}

// ImportAggregator rebuilds an Aggregator from an exported state, taking
// ownership of the Totals slice. Merging imported aggregators in shard
// order is exactly merging the original shard aggregators.
func ImportAggregator(st AggregatorState) *Aggregator {
	return &Aggregator{
		app:           st.App,
		runtime:       st.Runtime,
		n:             st.Runs,
		work:          st.Work,
		energy:        st.Energy,
		onTime:        st.OnTime,
		wallTime:      st.WallTime,
		powerFailures: st.PowerFailures,
		ioExecs:       st.IOExecs,
		ioRepeats:     st.IORepeats,
		ioSkips:       st.IOSkips,
		dmaExecs:      st.DMAExecs,
		dmaRepeats:    st.DMARepeats,
		dmaSkips:      st.DMASkips,
		correct:       st.Correct,
		incorrect:     st.Incorrect,
		stuck:         st.Stuck,
		totals:        st.Totals,
	}
}

// Aggregate folds a set of runs into a Summary. All runs must share the
// same app and runtime; it panics otherwise, since mixing configurations
// is a harness bug.
func Aggregate(runs []*Run) Summary {
	a := NewAggregator()
	for _, r := range runs {
		a.Add(r)
	}
	return a.Summary()
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

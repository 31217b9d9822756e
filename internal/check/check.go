// Package check is the failure-point model checker: for one app×runtime
// blueprint it (1) runs a golden continuous-power pass that enumerates
// every charge-slice boundary — the candidate failure points — through
// the kernel's CutSink hook, (2) replays the run with a single power
// failure injected at each explored candidate over a deterministic
// power.Schedule, and (3) differentially compares each replay's final
// non-volatile memory, CheckOutput verdict and work-split ledger against
// the golden run, reporting a minimal failing schedule on divergence.
//
// Every checker job runs one pipeline (see unit.go): Plan runs the golden
// pass (and, for nested jobs, the level-1 exploration) and returns work
// units; one exploration routine grows a unit's subtree to the configured
// depth; Merge folds the units' results into the Report. Run is the three
// stages in one process; the distributed checker ships the same units to
// fleet workers.
//
// Exploration is adaptive (see explore.go): a coarse grid of candidates
// is evaluated first and an interval between two explored points is
// bisected only while their outcome hashes differ, so long stretches of
// equivalent failure points are pruned. Exhaustive mode replays every
// candidate — the sound setting used for the small scenario apps.
//
// The checker is deterministic: the same blueprint and config produce a
// byte-identical Report regardless of Workers or scheduling.
package check

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"easeio/internal/apps"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
)

// MaxFailures caps the nested-failure exploration depth. Each level
// multiplies the schedule space by the suffix cut count; beyond a few
// levels even the collapsed tree stops being tractable, and no
// correctness argument in the paper needs more than
// failure-during-recovery-during-recovery. Config.Validate holds every
// surface that accepts a depth to this cap.
const MaxFailures = 4

// Config holds a check's parameters: the one value easeio-check's flags,
// the service's job spec and the fleet spec fill. Zero fields take the
// defaults of Filled.
type Config struct {
	// Seed drives the golden run and every replay (peripheral processes
	// are pure functions of wall-clock time and this seed).
	Seed int64
	// Failures is the nested-failure exploration depth k: every explored
	// schedule injects up to this many failures, each landing on a
	// charge-slice boundary of the previous failure's recovery
	// trajectory. 0 defaults to 1 — the single-failure checker. Depths
	// above MaxFailures are rejected.
	Failures int
	// Off is the recharge duration of the injected failure (defaults to
	// power.Schedule's 1 ms).
	Off time.Duration
	// Grid is the number of coarse starting points of the adaptive
	// exploration (defaults to 128; clamped to the candidate count).
	Grid int
	// Exhaustive replays every candidate cut point instead of pruning
	// hash-equivalent intervals.
	Exhaustive bool
	// FromBoot forces every replay to re-simulate from boot instead of
	// restoring a checkpoint of the golden prefix and simulating only
	// the post-failure suffix. The two modes produce byte-identical
	// reports; from-boot is the O(run) test oracle that cross-validates
	// checkpoint fidelity (the Hooks snapshot/restore contract), not a
	// fallback for runtimes. It is an in-process mode only: its units
	// carry no root checkpoints, so they cannot be shipped to fleet
	// workers.
	FromBoot bool
	// Workers bounds parallel replays (defaults to GOMAXPROCS). The
	// Report is worker-count-invariant.
	Workers int
	// Progress, when non-nil, is invoked after every evaluated point with
	// the cumulative explored count and the planned count so far. It may
	// be called from any worker goroutine.
	Progress func(explored, planned int)
}

// Validate rejects the values no default covers: a failure depth above
// MaxFailures, and a negative depth, grid, off-time or worker count.
func (c Config) Validate() error {
	switch {
	case c.Failures < 0 || c.Failures > MaxFailures:
		return fmt.Errorf("check: failure depth %d out of range [1, %d]", c.Failures, MaxFailures)
	case c.Grid < 0:
		return fmt.Errorf("check grid %d is negative (0 means the default)", c.Grid)
	case c.Off < 0:
		return fmt.Errorf("off %v is negative (0 means the default)", c.Off)
	case c.Workers < 0:
		return fmt.Errorf("workers %d is negative (0 means the default)", c.Workers)
	}
	return nil
}

// Filled returns c with every zero default applied: the configuration a
// check actually runs, and the one its report header states.
func (c Config) Filled() Config {
	if c.Failures <= 0 {
		c.Failures = 1
	}
	if c.Off <= 0 {
		c.Off = time.Millisecond
	}
	if c.Grid <= 0 {
		c.Grid = 128
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// golden is the continuous-power reference every replay is compared
// against.
type golden struct {
	// onTime is the golden run's powered-on execution time.
	onTime time.Duration
	// correct is the golden CheckOutput verdict (true for every shipped
	// app: under continuous power nothing re-executes).
	correct bool
	// vars holds each variable's final committed words, indexed like
	// App.Vars.
	vars [][]uint16
	// digests holds each variable's wordsDigest, indexed like vars: a
	// replay whose variable equals golden folds it without hashing.
	digests []uint64
	// sensed marks variables excluded from the word-for-word comparison
	// (see task.NVVar.TimeSensitive).
	sensed []bool
	// hasFresh gates the freshness oracle: the staleness record folds
	// into outcome hashes only for apps declaring freshness bounds, so
	// untagged apps keep hashes — and adaptive reports — byte-identical
	// to the pre-oracle checker.
	hasFresh bool
	// stale is the golden run's staleness-violation count. An app may be
	// inherently stale even under continuous power; replays are charged
	// only for violations beyond it.
	stale int
}

// cutRecorder collects every charge-slice boundary of the golden pass.
type cutRecorder struct{ cuts []time.Duration }

// NoteCut implements kernel.CutSink. On-time is strictly increasing
// across a run, so the slice arrives sorted and duplicate-free.
func (r *cutRecorder) NoteCut(onTime time.Duration) { r.cuts = append(r.cuts, onTime) }

// goldenPass runs the continuous-power reference, enumerates the
// candidate failure points, and returns a plan holding the report header
// and an explorer over those candidates — the first stage of every
// checker entry point. cfg must be filled. This is also where the replay
// mode is chosen: checkpointed replay records by re-running the golden
// session itself (golden state is copied out first, so it costs no extra
// builds); FromBoot leaves the recorder nil, which makes every replayer
// the explorer builds re-simulate from boot.
func goldenPass(newApp experiments.AppFactory, kind experiments.RuntimeKind, cfg Config) (*Planned, error) {
	bench, err := buildApp(newApp)
	if err != nil {
		return nil, fmt.Errorf("check: build app: %w", err)
	}
	rec := &cutRecorder{}
	sess := kernel.NewSession(experiments.NewRuntime(kind), bench.App, power.Continuous{})
	rt := sess.Runtime()
	sess.Cuts = rec
	grun, err := sess.Run(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("check: golden run of %s under %s: %w", bench.App.Name, kind, err)
	}

	g := &golden{
		onTime:   grun.OnTime,
		correct:  grun.Correct,
		vars:     make([][]uint16, len(bench.App.Vars)),
		digests:  make([]uint64, len(bench.App.Vars)),
		sensed:   make([]bool, len(bench.App.Vars)),
		hasFresh: bench.App.DeclaresFreshness(),
		stale:    len(grun.Stale),
	}
	dev := sess.Device()
	for i, v := range bench.App.Vars {
		g.sensed[i] = v.TimeSensitive
		words := make([]uint16, v.Words)
		for w := range words {
			words[w] = kernel.ReadVar(dev, rt, v, w)
		}
		g.vars[i] = words
		g.digests[i] = wordsDigest(words)
	}

	e := &explorer{cfg: cfg, newApp: newApp, kind: kind, golden: g, cuts: rec.cuts}
	if !cfg.FromBoot {
		e.rec = &recorder{sess: sess, seed: cfg.Seed}
	}
	p := &Planned{Header: Header{
		App:           bench.App.Name,
		Runtime:       kind.String(),
		Seed:          cfg.Seed,
		Off:           cfg.Off,
		Failures:      cfg.Failures,
		GoldenOnTime:  g.onTime,
		GoldenCorrect: g.correct,
		Candidates:    len(rec.cuts),
	}, e: e}
	if p.Candidates == 0 {
		// Nothing to explore, and nothing to diverge: a run that never
		// crossed a charge-slice boundary has no point at which a power
		// failure could land. Say so explicitly instead of rendering a
		// confusingly empty pass.
		p.Note = "no candidate failure points: the golden run never crossed a charge-slice boundary"
	}
	return p, nil
}

// buildApp calls the app factory and turns a panic in it into the
// error, so a broken factory fails a check with the checker's own
// message on every path that runs one (check.Run, the fleet planner,
// fleet workers).
func buildApp(newApp experiments.AppFactory) (bench *apps.Bench, err error) {
	defer func() {
		if p := recover(); p != nil {
			bench, err = nil, fmt.Errorf("panicked: %v", p)
		}
	}()
	return newApp()
}

// minimalSchedule picks the minimal failing schedule: fewest failures
// first, then earliest. Divergences arrive depth by depth and in
// candidate order within a depth, so the first divergence with the
// shortest schedule is the minimal one.
func minimalSchedule(divs []Divergence) []time.Duration {
	best := -1
	bestLen := 0
	for i, d := range divs {
		l := len(d.Schedule)
		if l == 0 {
			l = 1 // single-failure divergences carry the schedule in At
		}
		if best < 0 || l < bestLen {
			best, bestLen = i, l
		}
	}
	if best < 0 {
		return nil
	}
	if d := divs[best]; len(d.Schedule) > 0 {
		return append([]time.Duration(nil), d.Schedule...)
	}
	return []time.Duration{divs[best].At}
}

// outcome is one replay's classified result.
type outcome struct {
	evaluated bool
	hash      uint64
	div       *Divergence // nil when the replay matched golden
}

// replayer owns one worker's app instance, schedule and session. In
// from-boot mode it re-simulates the whole run per point (Session.Run,
// the same reset path sweeps take); in checkpointed mode it restores a
// golden-prefix checkpoint into the session's device and simulates only
// the post-failure suffix (Session.Resume). Both modes classify
// identically, so the Report is byte-identical either way.
type replayer struct {
	bench  *apps.Bench
	sess   *kernel.Session
	sch    *power.Schedule
	golden *golden
	seed   int64

	// want is the number of failures the current schedule injects — the
	// ledger oracle's expected PowerFailures count.
	want int
	// sched is the scratch schedule buffer reused across evals.
	sched []time.Duration
}

// newReplayer builds one replayer for the explorer's job. A checkpointed
// job's replayer attaches its session up front, so roots can be checked
// against the device (Checkpoint.Fits) before the first restore.
func (e *explorer) newReplayer() (*replayer, error) {
	bench, err := buildApp(e.newApp)
	if err != nil {
		return nil, fmt.Errorf("check: build replay app: %w", err)
	}
	sch := power.NewScheduleWithOff(e.cfg.Off)
	r := &replayer{bench: bench, sess: kernel.NewSession(experiments.NewRuntime(e.kind), bench.App, sch),
		sch: sch, golden: e.golden, seed: e.cfg.Seed}
	if e.rec != nil {
		if err := r.sess.Attach(r.seed); err != nil {
			return nil, fmt.Errorf("check: replay app: %w", err)
		}
	}
	return r, nil
}

// setSchedule loads the failure schedule (strictly ascending cut
// on-times) into the supply, reusing the FailAt backing array across
// evals.
func (r *replayer) setSchedule(schedule []time.Duration) {
	r.sch.FailAt = append(r.sch.FailAt[:0], schedule...)
	r.want = len(schedule)
}

// resume resumes the session from cp, the checkpoint at the schedule's
// last cut, through its final injected failure, with sink (nil for none)
// receiving the suffix's cuts. The supply holds only that last failure:
// the earlier ones are in the checkpoint's past, and the restored run
// record already counts them, so want stays the whole schedule's
// length. A replay that errored left the session without a device, so
// resume re-attaches first.
func (r *replayer) resume(cp *kernel.Checkpoint, schedule []time.Duration, sink kernel.CutSink) (*stats.Run, error) {
	r.setSchedule(schedule[len(schedule)-1:])
	r.want = len(schedule)
	r.sch.Reset(0)
	if err := r.sess.Attach(r.seed); err != nil {
		return nil, err
	}
	r.sess.Cuts = sink
	run, err := r.sess.Resume(cp)
	r.sess.Cuts = nil
	return run, err
}

// eval replays the run from boot with the given failure schedule and
// classifies the result against golden.
func (r *replayer) eval(schedule []time.Duration) outcome {
	r.setSchedule(schedule)
	run, err := r.sess.Run(r.seed)
	return r.classify(run, err)
}

// evalFrom restores the checkpoint taken at the schedule's last cut —
// a golden-prefix checkpoint for single failures, a recovery-trajectory
// checkpoint deeper in the tree — applies the final injected failure,
// and simulates only the suffix.
func (r *replayer) evalFrom(cp *kernel.Checkpoint, schedule []time.Duration) outcome {
	return r.classify(r.resume(cp, schedule, nil))
}

// traceFrom replays a passing schedule's suffix like evalFrom, but with
// a cut recorder attached: it returns the charge-slice boundaries of the
// recovery trajectory after the schedule's last failure — the candidate
// points for the next failure level. cp must be the checkpoint at the
// schedule's last cut.
func (r *replayer) traceFrom(cp *kernel.Checkpoint, schedule []time.Duration) ([]time.Duration, error) {
	rec := &cutRecorder{}
	if _, err := r.resume(cp, schedule, rec); err != nil {
		return nil, fmt.Errorf("check: suffix trace of schedule %v: %w", schedule, err)
	}
	return rec.cuts, nil
}

// traceBoot is traceFrom's from-boot twin: it replays the whole run with
// the schedule's failures injected and returns the boundaries strictly
// after the last failure (the resumed trajectory's cuts — the earlier
// ones belong to already-explored levels).
func (r *replayer) traceBoot(schedule []time.Duration) ([]time.Duration, error) {
	rec := &cutRecorder{}
	r.setSchedule(schedule)
	r.sess.Cuts = rec
	_, err := r.sess.Run(r.seed)
	r.sess.Cuts = nil
	if err != nil {
		return nil, fmt.Errorf("check: suffix trace of schedule %v: %w", schedule, err)
	}
	last := schedule[len(schedule)-1]
	cuts := rec.cuts
	i := 0
	for i < len(cuts) && cuts[i] <= last {
		i++
	}
	return cuts[i:], nil
}

// recordSuffix re-runs a passing schedule's recovery trajectory from its
// root checkpoint with a snapshotting sink, capturing one checkpoint per
// requested suffix-cut index, parallel to idxs — the nested twin of
// recorder.record, which does the same along the golden run. cuts is the
// trajectory's candidate list (from traceFrom) and idxs selects
// ascending entries of it.
func (r *replayer) recordSuffix(root *kernel.Checkpoint, schedule []time.Duration, cuts []time.Duration, idxs []int) ([]*kernel.Checkpoint, error) {
	sink := newSnapSink(r.sess, cuts, idxs)
	if _, err := r.resume(root, schedule, sink); err != nil {
		return nil, fmt.Errorf("check: suffix recording pass of schedule %v: %w", schedule, err)
	}
	return sink.finish("suffix recording pass", "recovery trajectory")
}

// classify compares one replay's final state against golden. The outcome
// hash covers the correctness verdict, the failure count, every
// non-time-sensitive variable's words and the divergence kind — the
// equivalence the pruning relies on. A variable enters the hash as its
// FNV-1a digest: one mem.Equal against golden decides it, a variable
// equal to golden folds the digest stored at golden time, and only a
// variable that differs is hashed word by word (and then reported with
// the per-word Detail). The hash is only ever compared for equality, so
// its value is free: what must hold is that two outcomes hash equal
// exactly when everything it covers agrees, up to digest collisions.
func (r *replayer) classify(run *stats.Run, err error) outcome {
	if err != nil {
		return outcome{evaluated: true, hash: hashString("error:" + err.Error()),
			div: &Divergence{Kind: "error", Detail: err.Error()}}
	}
	dev, rt := r.sess.Device(), r.sess.Runtime()

	h := uint64(fnvOffset)
	put := func(w uint16) { h = fnvWord(h, w) }
	putU64 := func(d uint64) {
		for s := 0; s < 64; s += 16 {
			put(uint16(d >> s))
		}
	}
	if run.Correct {
		put(1)
	} else {
		put(0)
	}
	put(uint16(run.PowerFailures))
	if r.golden.hasFresh {
		// The staleness record is observable state for freshness apps:
		// fold every violation (and the sample ages behind future ones)
		// so hash-equal outcomes really are freshness-equivalent.
		put(uint16(len(run.Stale)))
		for _, ev := range run.Stale {
			for i := 0; i < len(ev.Site); i++ {
				h = (h ^ uint64(ev.Site[i])) * fnvPrime
			}
			putU64(uint64(ev.Age))
			putU64(uint64(ev.Bound))
			putU64(uint64(ev.At))
		}
	}

	var div *Divergence
	for i, v := range r.bench.App.Vars {
		if r.golden.sensed[i] {
			continue
		}
		words := dev.Mem.Span(rt.AddrOf(v), v.Words)
		if mem.Equal(words, r.golden.vars[i]) {
			putU64(r.golden.digests[i])
			continue
		}
		putU64(wordsDigest(words))
		if div == nil {
			div = memoryDivergence(v.Name, words, r.golden.vars[i])
		}
	}
	switch {
	case div != nil:
	case r.golden.correct && !run.Correct:
		div = &Divergence{Kind: "output", Detail: "CheckOutput failed (golden run is correct)"}
	case r.golden.hasFresh && len(run.Stale) > r.golden.stale:
		ev := run.Stale[r.golden.stale] // the first violation beyond golden's
		div = &Divergence{Kind: "timely", Detail: fmt.Sprintf(
			"Timely(Δt): %s consumed %v after its last sample (bound %v) at t=%v",
			ev.Site, ev.Age, ev.Bound, ev.At)}
	case run.PowerFailures != r.want:
		div = &Divergence{Kind: "ledger", Detail: fmt.Sprintf(
			"%d power failures booked, schedule injected %d", run.PowerFailures, r.want)}
	case sumWork(run) != run.OnTime:
		div = &Divergence{Kind: "ledger", Detail: fmt.Sprintf(
			"committed work %v does not account for on-time %v", sumWork(run), run.OnTime)}
	case run.OnTime < r.golden.onTime:
		div = &Divergence{Kind: "ledger", Detail: fmt.Sprintf(
			"on-time %v below the golden run's %v despite an injected failure",
			run.OnTime, r.golden.onTime)}
	}
	if div != nil {
		for i := 0; i < len(div.Kind); i++ {
			h = (h ^ uint64(div.Kind[i])) * fnvPrime
		}
	}
	return outcome{evaluated: true, hash: h, div: div}
}

// memoryDivergence reports the first word where a variable's final
// words got differ from golden's want.
func memoryDivergence(name string, got, want []uint16) *Divergence {
	w := 0
	for got[w] == want[w] {
		w++
	}
	return &Divergence{Kind: "memory", Detail: fmt.Sprintf(
		"%s[%d] = %d, want %d", name, w, got[w], want[w])}
}

// sumWork totals the run's committed work buckets; with nothing pending
// it must equal the powered-on time exactly (the ledger invariant).
func sumWork(run *stats.Run) time.Duration {
	var t time.Duration
	for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
		t += run.Work[b].T
	}
	return t
}

// The FNV-1a 64-bit parameters behind outcome hashes and variable
// digests. classify folds bytes by hand instead of through hash/fnv, to
// skip the per-word interface call.
const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnvWord folds one word's little-endian bytes into h.
func fnvWord(h uint64, w uint16) uint64 {
	h = (h ^ uint64(w&0xff)) * fnvPrime
	return (h ^ uint64(w>>8)) * fnvPrime
}

// wordsDigest is the FNV-1a digest of words' little-endian bytes.
func wordsDigest(words []uint16) uint64 {
	h := uint64(fnvOffset)
	for _, w := range words {
		h = fnvWord(h, w)
	}
	return h
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"syscall"
	"time"
)

// options configures one workload run.
type options struct {
	w        workload
	seed     int64
	measure  time.Duration // the timed phase's length
	trace    bool
	traceDir string // where a traced run writes its layer report and Chrome trace
	workdir  string // scratch space for the fleet WAL
	setups   int    // set-up repetitions; setup_s is their median
	// pins are the expected digests by job key. Nil means no pins exist
	// for the seed, and results are checked against direct engine calls.
	pins map[string]string
	out  io.Writer // human-readable report
}

// minPasses keeps every run's throughput a median of several passes even
// when one pass outlasts the measuring time.
const minPasses = 3

// setupReduced is the cold job set-up submits for a spec: the same app and
// runtime with a few runs, or an adaptive check on a two-point grid.
func setupReduced(j job) job {
	if j.Mode == "check" {
		j.Grid = 2
	} else {
		j.Runs = min(j.Runs, 8)
	}
	return j
}

// setUp builds the stack, analyzes every blueprint through GET /blueprints
// and runs one cold reduced job per distinct spec, returning the stack and
// the time it took.
func setUp(ctx context.Context, o options, builds *buildLog, id int) (*stack, time.Duration, error) {
	start := time.Now()
	s, err := newStack(o.w, o.workdir, builds, id)
	if err != nil {
		return nil, 0, err
	}
	if _, err := s.get(ctx, "/blueprints"); err != nil {
		return nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), s.close())
	}
	seen := map[string]bool{}
	var cold []job
	for _, j := range o.w.Jobs {
		if !seen[j.key()] {
			seen[j.key()] = true
			cold = append(cold, setupReduced(j))
		}
	}
	samples, _ := s.pass(ctx, cold, o.w.Clients, o.seed, false)
	d := time.Since(start)
	for _, smp := range samples {
		if smp.err != nil {
			return nil, 0, errors.Join(fmt.Errorf("set-up: %w", smp.err), s.close())
		}
	}
	return s, d, nil
}

// passStats is one timed pass.
type passStats struct {
	dur     time.Duration // wall time the jobs took
	scale   float64       // the samples' host scales, weighted by job time
	samples []sample
}

func newPass(samples []sample, dur time.Duration) passStats {
	var w, sum float64
	for _, s := range samples {
		w += float64(s.total)
		sum += float64(s.total) * s.scale
	}
	p := passStats{dur: dur, scale: 1, samples: samples}
	if w > 0 { // zero only when every job failed before it was timed
		p.scale = sum / w
	}
	return p
}

// rate counts per(sample) over the pass per second at the reference host
// speed; wallRate per wall-clock second.
func (p passStats) rate(per func(sample) int) float64 { return p.wallRate(per) / p.scale }

func (p passStats) wallRate(per func(sample) int) float64 {
	n := 0
	for _, s := range p.samples {
		n += per(s)
	}
	return float64(n) / p.dur.Seconds()
}

func oneJob(sample) int   { return 1 }
func workOf(s sample) int { return s.work }

func passRates(ps []passStats, rate func(passStats) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = rate(p)
	}
	return out
}

func jobRate(p passStats) float64     { return p.rate(oneJob) }
func workRate(p passStats) float64    { return p.rate(workOf) }
func wallJobRate(p passStats) float64 { return p.wallRate(oneJob) }

// runPasses runs whole passes until the phase has lasted d and at least
// minPasses passes finished.
func runPasses(ctx context.Context, s *stack, o options, d time.Duration) []passStats {
	var out []passStats
	start := time.Now()
	for len(out) < minPasses || time.Since(start) < d {
		out = append(out, newPass(s.pass(ctx, o.w.Jobs, o.w.Clients, o.seed, o.w.hostScaled())))
		if ctx.Err() != nil {
			break
		}
	}
	return out
}

// maxRSSMiB is the process's peak resident set size so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload runs one workload through its four phases — set-up, one
// untimed warm pass, the timed passes, and (with tracing) a traced half —
// then checks every result and returns the metrics. For a host-scaled
// workload every time it reports is scaled to the reference host speed
// (see probe.go); it also prints the wall-clock values.
func runWorkload(ctx context.Context, o options) (result, error) {
	builds := &buildLog{}
	var (
		s                *stack
		setups, wallSets []float64
	)
	reps := o.setups
	if o.trace {
		reps = 1 // the traced run reports no set-up time
	}
	for i := 0; i < reps; i++ {
		var before time.Duration
		if o.w.hostScaled() {
			before = probe()
		}
		st, d, err := setUp(ctx, o, builds, i)
		if err != nil {
			return result{}, err
		}
		scale := 1.0
		if o.w.hostScaled() {
			scale = hostScale(before, probe())
		}
		setups = append(setups, d.Seconds()*scale)
		wallSets = append(wallSets, d.Seconds())
		if i < reps-1 {
			if err := st.close(); err != nil {
				return result{}, err
			}
			continue
		}
		s = st
	}
	defer func() {
		if s != nil {
			s.close() // error path only; the success path checks close
		}
	}()

	warm, _ := s.pass(ctx, o.w.Jobs, o.w.Clients, o.seed, o.w.hostScaled())
	all := append([]sample(nil), warm...)
	// Peak RSS after a fixed amount of work: the job manager keeps every
	// finished job, so a later reading would grow with the passes a run
	// fits into its time.
	rss := maxRSSMiB()

	var (
		timed, traced []passStats
		lay           *layerRun
	)
	if o.trace {
		// Half the time untraced, half traced: the traced half's rate
		// against the untraced half's is the tracing overhead.
		timed = runPasses(ctx, s, o, o.measure/2)
		lay = &layerRun{ctx: ctx, s: s, builds: builds}
		if err := lay.begin(); err != nil {
			return result{}, err
		}
		traced = runPasses(ctx, s, o, o.measure/2)
		if err := lay.end(); err != nil {
			return result{}, err
		}
	} else {
		timed = runPasses(ctx, s, o, o.measure)
	}
	for _, p := range append(append([]passStats(nil), timed...), traced...) {
		all = append(all, p.samples...)
	}
	err := s.close()
	s = nil
	if err != nil {
		return result{}, err
	}

	failed, note, err := verify(ctx, o, all)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(o.out, "workload %s seed %d: %s\n", o.w.Name, o.seed, note)
	res := result{Correct: failed == 0, Attempted: len(all), Failed: failed}
	fmt.Fprintf(o.out, "  failed_ratio %.6g (%d of %d jobs)\n", float64(failed)/float64(len(all)), failed, len(all))

	if o.trace {
		values := lay.metrics(o.w, traced, timed)
		res.Metrics = metricSet(perLayer, values)
		if err := lay.write(o, traced, res.Metrics); err != nil {
			return result{}, err
		}
		printSpecTimes(o.out, o.w, traced)
		printMetrics(o.out, perLayer, res.Metrics)
		return res, nil
	}

	var lat, wallLat, scales []float64
	for _, p := range timed {
		for _, smp := range p.samples {
			lat = append(lat, ms(smp.total)*smp.scale)
			wallLat = append(wallLat, ms(smp.total))
		}
		scales = append(scales, p.scale)
	}
	res.Metrics = metricSet(endToEnd, map[string]float64{
		"setup_s":            median(setups),
		"jobs_per_s":         median(passRates(timed, jobRate)),
		"runs_per_s":         median(passRates(timed, workRate)),
		"job_latency_p50_ms": percentile(lat, 0.5),
		"job_latency_p90_ms": percentile(lat, 0.9),
		"max_rss_mb":         rss,
	})
	fmt.Fprintf(o.out, "  %d timed passes, %d timed jobs, %d set-ups\n", len(timed), len(lat), len(setups))
	if o.w.hostScaled() {
		fmt.Fprintf(o.out, "  host scale per pass %.3f\n", scales)
	}
	fmt.Fprintf(o.out, "  wall clock: jobs/s per pass %.4g; setup %.4g s, job latency p50 %.4g ms, p90 %.4g ms\n",
		passRates(timed, wallJobRate), median(wallSets), percentile(wallLat, 0.5), percentile(wallLat, 0.9))
	printMetrics(o.out, endToEnd, res.Metrics)
	return res, nil
}

// verify checks every sample: the job must have succeeded and its result
// digest must equal the pinned one, or, for a seed without pins, the one a
// direct engine call computes. It returns the number of failed jobs.
func verify(ctx context.Context, o options, all []sample) (int, string, error) {
	want := o.pins
	note := fmt.Sprintf("results match the pinned digests for seed %d", o.seed)
	if want == nil {
		note = fmt.Sprintf("unverified against pins (none for seed %d); results match direct engine calls", o.seed)
		reg, err := newRegistry(nil)
		if err != nil {
			return 0, "", err
		}
		want = map[string]string{}
		for _, j := range o.w.Jobs {
			if _, ok := want[j.key()]; ok {
				continue
			}
			d, err := reference(ctx, reg, j, o.seed)
			if err != nil {
				return 0, "", err
			}
			want[j.key()] = d
		}
	}
	failed := 0
	for _, smp := range all {
		key := o.w.Jobs[smp.job].key()
		switch {
		case smp.err != nil:
			failed++
			fmt.Fprintf(o.out, "  FAIL %v\n", smp.err)
		case want[key] == "" || smp.digest != want[key]:
			failed++
			fmt.Fprintf(o.out, "  FAIL %s: digest %s, want %q\n", key, smp.digest, want[key])
		}
	}
	if failed > 0 {
		note = fmt.Sprintf("%d results FAILED verification", failed)
	}
	return failed, note, nil
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// printSpecTimes prints each spec's median job latency over the passes,
// sorted, with the ranks the p50 and p90 fall on — to check they sit away
// from a step in the sorted times.
func printSpecTimes(w io.Writer, wl workload, ps []passStats) {
	times := specTimes(wl, ps)
	fmt.Fprintf(w, "  sorted per-spec median latency (p50 rank %.1f, p90 rank %.1f of %d):\n",
		0.5*float64(len(times)-1), 0.9*float64(len(times)-1), len(times))
	for i, st := range times {
		fmt.Fprintf(w, "    %3d %10.3f ms  %s\n", i, st.ms, st.key)
	}
}

type specTime struct {
	key string
	ms  float64
}

func specTimes(wl workload, ps []passStats) []specTime {
	per := make([][]float64, len(wl.Jobs))
	for _, p := range ps {
		for _, smp := range p.samples {
			per[smp.job] = append(per[smp.job], ms(smp.total))
		}
	}
	out := make([]specTime, len(wl.Jobs))
	for i, j := range wl.Jobs {
		out[i] = specTime{key: j.key(), ms: median(per[i])}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ms < out[b].ms })
	return out
}

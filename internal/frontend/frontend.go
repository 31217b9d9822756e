// Package frontend is the EaseIO compiler front-end's equivalent in this
// reproduction.
//
// The paper implements a Clang/LibTooling source-to-source pass (§4.5)
// that walks each task's AST to (a) create lock flags and control blocks
// for every _call_IO, (b) detect data dependencies between I/O calls and
// DMA copies, (c) extract non-volatile variable accesses, and (d) split
// tasks into privatization regions at DMA sites. What the *runtime*
// consumes is not the AST but the metadata this pass produces. Here we
// produce the same metadata by executing each task body once against a
// recording implementation of task.Exec — an "analysis run" — instead of
// walking C syntax. For the straight-line task bodies of the paper's
// benchmarks the recorded trace covers the whole body; tasks with
// data-dependent branches can declare additional touched variables via
// Task hints (see Touches), mirroring how a conservative static analysis
// would widen the sets.
package frontend

import (
	"fmt"
	"math/rand"
	"time"

	"easeio/internal/lazyrand"
	"easeio/internal/task"
	"easeio/internal/units"
)

// Analyze runs the compiler front-end over the app exactly once: it
// computes each task's metadata, fills in I/O block membership and closes
// the I/O dependence sets, all on the blueprint itself — the annotated
// App is the whole result, and runtimes read it directly. The pass runs
// under the app's single-flight gate (task.App.AnalyzeOnce), so every
// caller — sessions, Lint, the facade — may race to analyze one shared
// app; later calls return the first call's error without re-running it.
// An app whose tasks already carry metadata (App.Analyzed) is left as is.
func Analyze(app *task.App) error { return app.AnalyzeOnce(analyze) }

func analyze(app *task.App) error {
	if app.Analyzed() {
		return nil
	}
	if err := app.Validate(); err != nil {
		return err
	}
	// Reset block membership; it is rebuilt below.
	for _, b := range app.Blks {
		b.Members = nil
		b.SubBlocks = nil
	}
	metas := make([]*task.TaskMeta, len(app.Tasks))
	for i, t := range app.Tasks {
		m, err := analyzeTask(app, t)
		if err != nil {
			return fmt.Errorf("frontend: task %q: %w", t.Name, err)
		}
		metas[i] = m
	}
	completeDependencies(app)
	for i, t := range app.Tasks {
		t.Meta = metas[i]
	}
	return nil
}

// newAnalysisRand seeds the deterministic randomness analysis runs hand
// to task bodies that ask for it.
func newAnalysisRand() *rand.Rand { return rand.New(lazyrand.New(1)) }

func analyzeTask(app *task.App, t *task.Task) (*task.TaskMeta, error) {
	rec := &recorder{
		app:  app,
		meta: &task.TaskMeta{Analyzed: true},
		rng:  newAnalysisRand(),
		seen: map[*task.NVVar]*varState{},
	}
	rec.openRegion(nil)

	if err := rec.run(t); err != nil {
		return nil, err
	}
	if !rec.transitioned {
		return nil, fmt.Errorf("body returned without Next/Done")
	}

	// Close the last region, protect clobber-prone DMA destinations, and
	// attach hint variables everywhere (whole range: a conservative
	// static analysis could not narrow them).
	rec.meta.Regions[len(rec.meta.Regions)-1].EndDMA = nil
	rec.protectDMADests()
	for _, v := range t.Hints {
		rec.noteVarRange(v, true, true, 0, v.Words-1)
		for _, r := range rec.meta.Regions {
			if !r.HasVar(v) {
				r.Vars = append(r.Vars, task.RegionVar{Var: v, Lo: 0, Hi: v.Words - 1})
			}
		}
	}
	rec.finishSets()
	return rec.meta, nil
}

// run executes the body, converting recorder panics into errors.
func (r *recorder) run(t *task.Task) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if ae, ok := p.(analysisError); ok {
				err = fmt.Errorf("%s", string(ae))
				return
			}
			panic(p)
		}
	}()
	t.Body(r)
	return nil
}

type analysisError string

// varState tracks one variable's access pattern within a task.
type varState struct {
	read, written bool
	// war is set when a read was observed before any write — Alpaca's
	// privatization condition.
	war bool
}

// recorder implements task.Exec by recording instead of executing.
type recorder struct {
	app  *task.App
	meta *task.TaskMeta
	rng  *rand.Rand

	seen         map[*task.NVVar]*varState
	blockStack   []*task.IOBlock
	transitioned bool
	dmaDsts      []dmaDst
}

// dmaDst remembers a DMA's non-volatile destination range and the region
// the transfer ends (its completion region is region+1).
type dmaDst struct {
	region int
	v      *task.NVVar
	lo, hi int
}

var _ task.Exec = (*recorder)(nil)

func (r *recorder) openRegion(endOfPrev *task.DMASite) {
	if n := len(r.meta.Regions); n > 0 {
		r.meta.Regions[n-1].EndDMA = endOfPrev
	}
	r.meta.Regions = append(r.meta.Regions, &task.RegionMeta{Index: len(r.meta.Regions)})
}

func (r *recorder) region() *task.RegionMeta {
	return r.meta.Regions[len(r.meta.Regions)-1]
}

// noteVarRange records a CPU access to words [lo, hi] of v.
func (r *recorder) noteVarRange(v *task.NVVar, read, write bool, lo, hi int) {
	st := r.seen[v]
	if st == nil {
		st = &varState{}
		r.seen[v] = st
	}
	if read {
		st.read = true
	}
	if write {
		if st.read && !st.written {
			st.war = true
		}
		st.written = true
	}
	reg := r.region()
	for i := range reg.Vars {
		if reg.Vars[i].Var == v {
			if lo < reg.Vars[i].Lo {
				reg.Vars[i].Lo = lo
			}
			if hi > reg.Vars[i].Hi {
				reg.Vars[i].Hi = hi
			}
			return
		}
	}
	reg.Vars = append(reg.Vars, task.RegionVar{Var: v, Lo: lo, Hi: hi})
}

func (r *recorder) finishSets() {
	// Deterministic order: iterate the app's variable list.
	for _, v := range r.app.Vars {
		st := r.seen[v]
		if st == nil {
			continue
		}
		if st.read {
			r.meta.Reads = append(r.meta.Reads, v)
		}
		if st.written {
			r.meta.Writes = append(r.meta.Writes, v)
		}
		if st.war {
			r.meta.WAR = append(r.meta.WAR, v)
		}
	}
}

// --- task.Exec implementation (recording) ---

// Compute implements task.Exec (no-op during analysis).
func (r *recorder) Compute(int64) {}

// Load implements task.Exec.
func (r *recorder) Load(v *task.NVVar) uint16 { return r.LoadAt(v, 0) }

// Store implements task.Exec.
func (r *recorder) Store(v *task.NVVar, val uint16) { r.StoreAt(v, 0, val) }

// LoadAt implements task.Exec.
func (r *recorder) LoadAt(v *task.NVVar, i int) uint16 {
	r.noteVarRange(v, true, false, i, i)
	if i >= 0 && i < len(v.Init) {
		return v.Init[i]
	}
	return 0
}

// LoadSum implements task.Exec as a per-word LoadAt loop, so a fused
// run records exactly the accesses of its unfused twin.
func (r *recorder) LoadSum(v *task.NVVar, off, n int) uint16 {
	var sum uint16
	for j := 0; j < n; j++ {
		sum += r.LoadAt(v, off+j)
	}
	return sum
}

// StoreAt implements task.Exec.
func (r *recorder) StoreAt(v *task.NVVar, i int, val uint16) {
	_ = val
	r.noteVarRange(v, false, true, i, i)
}

// CallIO implements task.Exec: records the site, associates it with the
// innermost open block, and runs the site's body so that variable accesses
// inside I/O functions are captured too.
func (r *recorder) CallIO(s *task.IOSite) uint16 { return r.CallIOAt(s, 0) }

// CallIOAt implements task.Exec.
func (r *recorder) CallIOAt(s *task.IOSite, idx int) uint16 {
	if !containsSite(r.meta.Sites, s) {
		r.meta.Sites = append(r.meta.Sites, s)
	}
	if n := len(r.blockStack); n > 0 {
		b := r.blockStack[n-1]
		if !containsSite(b.Members, s) {
			b.Members = append(b.Members, s)
		}
	}
	return s.Exec(r, idx)
}

// IOBlock implements task.Exec.
func (r *recorder) IOBlock(b *task.IOBlock, body func()) {
	for _, open := range r.blockStack {
		if open == b {
			panic(analysisError(fmt.Sprintf("I/O block %q opened recursively", b.Name)))
		}
	}
	if !containsBlock(r.meta.Blocks, b) {
		r.meta.Blocks = append(r.meta.Blocks, b)
	}
	if n := len(r.blockStack); n > 0 {
		parent := r.blockStack[n-1]
		if !containsBlock(parent.SubBlocks, b) {
			parent.SubBlocks = append(parent.SubBlocks, b)
		}
	}
	r.blockStack = append(r.blockStack, b)
	body()
	r.blockStack = r.blockStack[:len(r.blockStack)-1]
}

// DMACopy implements task.Exec: records the site, closes the current
// privatization region and opens the next one. Only CPU accesses populate
// the regions' privatization sets — DMA effects are protected by the
// Single/Private/Always classification itself, and the new region's flag
// doubles as the DMA's completion marker (§4.4, Figure 6).
func (r *recorder) DMACopy(d *task.DMASite, src, dst task.Loc, words int) {
	_ = src
	if containsDMA(r.meta.DMAs, d) {
		panic(analysisError(fmt.Sprintf(
			"DMA site %q invoked more than once in a task; declare one site per copy", d.Name)))
	}
	r.meta.DMAs = append(r.meta.DMAs, d)
	if dst.Var != nil && words > 0 {
		r.dmaDsts = append(r.dmaDsts, dmaDst{
			region: len(r.meta.Regions) - 1,
			v:      dst.Var, lo: dst.Off, hi: dst.Off + words - 1,
		})
	}
	r.openRegion(d)
}

// protectDMADests implements the Figure 6 rule precisely: a Single DMA's
// non-volatile destination must be privatized in the region *after* the
// transfer whenever an earlier region privatizes an overlapping range —
// otherwise that earlier region's recovery would clobber the skipped
// DMA's output on re-execution. Destinations untouched by earlier regions
// need no copy (the common fetch/compute/write-back pattern stays cheap).
func (r *recorder) protectDMADests() {
	for _, dd := range r.dmaDsts {
		clobbered := false
		for ri := 0; ri <= dd.region && !clobbered; ri++ {
			for _, rv := range r.meta.Regions[ri].Vars {
				if rv.Var == dd.v && rv.Lo <= dd.hi && dd.lo <= rv.Hi {
					clobbered = true
					break
				}
			}
		}
		if !clobbered {
			continue
		}
		reg := r.meta.Regions[dd.region+1]
		merged := false
		for i := range reg.Vars {
			if reg.Vars[i].Var == dd.v {
				if dd.lo < reg.Vars[i].Lo {
					reg.Vars[i].Lo = dd.lo
				}
				if dd.hi > reg.Vars[i].Hi {
					reg.Vars[i].Hi = dd.hi
				}
				merged = true
				break
			}
		}
		if !merged {
			reg.Vars = append(reg.Vars, task.RegionVar{Var: dd.v, Lo: dd.lo, Hi: dd.hi})
		}
	}
}

// LEAFir implements task.Exec (LEA-RAM is volatile; nothing to record).
func (r *recorder) LEAFir(_, _, _, _, _ int) {}

// LEARelu implements task.Exec.
func (r *recorder) LEARelu(_, _ int) {}

// LEADot implements task.Exec.
func (r *recorder) LEADot(_, _, _ int) int32 { return 0 }

// LEAMacs implements task.Exec.
func (r *recorder) LEAMacs(int64) {}

// ReadLEA implements task.Exec.
func (r *recorder) ReadLEA(int) uint16 { return 0 }

// WriteLEA implements task.Exec.
func (r *recorder) WriteLEA(int, uint16) {}

// Op implements task.Exec (no cost during analysis).
func (r *recorder) Op(time.Duration, units.Energy) {}

// Now implements task.Exec.
func (r *recorder) Now() time.Duration { return 0 }

// Rand implements task.Exec.
func (r *recorder) Rand() *rand.Rand { return r.rng }

// Next implements task.Exec.
func (r *recorder) Next(*task.Task) { r.transitioned = true }

// Done implements task.Exec.
func (r *recorder) Done() { r.transitioned = true }

// completeDependencies closes the declared I/O→I/O dependencies
// transitively and validates Exclude annotations.
func completeDependencies(app *task.App) {
	// Transitive closure over site dependencies (small graphs; cubic is
	// fine).
	changed := true
	for changed {
		changed = false
		for _, s := range app.Sites {
			for _, d := range s.DependsOn {
				for _, dd := range d.DependsOn {
					if dd != s && !containsSite(s.DependsOn, dd) {
						s.DependsOn = append(s.DependsOn, dd)
						changed = true
					}
				}
			}
		}
	}
}

func containsSite(list []*task.IOSite, s *task.IOSite) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func containsBlock(list []*task.IOBlock, b *task.IOBlock) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}

func containsDMA(list []*task.DMASite, d *task.DMASite) bool {
	for _, x := range list {
		if x == d {
			return true
		}
	}
	return false
}

// Static checks the paper leaves to the programmer or defers to future
// work (§6): Exclude safety, privatization-buffer sizing, dead
// annotations, and asynchronous-operation hazards. Lint runs on an
// analyzed application and returns findings; the severity Error marks
// programs the runtime would execute unsafely.

package frontend

import (
	"fmt"
	"sort"

	"easeio/internal/mem"
	"easeio/internal/task"
)

// Severity grades a lint finding.
type Severity int

const (
	// Warning marks suspicious but safe constructs (dead annotations,
	// wasted privatization).
	Warning Severity = iota
	// Error marks constructs the runtime executes unsafely or rejects at
	// run time (unsafe Exclude, privatization-buffer overflow).
	Error
)

// String names the severity.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Finding is one lint diagnostic.
type Finding struct {
	Severity Severity
	// Code is a stable identifier (e.g. "exclude-mutable-source").
	Code string
	// Subject names the site/DMA/block involved.
	Subject string
	Message string
}

// String renders the finding.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", f.Severity, f.Code, f.Subject, f.Message)
}

// LintConfig parameterizes the checks.
type LintConfig struct {
	// PrivBufWords is the configured DMA privatization buffer size; 0
	// disables the sizing check.
	PrivBufWords int
}

// Lint runs the static checks over an analyzed application. It records
// each task's DMA endpoints with a dedicated analysis pass, so the app
// must be analyzable (Analyze, a no-op on an analyzed app, runs first).
func Lint(app *task.App, cfg LintConfig) ([]Finding, error) {
	if err := Analyze(app); err != nil {
		return nil, err
	}
	var out []Finding
	transfers, err := collectTransfers(app)
	if err != nil {
		return nil, err
	}

	out = append(out, lintExclude(app, transfers)...)
	out = append(out, lintPrivBuf(app, transfers, cfg)...)
	out = append(out, lintDeadAnnotations(app)...)
	out = append(out, lintSingleWithoutValue(app)...)

	sort.SliceStable(out, func(i, j int) bool { return out[i].Severity > out[j].Severity })
	return out, nil
}

// transfer records one DMA invocation observed by an analysis run.
type transfer struct {
	taskID int
	d      *task.DMASite
	src    task.Loc
	dst    task.Loc
	words  int
}

// transferRecorder wraps the analysis recorder to capture DMA endpoints.
type transferRecorder struct {
	recorder
	taskID int
	out    *[]transfer
}

// DMACopy overrides the embedded recorder to also capture endpoints.
func (tr *transferRecorder) DMACopy(d *task.DMASite, src, dst task.Loc, words int) {
	*tr.out = append(*tr.out, transfer{taskID: tr.taskID, d: d, src: src, dst: dst, words: words})
	tr.recorder.DMACopy(d, src, dst, words)
}

func collectTransfers(app *task.App) ([]transfer, error) {
	var out []transfer
	for _, t := range app.Tasks {
		tr := &transferRecorder{taskID: t.ID, out: &out}
		tr.recorder = recorder{
			app:  app,
			meta: &task.TaskMeta{},
			rng:  newAnalysisRand(),
			seen: map[*task.NVVar]*varState{},
		}
		tr.recorder.openRegion(nil)
		if err := runBody(&tr.recorder, t, tr); err != nil {
			return nil, fmt.Errorf("frontend: lint pass, task %q: %w", t.Name, err)
		}
	}
	return out, nil
}

// runBody executes a task body against an arbitrary Exec, converting
// analysis panics into errors.
func runBody(rec *recorder, t *task.Task, e task.Exec) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if ae, ok := p.(analysisError); ok {
				err = fmt.Errorf("%s", string(ae))
				return
			}
			panic(p)
		}
	}()
	t.Body(e)
	if !rec.transitioned {
		return fmt.Errorf("body returned without Next/Done")
	}
	return nil
}

// locBank resolves the bank of a DMA endpoint (variables live in FRAM).
func locBank(l task.Loc) mem.Bank {
	if l.Var != nil {
		return mem.FRAM
	}
	return mem.Bank(l.RawBank)
}

// lintExclude: an Exclude annotation on a DMA whose non-volatile source
// is written anywhere in the application is unsafe — the re-executed copy
// can read clobbered data, exactly the WAR bug EaseIO exists to prevent.
func lintExclude(app *task.App, transfers []transfer) []Finding {
	written := map[*task.NVVar]bool{}
	for _, t := range app.Tasks {
		for _, v := range t.Meta.Writes {
			written[v] = true
		}
	}
	for _, tr := range transfers {
		if tr.dst.Var != nil {
			written[tr.dst.Var] = true
		}
	}
	var out []Finding
	for _, tr := range transfers {
		if !tr.d.Exclude || tr.src.Var == nil {
			continue
		}
		switch {
		case written[tr.src.Var]:
			out = append(out, Finding{
				Severity: Error,
				Code:     "exclude-mutable-source",
				Subject:  tr.d.Name,
				Message: fmt.Sprintf("Exclude skips privatization, but source %q is written "+
					"by the application; a re-executed copy can read clobbered data (§4.3)",
					tr.src.Var.Name),
			})
		case !tr.src.Var.Const:
			out = append(out, Finding{
				Severity: Warning,
				Code:     "exclude-unmarked-source",
				Subject:  tr.d.Name,
				Message: fmt.Sprintf("source %q is not declared Const; mark it with NVConst "+
					"to document why Exclude is safe", tr.src.Var.Name),
			})
		}
	}
	return out
}

// lintPrivBuf: the compile-time privatization-buffer sizing check the
// paper plans as future work (§6): the Private-classified transfers of
// each task must fit the shared buffer simultaneously.
func lintPrivBuf(app *task.App, transfers []transfer, cfg LintConfig) []Finding {
	if cfg.PrivBufWords <= 0 {
		return nil
	}
	need := map[int]int{}
	for _, tr := range transfers {
		if tr.d.Exclude {
			continue
		}
		// Private classification: non-volatile source, volatile
		// destination (§4.3 case ii).
		if locBank(tr.src) == mem.FRAM && locBank(tr.dst).Volatile() {
			need[tr.taskID] += tr.words
		}
	}
	var out []Finding
	for _, t := range app.Tasks {
		if n := need[t.ID]; n > cfg.PrivBufWords {
			out = append(out, Finding{
				Severity: Error,
				Code:     "priv-buffer-overflow",
				Subject:  t.Name,
				Message: fmt.Sprintf("task needs %d privatization-buffer words but the "+
					"configuration provides %d; raise Config.PrivBufWords or Exclude "+
					"constant transfers", n, cfg.PrivBufWords),
			})
		}
	}
	return out
}

// lintDeadAnnotations: a Single or Timely site inside a Single block
// never consults its own semantics once the block completes — the paper's
// precedence rules make the inner annotation mostly decorative.
func lintDeadAnnotations(app *task.App) []Finding {
	var out []Finding
	for _, b := range app.Blks {
		if b.Sem != task.Single {
			continue
		}
		for _, s := range b.Members {
			if s.Sem == task.Timely {
				out = append(out, Finding{
					Severity: Warning,
					Code:     "timely-inside-single-block",
					Subject:  s.Name,
					Message: fmt.Sprintf("Timely window inside Single block %q only applies "+
						"until the block first completes; re-executions are then governed by "+
						"the block (§3.3.1)", b.Name),
				})
			}
		}
	}
	return out
}

// lintSingleWithoutValue: a value-returning Single/Timely site whose
// result feeds control flow relies on value privatization; warn when the
// site is declared void but its semantics imply a skipped re-execution
// (nothing to restore is fine — this catches the inverse: Returns sites
// are fully supported — so the check looks for Always sites queried in
// loops, a common mistake).
func lintSingleWithoutValue(app *task.App) []Finding {
	var out []Finding
	for _, s := range app.Sites {
		if s.Instances > 1 && s.Sem == task.Always {
			out = append(out, Finding{
				Severity: Warning,
				Code:     "always-loop-site",
				Subject:  s.Name,
				Message: "an Always site declared with Loop re-executes every iteration " +
					"after every reboot; per-iteration lock flags only help Single/Timely (§6)",
			})
		}
	}
	return out
}

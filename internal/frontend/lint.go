// Static checks the paper leaves to the programmer or defers to future
// work (§6): Exclude safety, privatization-buffer sizing, dead
// annotations, and asynchronous-operation hazards. Lint runs on an
// analyzed application and returns findings; the severity Error marks
// programs the runtime would execute unsafely.

package frontend

import (
	"fmt"
	"sort"

	"easeio/internal/dma"
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

// Lint runs the static checks over an analyzed application (Analyze, a
// no-op on an analyzed app, runs first). It reads only the tasks'
// metadata — the DMA calls the analysis run recorded included — so it
// runs no task body.
func Lint(app *task.App, cfg LintConfig) ([]Finding, error) {
	if err := Analyze(app); err != nil {
		return nil, err
	}
	var out []Finding
	out = append(out, lintExclude(app)...)
	out = append(out, lintPrivBuf(app, cfg)...)
	out = append(out, lintDeadAnnotations(app)...)
	out = append(out, lintSingleWithoutValue(app)...)

	sort.SliceStable(out, func(i, j int) bool { return out[i].Severity > out[j].Severity })
	return out, nil
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
func lintExclude(app *task.App) []Finding {
	written := map[*task.NVVar]bool{}
	for _, t := range app.Tasks {
		for _, v := range t.Meta.Writes {
			written[v] = true
		}
		for _, c := range t.Meta.DMAs {
			if c.Dst.Var != nil {
				written[c.Dst.Var] = true
			}
		}
	}
	var out []Finding
	for _, t := range app.Tasks {
		for _, c := range t.Meta.DMAs {
			if !c.Site.Exclude || c.Src.Var == nil {
				continue
			}
			switch {
			case written[c.Src.Var]:
				out = append(out, Finding{
					Severity: Error,
					Code:     "exclude-mutable-source",
					Subject:  c.Site.Name,
					Message: fmt.Sprintf("Exclude skips privatization, but source %q is written "+
						"by the application; a re-executed copy can read clobbered data (§4.3)",
						c.Src.Var.Name),
				})
			case !c.Src.Var.Const:
				out = append(out, Finding{
					Severity: Warning,
					Code:     "exclude-unmarked-source",
					Subject:  c.Site.Name,
					Message: fmt.Sprintf("source %q is not declared Const; mark it with NVConst "+
						"to document why Exclude is safe", c.Src.Var.Name),
				})
			}
		}
	}
	return out
}

// lintPrivBuf: the compile-time privatization-buffer sizing check the
// paper plans as future work (§6): the Private-classified transfers of
// each task must fit the shared buffer simultaneously.
func lintPrivBuf(app *task.App, cfg LintConfig) []Finding {
	if cfg.PrivBufWords <= 0 {
		return nil
	}
	var out []Finding
	for _, t := range app.Tasks {
		n := 0
		for _, c := range t.Meta.DMAs {
			if !c.Site.Exclude && dma.Classify(locBank(c.Src), locBank(c.Dst)) == task.DMANonVolatileToVolatile {
				n += c.Words
			}
		}
		if n > cfg.PrivBufWords {
			out = append(out, Finding{
				Severity: Error,
				Code:     "priv-buffer-overflow",
				Subject:  t.Name,
				Message: fmt.Sprintf("task needs %d privatization-buffer words but the "+
					"buffer holds %d; Exclude constant transfers or split the task",
					n, cfg.PrivBufWords),
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

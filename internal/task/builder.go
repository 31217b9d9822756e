// Builder methods for assembling an application blueprint, plus the
// per-task metadata the compiler front-end fills in.

package task

import (
	"fmt"
	"time"
)

// AddTask appends a task with the given body. The first added task is the
// application entry point.
func (a *App) AddTask(name string, body Body) *Task {
	t := &Task{ID: len(a.Tasks), Name: name, Body: body, Meta: &TaskMeta{}}
	a.Tasks = append(a.Tasks, t)
	if a.entry == nil {
		a.entry = t
	}
	return t
}

// NVInt declares a one-word task-shared non-volatile variable.
func (a *App) NVInt(name string) *NVVar { return a.NVBuf(name, 1) }

// NVBuf declares a task-shared non-volatile buffer of the given number of
// 16-bit words.
func (a *App) NVBuf(name string, words int) *NVVar {
	if words <= 0 {
		panic(fmt.Sprintf("task: variable %q must have positive size", name))
	}
	v := &NVVar{ID: len(a.Vars), Name: name, Words: words}
	a.Vars = append(a.Vars, v)
	return v
}

// NVConst declares a constant non-volatile buffer with initial contents.
func (a *App) NVConst(name string, init []uint16) *NVVar {
	v := a.NVBuf(name, len(init))
	v.Init = append([]uint16(nil), init...)
	v.Const = true
	return v
}

// Sensed marks the variable time-sensitive (see NVVar.TimeSensitive) and
// returns it.
func (v *NVVar) Sensed() *NVVar {
	v.TimeSensitive = true
	return v
}

// WithInit sets a variable's initial contents and returns it.
func (v *NVVar) WithInit(init []uint16) *NVVar {
	if len(init) > v.Words {
		panic(fmt.Sprintf("task: init for %q longer than variable", v.Name))
	}
	v.Init = append([]uint16(nil), init...)
	return v
}

// IO declares an I/O call site with the given semantic. For Timely sites
// use TimelyIO.
func (a *App) IO(name string, sem Semantic, returns bool, exec func(Exec, int) uint16) *IOSite {
	if sem == Timely {
		panic("task: use TimelyIO for Timely sites (a window is required)")
	}
	return a.addSite(name, sem, 0, returns, exec)
}

// TimelyIO declares a Timely I/O call site with a freshness window.
func (a *App) TimelyIO(name string, window time.Duration, returns bool, exec func(Exec, int) uint16) *IOSite {
	if window <= 0 {
		panic(fmt.Sprintf("task: Timely site %q needs a positive window", name))
	}
	return a.addSite(name, Timely, window, returns, exec)
}

func (a *App) addSite(name string, sem Semantic, window time.Duration, returns bool, exec func(Exec, int) uint16) *IOSite {
	s := &IOSite{
		ID: len(a.Sites), Name: name, Sem: sem, Window: window,
		Returns: returns, Instances: 1, Exec: exec,
	}
	a.Sites = append(a.Sites, s)
	return s
}

// Loop marks the site as invoked inside a loop with n dynamic instances.
func (s *IOSite) Loop(n int) *IOSite {
	if n <= 0 {
		panic(fmt.Sprintf("task: site %q loop count must be positive", s.Name))
	}
	s.Instances = n
	return s
}

// Fresh declares the site's staleness bound (see IOSite.Freshness): a
// task that commits while holding the site's value more than bound after
// its last physical sample violates the application's freshness
// specification. Validate rejects bounds on sites that return no value.
func (s *IOSite) Fresh(bound time.Duration) *IOSite {
	s.Freshness = bound
	return s
}

// After declares data dependencies: this site must re-execute whenever any
// of the listed sites re-executes.
func (s *IOSite) After(deps ...*IOSite) *IOSite {
	s.DependsOn = append(s.DependsOn, deps...)
	return s
}

// Block declares an I/O block with the given semantic.
func (a *App) Block(name string, sem Semantic) *IOBlock {
	if sem == Timely {
		panic("task: use TimelyBlock for Timely blocks (a window is required)")
	}
	b := &IOBlock{ID: len(a.Blks), Name: name, Sem: sem}
	a.Blks = append(a.Blks, b)
	return b
}

// TimelyBlock declares a Timely I/O block with a freshness window.
func (a *App) TimelyBlock(name string, window time.Duration) *IOBlock {
	if window <= 0 {
		panic(fmt.Sprintf("task: Timely block %q needs a positive window", name))
	}
	b := &IOBlock{ID: len(a.Blks), Name: name, Sem: Timely, Window: window}
	a.Blks = append(a.Blks, b)
	return b
}

// DMA declares a DMA copy site.
func (a *App) DMA(name string) *DMASite {
	d := &DMASite{ID: len(a.DMAs), Name: name}
	a.DMAs = append(a.DMAs, d)
	return d
}

// Excluded marks the DMA as excluded from privatization (constant data).
func (d *DMASite) Excluded() *DMASite {
	d.Exclude = true
	return d
}

// AfterIO declares that this DMA copies data produced by the given I/O
// sites (RelatedConstFlag dependence, §4.3.1).
func (d *DMASite) AfterIO(deps ...*IOSite) *DMASite {
	d.DependsOn = append(d.DependsOn, deps...)
	return d
}

// Validate performs basic structural checks on the blueprint.
func (a *App) Validate() error {
	if len(a.Tasks) == 0 {
		return fmt.Errorf("task: app %q has no tasks", a.Name)
	}
	for _, t := range a.Tasks {
		if t.Body == nil {
			return fmt.Errorf("task: task %q has no body", t.Name)
		}
	}
	for _, s := range a.Sites {
		if s.Exec == nil {
			return fmt.Errorf("task: I/O site %q has no exec function", s.Name)
		}
		if s.Freshness < 0 {
			return fmt.Errorf("task: I/O site %q has a negative freshness bound %v", s.Name, s.Freshness)
		}
		if s.Freshness > 0 && !s.Returns {
			return fmt.Errorf("task: I/O site %q declares a freshness bound but returns no value", s.Name)
		}
	}
	return nil
}

// DeclaresFreshness reports whether any I/O site carries a staleness
// bound — the gate for the checker's freshness oracle.
func (a *App) DeclaresFreshness() bool {
	for _, s := range a.Sites {
		if s.Freshness > 0 {
			return true
		}
	}
	return false
}

// TaskMeta is the per-task metadata the compiler front-end computes from an
// analysis run (internal/frontend). The runtimes consume it: Alpaca
// privatizes WAR, InK double-buffers Reads∪Writes, EaseIO privatizes
// per region.
type TaskMeta struct {
	// Analyzed is set once the front-end has processed the task.
	Analyzed bool
	// Sites lists the I/O sites the task invokes, in first-encounter
	// order.
	Sites []*IOSite
	// Blocks lists the I/O blocks the task opens.
	Blocks []*IOBlock
	// DMAs lists the task's DMA calls in execution order. Call i ends
	// region i, so its completion region is i+1.
	DMAs []DMACall
	// Reads and Writes are the task-shared variables the task accesses
	// through the CPU (DMA accesses are tracked per region instead).
	Reads, Writes []*NVVar
	// WAR lists variables with a write-after-read dependence inside the
	// task — the set Alpaca privatizes.
	WAR []*NVVar
	// Regions partitions the task at its DMA calls: N calls yield N+1
	// regions (§4.4), region i ending at DMAs[i]. Tasks without DMAs have
	// a single region covering the whole body.
	Regions []*RegionMeta
}

// DMACall is one DMA call of a task, as the analysis run observed it:
// the site and the transfer's endpoints and length.
type DMACall struct {
	Site     *DMASite
	Src, Dst Loc
	Words    int
}

// RegionVar is one privatized word range of a non-volatile variable
// within a region. The front-end records the exact accessed range, so a
// region that reads b[0] privatizes one word, not the whole buffer —
// matching the paper's per-access privatization copies (§4.5.1, Figure 6).
type RegionVar struct {
	Var *NVVar
	// Lo and Hi bound the accessed words (inclusive).
	Lo, Hi int
}

// Words returns the privatized range length.
func (rv RegionVar) Words() int { return rv.Hi - rv.Lo + 1 }

// RegionMeta describes one privatization region of a task. Every region
// but the last ends at the task's DMA call of the same index
// (TaskMeta.DMAs).
type RegionMeta struct {
	// Index is the region's position within the task (0-based).
	Index int
	// Vars lists the non-volatile word ranges the CPU accesses within the
	// region; EaseIO privatizes them at region entry.
	Vars []RegionVar
}

// Program is the frozen output of the compiler front-end: the per-task
// analysis metadata of one App, computed exactly once and immutable from
// then on. The blueprint/instance split rests on it — an analyzed App plus
// its Program can be shared by any number of concurrent simulations while
// all per-run mutable state lives in the runtime instances and devices.

package task

import (
	"fmt"
	"time"
)

// The flat program tables: everything a runtime needs per I/O site, DMA
// site, variable or task, addressable by the dense IDs the builder
// assigned at declaration time. The tables are computed once when the
// program is frozen, so the per-run hot paths index arrays instead of
// chasing blueprint pointers or hashing map keys (DESIGN.md §14).

// VarInfo is the frozen per-variable record: var ID → word span.
type VarInfo struct {
	// Words is the variable's size in 16-bit words.
	Words int
}

// SiteInfo is the frozen per-I/O-site record: site ID → semantic,
// freshness window, value shape and bookkeeping slot placement.
type SiteInfo struct {
	Sem     Semantic
	Window  time.Duration
	Returns bool
	// Instances is the site's dynamic loop instance count (≥ 1).
	Instances int
	// SlotBase is the site's first bookkeeping slot: dynamic instance idx
	// of this site uses slot SlotBase+idx in every per-run slot array
	// sized by Program.IOSlots.
	SlotBase int
	// Deps lists the IDs of the sites this one depends on (the frozen
	// transitive closure of IOSite.DependsOn).
	Deps []int32
}

// BlockInfo is the frozen per-I/O-block record.
type BlockInfo struct {
	Sem    Semantic
	Window time.Duration
	// Members and SubBlocks list member site and nested block IDs.
	Members   []int32
	SubBlocks []int32
}

// DMAInfo is the frozen per-DMA-site record. A DMA site has exactly one
// dynamic instance, so it owns a single bookkeeping slot.
type DMAInfo struct {
	Exclude bool
	// Slot is the site's bookkeeping slot (placed after all I/O site
	// slots).
	Slot int
	// Deps lists the IDs of the I/O sites whose output feeds this DMA.
	Deps []int32
}

// TaskInfo is the frozen per-task record: the analysis sets of TaskMeta
// re-expressed as dense ID lists.
type TaskInfo struct {
	// Sites, Blocks and DMAs list the IDs the task touches, in the
	// front-end's first-encounter order (matching TaskMeta).
	Sites  []int32
	Blocks []int32
	DMAs   []int32
	// Reads, Writes and WAR list variable IDs in app declaration order
	// (matching TaskMeta.Reads/Writes/WAR).
	Reads  []int32
	Writes []int32
	WAR    []int32
}

// Program holds the frozen per-task metadata of an analyzed App, indexed
// by task ID, plus the flat dense-ID tables derived from it. Runtimes
// read all analysis results (I/O sites, WAR sets, DMA regions) through
// it; nothing mutates it after FreezeProgram.
type Program struct {
	app   *App
	metas []*TaskMeta

	vars    []VarInfo
	sites   []SiteInfo
	blocks  []BlockInfo
	dmas    []DMAInfo
	tasks   []TaskInfo
	ioSlots int
}

// App returns the blueprint this program was compiled from.
func (p *Program) App() *App { return p.app }

// MetaOf returns the frozen metadata of task t.
func (p *Program) MetaOf(t *Task) *TaskMeta {
	if t.ID < 0 || t.ID >= len(p.metas) {
		panic(fmt.Sprintf("task: %q is not a task of program %q", t.Name, p.app.Name))
	}
	return p.metas[t.ID]
}

// Tasks returns the number of tasks the program covers.
func (p *Program) Tasks() int { return len(p.metas) }

// Vars returns the number of task-shared variables the program covers.
func (p *Program) Vars() int { return len(p.vars) }

// VarInfo returns the frozen record of variable ID id.
func (p *Program) VarInfo(id int) *VarInfo { return &p.vars[id] }

// SiteInfo returns the frozen record of I/O site ID id.
func (p *Program) SiteInfo(id int) *SiteInfo { return &p.sites[id] }

// BlockInfo returns the frozen record of I/O block ID id.
func (p *Program) BlockInfo(id int) *BlockInfo { return &p.blocks[id] }

// DMAInfo returns the frozen record of DMA site ID id.
func (p *Program) DMAInfo(id int) *DMAInfo { return &p.dmas[id] }

// TaskInfo returns the frozen record of task ID id.
func (p *Program) TaskInfo(id int) *TaskInfo { return &p.tasks[id] }

// IOSlots returns the total number of per-run bookkeeping slots: one per
// dynamic I/O site instance plus one per DMA site. Runtimes size their
// flat per-run state arrays with it.
func (p *Program) IOSlots() int { return p.ioSlots }

// SiteSlot returns the bookkeeping slot of dynamic instance idx of site s.
func (p *Program) SiteSlot(s *IOSite, idx int) int {
	return p.sites[s.ID].SlotBase + idx
}

// DMASlot returns the bookkeeping slot of DMA site d.
func (p *Program) DMASlot(d *DMASite) int { return p.dmas[d.ID].Slot }

// idsOfSites maps a site list to its IDs.
func idsOfSites(sites []*IOSite) []int32 {
	if len(sites) == 0 {
		return nil
	}
	ids := make([]int32, len(sites))
	for i, s := range sites {
		ids[i] = int32(s.ID)
	}
	return ids
}

// idsOfVars maps a variable list to its IDs.
func idsOfVars(vars []*NVVar) []int32 {
	if len(vars) == 0 {
		return nil
	}
	ids := make([]int32, len(vars))
	for i, v := range vars {
		ids[i] = int32(v.ID)
	}
	return ids
}

// buildTables compiles the flat dense-ID tables from the blueprint and
// the (frozen or hand-set) per-task metadata. IDs were assigned densely
// at declaration time by the builder; this pass only lays out the
// bookkeeping slots and re-expresses the pointer-based analysis sets as
// ID lists.
func (p *Program) buildTables() {
	app, metas := p.app, p.metas

	p.vars = make([]VarInfo, len(app.Vars))
	for i, v := range app.Vars {
		p.vars[i] = VarInfo{Words: v.Words}
	}

	p.sites = make([]SiteInfo, len(app.Sites))
	slot := 0
	for i, s := range app.Sites {
		p.sites[i] = SiteInfo{
			Sem:       s.Sem,
			Window:    s.Window,
			Returns:   s.Returns,
			Instances: s.Instances,
			SlotBase:  slot,
			Deps:      idsOfSites(s.DependsOn),
		}
		slot += s.Instances
	}

	p.blocks = make([]BlockInfo, len(app.Blks))
	for i, blk := range app.Blks {
		subs := make([]int32, len(blk.SubBlocks))
		for j, sb := range blk.SubBlocks {
			subs[j] = int32(sb.ID)
		}
		if len(subs) == 0 {
			subs = nil
		}
		p.blocks[i] = BlockInfo{
			Sem:       blk.Sem,
			Window:    blk.Window,
			Members:   idsOfSites(blk.Members),
			SubBlocks: subs,
		}
	}

	p.dmas = make([]DMAInfo, len(app.DMAs))
	for i, d := range app.DMAs {
		p.dmas[i] = DMAInfo{
			Exclude: d.Exclude,
			Slot:    slot,
			Deps:    idsOfSites(d.DependsOn),
		}
		slot++
	}
	p.ioSlots = slot

	p.tasks = make([]TaskInfo, len(metas))
	for i, m := range metas {
		dmas := make([]int32, len(m.DMAs))
		for j, d := range m.DMAs {
			dmas[j] = int32(d.ID)
		}
		if len(dmas) == 0 {
			dmas = nil
		}
		blks := make([]int32, len(m.Blocks))
		for j, blk := range m.Blocks {
			blks[j] = int32(blk.ID)
		}
		if len(blks) == 0 {
			blks = nil
		}
		p.tasks[i] = TaskInfo{
			Sites:  idsOfSites(m.Sites),
			Blocks: blks,
			DMAs:   dmas,
			Reads:  idsOfVars(m.Reads),
			Writes: idsOfVars(m.Writes),
			WAR:    idsOfVars(m.WAR),
		}
	}
}

// Program returns the frozen analysis attached by the front-end, or nil
// if the app has not been analyzed yet.
func (a *App) Program() *Program { return a.program }

// FreezeProgram attaches per-task metadata to the app as its frozen
// Program. The front-end calls it at the end of its single analysis pass;
// calling it again is an error ("analyze once"). Each task's Meta pointer
// is redirected to the frozen record, so code holding a *Task observes
// the same metadata the Program serves.
func FreezeProgram(app *App, metas []*TaskMeta) (*Program, error) {
	if app.program != nil {
		return nil, fmt.Errorf("task: app %q already has a frozen program", app.Name)
	}
	if len(metas) != len(app.Tasks) {
		return nil, fmt.Errorf("task: app %q has %d tasks but %d metadata records",
			app.Name, len(app.Tasks), len(metas))
	}
	p := &Program{app: app, metas: metas}
	p.buildTables()
	for i, t := range app.Tasks {
		t.Meta = metas[i]
	}
	app.program = p
	return p, nil
}

// ViewProgram builds a Program view over the tasks' current Meta records
// without freezing the app — the adapter for blueprints whose metadata was
// filled in by hand (tests) rather than by the front-end.
func ViewProgram(app *App) (*Program, error) {
	metas := make([]*TaskMeta, len(app.Tasks))
	for i, t := range app.Tasks {
		if t.Meta == nil || !t.Meta.Analyzed {
			return nil, fmt.Errorf("task %q not analyzed; run frontend.Analyze first", t.Name)
		}
		metas[i] = t.Meta
	}
	p := &Program{app: app, metas: metas}
	p.buildTables()
	return p, nil
}

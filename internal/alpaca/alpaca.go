// Package alpaca implements the Alpaca baseline runtime (Maeng, Colin,
// Lucia — OOPSLA 2017), one of the two state-of-the-art systems the paper
// compares against.
//
// Alpaca gives tasks all-or-nothing semantics by privatizing the
// task-shared variables that carry a write-after-read (WAR) dependence
// inside the task: at task entry each WAR variable is copied into a
// private buffer, CPU accesses are redirected to the private copy, and the
// copy commits back to the master at the task transition. Variables
// without WAR dependences are accessed in place — re-executing their
// writes is idempotent.
//
// Alpaca has no notion of peripheral operations: every I/O call and every
// DMA transfer inside an interrupted task simply re-executes (Table 1).
// DMA writes land on master copies directly, bypassing privatization,
// which is exactly the idempotence-bug surface §2.1.2 describes.
package alpaca

import (
	"easeio/internal/kernel"
	"easeio/internal/mcu"
	"easeio/internal/mem"
	"easeio/internal/rtbase"
	"easeio/internal/task"
)

// Runtime is one per-run Alpaca instance. All state is held in flat
// slices indexed by the program's dense task and variable IDs; the
// per-attempt privatization set is epoch-stamped instead of cleared, so
// resetting it is a single counter bump.
type Runtime struct {
	rtbase.Base

	// priv holds the private copy addresses: priv[taskID][i] backs the
	// i-th variable of that task's WAR list.
	priv [][]mem.Addr
	// active/dirty are per-variable epoch stamps: a variable is
	// privatized (resp. written) this attempt iff its stamp equals epoch.
	// Bumping epoch empties both sets at once (volatile state, rebuilt by
	// BeginTask after every boot, mirroring Alpaca's task-entry
	// privatization pass).
	active  []mem.Addr
	activeE []uint32
	dirtyE  []uint32
	epoch   uint32
	// commits is the reusable commit scratch buffer.
	commits []commitEntry
	// curTask is the task being executed (for deterministic commit order).
	curTask *task.Task
}

type commitEntry struct {
	v *task.NVVar
	p mem.Addr
}

// New returns a fresh Alpaca runtime.
func New() *Runtime { return &Runtime{} }

var _ kernel.Hooks = (*Runtime)(nil)

// Name implements kernel.Hooks.
func (r *Runtime) Name() string { return "Alpaca" }

// Attach implements kernel.Hooks: allocates master copies plus one private
// buffer per (task, WAR variable) pair.
func (r *Runtime) Attach(dev *kernel.Device, app *task.App) error {
	if err := r.Init(dev, app); err != nil {
		return err
	}
	r.priv = make([][]mem.Addr, len(app.Tasks))
	r.active = make([]mem.Addr, len(app.Vars))
	r.activeE = make([]uint32, len(app.Vars))
	r.dirtyE = make([]uint32, len(app.Vars))
	r.epoch = 1 // zero stamps in the fresh slices never match
	for _, t := range app.Tasks {
		war := t.Meta.WAR
		if len(war) == 0 {
			continue
		}
		r.priv[t.ID] = make([]mem.Addr, len(war))
		for i, v := range war {
			r.priv[t.ID][i] = dev.Mem.Alloc(mem.FRAM, v.Words)
		}
	}
	return nil
}

// bumpEpoch empties the active and dirty sets in O(1). On the (rare)
// uint32 wraparound the stamp slices are flushed so stale stamps from
// 2^32 attempts ago cannot collide with the restarted epoch.
func (r *Runtime) bumpEpoch() {
	r.epoch++
	if r.epoch == 0 {
		clear(r.activeE)
		clear(r.dirtyE)
		r.epoch = 1
	}
}

// OnBoot implements kernel.Hooks: the private buffers are durable FRAM
// words, which a reset or restore brings back with the device, and the
// epoch bump here empties the privatization maps after either.
func (r *Runtime) OnBoot(c *kernel.Ctx) {
	r.LoadBoot(c)
	r.bumpEpoch()
}

// BeginTask implements kernel.Hooks: privatize the task's WAR variables.
// The copy is charged first and applied afterwards, so an interrupted
// privatization leaves no partial state (the real Alpaca achieves this by
// re-running privatization idempotently from the master copies).
func (r *Runtime) BeginTask(c *kernel.Ctx, t *task.Task) {
	r.bumpEpoch()
	r.curTask = t
	for wi, v := range t.Meta.WAR {
		p := r.priv[t.ID][wi]
		c.ChargeOverheadCycles(int64(v.Words) * mcu.PrivatizeWordCycles)
		master := r.MasterAddr(v)
		for i := 0; i < v.Words; i++ {
			r.Dev.Mem.Write(p.Add(i), r.Dev.Mem.Read(master.Add(i)))
		}
		r.active[v.ID] = p
		r.activeE[v.ID] = r.epoch
	}
}

// Transition implements kernel.Hooks: commit dirty private copies back to
// the masters, then advance the task pointer (pseudo-atomically, see
// rtbase).
func (r *Runtime) Transition(c *kernel.Ctx, next *task.Task) {
	r.commits = r.commits[:0]
	if r.curTask != nil {
		for _, v := range r.curTask.Meta.WAR {
			if r.activeE[v.ID] != r.epoch || r.dirtyE[v.ID] != r.epoch {
				continue
			}
			c.ChargeOverheadCycles(int64(v.Words) * mcu.CommitWordCycles)
			r.commits = append(r.commits, commitEntry{v, r.active[v.ID]})
		}
	}
	r.CommitTransition(c, next, func() {
		for _, e := range r.commits {
			master := r.MasterAddr(e.v)
			for i := 0; i < e.v.Words; i++ {
				r.Dev.Mem.Write(master.Add(i), r.Dev.Mem.Read(e.p.Add(i)))
			}
		}
	})
	r.bumpEpoch()
}

func (r *Runtime) addrFor(v *task.NVVar) mem.Addr {
	if r.activeE[v.ID] == r.epoch {
		return r.active[v.ID]
	}
	return r.MasterAddr(v)
}

// Load implements kernel.Hooks.
func (r *Runtime) Load(c *kernel.Ctx, v *task.NVVar, i int) uint16 {
	c.ChargeMemAccess(mem.FRAM, false, false)
	return r.Dev.Mem.Read(r.addrFor(v).Add(i))
}

// LoadRun implements kernel.Hooks. The privatization decision (addrFor)
// is constant across a pure load run — loads never flip a variable's
// active epoch — so the failure-free prefix reads through one address.
func (r *Runtime) LoadRun(c *kernel.Ctx, v *task.NVVar, off, n int) uint16 {
	s, free := c.LoadPrefix(r.addrFor(v).Add(off), n, false)
	for j := free; j < n; j++ {
		s += r.Load(c, v, off+j)
	}
	return s
}

// Store implements kernel.Hooks.
func (r *Runtime) Store(c *kernel.Ctx, v *task.NVVar, i int, val uint16) {
	c.ChargeMemAccess(mem.FRAM, true, false)
	if r.activeE[v.ID] == r.epoch {
		r.dirtyE[v.ID] = r.epoch
	}
	r.Dev.Mem.Write(r.addrFor(v).Add(i), val)
}

// CallIO implements kernel.Hooks: Alpaca always (re-)executes peripheral
// operations.
func (r *Runtime) CallIO(c *kernel.Ctx, s *task.IOSite, idx int) uint16 {
	return r.ExecIO(c, s, idx)
}

// DMACopy implements kernel.Hooks: a plain transfer to/from master copies.
func (r *Runtime) DMACopy(c *kernel.Ctx, d *task.DMASite, src, dst task.Loc, words int) {
	r.ExecDMA(c, d, c.ResolveLoc(src), c.ResolveLoc(dst), words)
}

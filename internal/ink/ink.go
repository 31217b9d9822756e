// Package ink implements the InK baseline runtime (Yildirim et al. —
// SenSys 2018), the second state-of-the-art system the paper compares
// against.
//
// InK keeps task-shared state consistent with double buffering: every
// variable has two FRAM copies and a persistent index word selecting the
// committed ("active") one. A task's first write to a variable copies the
// active buffer into the shadow, further accesses go to the shadow, and
// the task transition flips the index words — a cheap, failure-atomic
// commit. An interrupted task leaves the active copies untouched.
//
// Like Alpaca, InK re-executes all peripheral I/O and all DMA transfers on
// every re-attempt, and DMA writes bypass the double buffering (they hit
// whichever copy is active at transfer time), so WAR bugs through DMA
// survive (Table 1).
//
// Simplification note: the real InK is a *reactive* kernel — task threads
// activated by events and scheduled by priority. The paper's benchmarks
// exercise it as a sequential task chain (Table 3), which is the part
// modeled here; the event scheduler adds no behaviour the evaluation
// measures.
package ink

import (
	"easeio/internal/kernel"
	"easeio/internal/mcu"
	"easeio/internal/mem"
	"easeio/internal/rtbase"
	"easeio/internal/task"
)

// Runtime is one per-run InK instance. All state lives in flat slices
// indexed by the program's dense variable IDs; the per-attempt dirty set
// is epoch-stamped so clearing it is a single counter bump.
type Runtime struct {
	rtbase.Base

	shadow []mem.Addr // second buffer, by variable ID
	index  []mem.Addr // persistent index word, by variable ID
	// dirtyE stamps variables written (shadowed) this attempt: dirty iff
	// the stamp equals epoch.
	dirtyE []uint32
	epoch  uint32
	// flips is the reusable commit scratch buffer.
	flips []*task.NVVar
	cur   *task.Task
}

// New returns a fresh InK runtime.
func New() *Runtime { return &Runtime{} }

var _ kernel.Hooks = (*Runtime)(nil)

// Name implements kernel.Hooks.
func (r *Runtime) Name() string { return "InK" }

// Attach implements kernel.Hooks: every task-shared variable gets a shadow
// buffer and an index word — the double-buffer footprint that makes InK's
// FRAM usage the largest in Table 6.
func (r *Runtime) Attach(dev *kernel.Device, app *task.App) error {
	if err := r.Init(dev, app); err != nil {
		return err
	}
	r.shadow = make([]mem.Addr, len(app.Vars))
	r.index = make([]mem.Addr, len(app.Vars))
	r.dirtyE = make([]uint32, len(app.Vars))
	r.epoch = 1 // zero stamps in the fresh slice never match
	for i, v := range app.Vars {
		r.shadow[i] = dev.Mem.Alloc(mem.FRAM, v.Words)
		r.index[i] = dev.Mem.Alloc(mem.FRAM, 1)
	}
	return nil
}

// bumpEpoch empties the dirty set in O(1); on uint32 wraparound the
// stamps are flushed so ancient epochs cannot collide.
func (r *Runtime) bumpEpoch() {
	r.epoch++
	if r.epoch == 0 {
		clear(r.dirtyE)
		r.epoch = 1
	}
}

// activeAddr returns the committed copy's address (index word 0 = master,
// 1 = shadow buffer).
func (r *Runtime) activeAddr(v *task.NVVar) mem.Addr {
	if r.Dev.Mem.Read(r.index[v.ID]) == 0 {
		return r.MasterAddr(v)
	}
	return r.shadow[v.ID]
}

// inactiveAddr returns the working copy's address.
func (r *Runtime) inactiveAddr(v *task.NVVar) mem.Addr {
	if r.Dev.Mem.Read(r.index[v.ID]) == 0 {
		return r.shadow[v.ID]
	}
	return r.MasterAddr(v)
}

// OnBoot implements kernel.Hooks: the index words and shadow buffers are
// durable FRAM words, which a reset or restore brings back with the
// device, and the epoch bump here empties the dirty set after either.
func (r *Runtime) OnBoot(c *kernel.Ctx) {
	r.LoadBoot(c)
	r.bumpEpoch()
}

// BeginTask implements kernel.Hooks: InK defers its copying to the first
// write of each variable, so task entry is cheap.
func (r *Runtime) BeginTask(c *kernel.Ctx, t *task.Task) {
	r.bumpEpoch()
	r.cur = t
}

// Transition implements kernel.Hooks: flip the index word of every dirty
// variable. The flips are charged first and applied pseudo-atomically with
// the task-pointer update (see rtbase).
func (r *Runtime) Transition(c *kernel.Ctx, next *task.Task) {
	r.flips = r.flips[:0]
	if r.cur != nil {
		for _, v := range r.cur.Meta.Writes {
			if r.dirtyE[v.ID] == r.epoch {
				c.ChargeMemAccess(mem.FRAM, true, true)
				r.flips = append(r.flips, v)
			}
		}
	}
	r.CommitTransition(c, next, func() {
		for _, v := range r.flips {
			idx := r.index[v.ID]
			r.Dev.Mem.Write(idx, 1-r.Dev.Mem.Read(idx))
		}
	})
	r.bumpEpoch()
}

// Load implements kernel.Hooks: reads hit the working copy if this attempt
// wrote the variable, otherwise the committed copy. The index lookup costs
// one extra FRAM read — InK's per-access overhead.
func (r *Runtime) Load(c *kernel.Ctx, v *task.NVVar, i int) uint16 {
	c.ChargeMemAccess(mem.FRAM, false, true) // index word
	c.ChargeMemAccess(mem.FRAM, false, false)
	return r.Dev.Mem.Read(r.loadAddr(v).Add(i))
}

// loadAddr returns the copy loads read: the working copy if this attempt
// wrote the variable, otherwise the committed copy.
func (r *Runtime) loadAddr(v *task.NVVar) mem.Addr {
	if r.dirtyE[v.ID] == r.epoch {
		return r.inactiveAddr(v)
	}
	return r.activeAddr(v)
}

// LoadRun implements kernel.Hooks: each word is an indexed bundle (the
// index-word read, then the data read). The working-copy decision is
// constant across a pure load run — loads never dirty a variable — so
// the failure-free prefix reads through one address.
func (r *Runtime) LoadRun(c *kernel.Ctx, v *task.NVVar, off, n int) uint16 {
	s, free := c.LoadPrefix(r.loadAddr(v).Add(off), n, true)
	for j := free; j < n; j++ {
		s += r.Load(c, v, off+j)
	}
	return s
}

// Store implements kernel.Hooks: the first write to a variable copies the
// committed buffer into the working buffer (so partially-written variables
// keep their untouched words), then the write lands on the working copy.
func (r *Runtime) Store(c *kernel.Ctx, v *task.NVVar, i int, val uint16) {
	c.ChargeMemAccess(mem.FRAM, false, true) // index word
	if r.dirtyE[v.ID] != r.epoch {
		c.ChargeOverheadCycles(int64(v.Words) * mcu.PrivatizeWordCycles)
		src, dst := r.activeAddr(v), r.inactiveAddr(v)
		for w := 0; w < v.Words; w++ {
			r.Dev.Mem.Write(dst.Add(w), r.Dev.Mem.Read(src.Add(w)))
		}
		r.dirtyE[v.ID] = r.epoch
	}
	c.ChargeMemAccess(mem.FRAM, true, false)
	r.Dev.Mem.Write(r.inactiveAddr(v).Add(i), val)
}

// AddrOf implements kernel.Hooks: the DMA controller is configured with
// the committed copy's address — it knows nothing of InK's buffers.
func (r *Runtime) AddrOf(v *task.NVVar) mem.Addr { return r.activeAddr(v) }

// CallIO implements kernel.Hooks: InK always (re-)executes peripherals.
func (r *Runtime) CallIO(c *kernel.Ctx, s *task.IOSite, idx int) uint16 {
	return r.ExecIO(c, s, idx)
}

// DMACopy implements kernel.Hooks.
func (r *Runtime) DMACopy(c *kernel.Ctx, d *task.DMASite, src, dst task.Loc, words int) {
	r.ExecDMA(c, d, c.ResolveLoc(src), c.ResolveLoc(dst), words)
}

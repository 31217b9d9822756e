// Package core implements the EaseIO runtime — the paper's contribution.
//
// EaseIO extends the task-based execution model with:
//
//   - Re-execution semantics for I/O (§3.1, §4.2): every _call_IO site
//     carries Single, Timely(Δt) or Always semantics. Completion is
//     tracked with a per-site (per loop instance) lock flag in FRAM;
//     Timely sites additionally store a persistent timestamp. Completed
//     Single/Timely operations are skipped after reboots, and sites with
//     return values restore the last value from a non-volatile private
//     copy — which also keeps control flow on the branch the original
//     execution took (§3.5).
//   - I/O blocks with semantic precedence (§3.3, §4.2.1): a block's
//     semantic has higher scope than its members'. A completed, valid
//     block skips entirely (members restore their values); a violated
//     Timely block clears its members' lock flags so everything inside
//     re-executes.
//   - Data-dependence re-execution (§3.3.2, §4.3.1): every site keeps a
//     generation counter bumped on execution; dependent sites and DMAs
//     snapshot their dependencies' generations and re-execute on mismatch.
//   - Memory-safe DMA (§4.3): _DMA_copy classifies endpoints at run time —
//     destination in FRAM ⇒ Single; FRAM→volatile ⇒ Private (two-phase
//     copy through a privatization buffer); volatile→volatile ⇒ Always.
//     The Exclude annotation opts constant data out of privatization.
//   - Regional privatization (§4.4): a task with N DMAs is split into N+1
//     regions. At region entry the runtime either snapshots all
//     non-volatile variables the region touches (first entry) or restores
//     them (re-entry after a power failure). The region flag doubles as
//     the preceding DMA's completion marker, making "DMA executed" and
//     "its effects are recoverable" a single atomic fact.
//
// Durable flags are versioned rather than cleared: each task has a
// non-volatile instance counter, and a flag is "set" when it equals the
// counter. Committing a task bumps the counter — one FRAM write
// invalidates every flag of that task at once, exactly what a fresh
// dynamic instance needs.
package core

import (
	"fmt"
	"time"

	"easeio/internal/dma"
	"easeio/internal/kernel"
	"easeio/internal/mcu"
	"easeio/internal/mem"
	"easeio/internal/rtbase"
	"easeio/internal/task"
)

// PrivBufWords is the size of the shared DMA privatization buffer (§4.3
// case ii): the paper's evaluation uses 4 KB (§5.4.5). An app with no
// DMA sites gets no buffer.
const PrivBufWords = 4 * 1024 / 2

// Runtime is one per-run EaseIO instance. All attach-time metadata lives
// in flat slices indexed by the blueprint's dense IDs (site, block, DMA,
// task), so the per-I/O hot paths never hash pointers.
type Runtime struct {
	rtbase.Base

	sites   []siteMeta     // by I/O site ID
	blocks  []blockMeta    // by I/O block ID
	dmas    []dmaMeta      // by DMA site ID
	regions [][]regionMeta // by task ID, then region index
	// instCtr maps task ID to the NV instance-counter address.
	instCtr []mem.Addr

	// privBuf is the shared DMA privatization buffer.
	privBuf mem.Addr
	// privBufNext is the persistent bump pointer into the buffer.
	privBufNext mem.Addr

	// Volatile per-attempt state.
	curTask        *task.Task
	blockSkipDepth int
}

// siteMeta holds the FRAM metadata of one I/O site: per-instance flag,
// value and timestamp slots, plus a site-wide generation counter and
// per-instance dependence snapshots. site points at the analyzed
// blueprint site (semantic, window, instance count, dependences) and is
// nil for sites the analysis did not attach to a task; owner is the
// owning task's ID (flags are versioned against that task's instance
// counter).
type siteMeta struct {
	site  *task.IOSite
	owner int32
	flags mem.Addr // Instances words
	gen   mem.Addr // 1 word
	vals  mem.Addr // Instances words (if Returns)
	ts    mem.Addr // Instances × 4 words (if Timely)
	snaps mem.Addr // Instances × len(DependsOn) words
}

// blockMeta holds the FRAM metadata of one I/O block; blk is nil for
// blocks the analysis did not attach.
type blockMeta struct {
	blk   *task.IOBlock
	owner int32
	flag  mem.Addr // 1 word
	ts    mem.Addr // 4 words (if Timely)
}

// dmaMeta holds the FRAM metadata of one DMA site; site is nil for DMA
// sites the analysis did not attach.
type dmaMeta struct {
	site *task.DMASite
	// privFlag marks a valid snapshot in the privatization buffer.
	privFlag mem.Addr
	// claimFlag marks a claimed buffer chunk (separately from the
	// snapshot being complete, so interrupted snapshots retry into the
	// same chunk instead of leaking claims).
	claimFlag mem.Addr
	// privOff stores the claimed buffer offset (persistent).
	privOff mem.Addr
	// snaps holds dependence generation snapshots.
	snaps mem.Addr
	// regionAfter is the region index entered once this DMA completes.
	regionAfter int
	taskID      int
}

type regionMeta struct {
	flag mem.Addr
	// vars are the privatized word ranges; copies holds the matching
	// private-copy addresses.
	vars   []task.RegionVar
	copies []mem.Addr
}

// New returns a fresh EaseIO runtime.
func New() *Runtime { return &Runtime{} }

var _ kernel.Hooks = (*Runtime)(nil)

// Name implements kernel.Hooks.
func (r *Runtime) Name() string { return "EaseIO" }

// Attach implements kernel.Hooks: allocates lock flags, value privates,
// timestamps, generation counters, dependence snapshots, region private
// copies and the DMA privatization buffer.
func (r *Runtime) Attach(dev *kernel.Device, app *task.App) error {
	if err := r.Init(dev, app); err != nil {
		return err
	}
	r.sites = make([]siteMeta, len(app.Sites))
	for i := range r.sites {
		r.sites[i].owner = -1
	}
	r.blocks = make([]blockMeta, len(app.Blks))
	for i := range r.blocks {
		r.blocks[i].owner = -1
	}
	r.dmas = make([]dmaMeta, len(app.DMAs))
	r.regions = make([][]regionMeta, len(app.Tasks))
	r.instCtr = make([]mem.Addr, len(app.Tasks))

	for _, t := range app.Tasks {
		r.instCtr[t.ID] = dev.Mem.Alloc(mem.FRAM, 1)
		dev.Mem.Write(r.instCtr[t.ID], 1)
	}

	// Ownership: each site/block/DMA must belong to exactly one task, so
	// that flag versioning against the task instance counter is sound.
	for _, t := range app.Tasks {
		m := t.Meta
		for _, s := range m.Sites {
			sm := &r.sites[s.ID]
			if sm.owner >= 0 && int(sm.owner) != t.ID {
				return fmt.Errorf("core: I/O site %q used by tasks %q and %q; "+
					"declare one site per task (the paper's compiler names flags per function×task)",
					s.Name, app.Tasks[sm.owner].Name, t.Name)
			}
			sm.owner = int32(t.ID)
		}
		for _, b := range m.Blocks {
			r.blocks[b.ID].owner = int32(t.ID)
		}
	}

	for _, t := range app.Tasks {
		m := t.Meta
		for _, s := range m.Sites {
			sm := &r.sites[s.ID]
			sm.site = s
			n := s.Instances
			sm.flags = dev.Mem.Alloc(mem.FRAM, n)
			sm.gen = dev.Mem.Alloc(mem.FRAM, 1)
			if s.Returns {
				sm.vals = dev.Mem.Alloc(mem.FRAM, n)
			}
			if s.Sem == task.Timely {
				sm.ts = dev.Mem.Alloc(mem.FRAM, 4*n)
			}
			if len(s.DependsOn) > 0 {
				sm.snaps = dev.Mem.Alloc(mem.FRAM, n*len(s.DependsOn))
			}
		}
		for _, b := range m.Blocks {
			bm := &r.blocks[b.ID]
			bm.blk = b
			bm.flag = dev.Mem.Alloc(mem.FRAM, 1)
			if b.Sem == task.Timely {
				bm.ts = dev.Mem.Alloc(mem.FRAM, 4)
			}
		}
		r.regions[t.ID] = make([]regionMeta, len(m.Regions))
		for i, reg := range m.Regions {
			rm := &r.regions[t.ID][i]
			rm.flag = dev.Mem.Alloc(mem.FRAM, 1)
			rm.vars = reg.Vars
			for _, rv := range reg.Vars {
				rm.copies = append(rm.copies, dev.Mem.Alloc(mem.FRAM, rv.Words()))
			}
		}
		for i, c := range m.DMAs {
			d := c.Site
			dm := &r.dmas[d.ID]
			dm.site = d
			dm.taskID = t.ID
			dm.regionAfter = i + 1 // call i ends region i
			dm.privFlag = dev.Mem.Alloc(mem.FRAM, 1)
			dm.claimFlag = dev.Mem.Alloc(mem.FRAM, 1)
			dm.privOff = dev.Mem.Alloc(mem.FRAM, 1)
			if len(d.DependsOn) > 0 {
				dm.snaps = dev.Mem.Alloc(mem.FRAM, len(d.DependsOn))
			}
		}
	}

	// The privatization buffer exists only for applications with DMA
	// operations; DMA-free apps pay just the per-site flag bytes
	// (§5.4.5: "the temperature sensing application ... has no DMA
	// privatization buffer"). The bump pointer sits before the buffer:
	// every transition writes it, and above the buffer it would lift the
	// FRAM high-water mark — and so every checkpoint's FRAM prefix — over
	// the whole buffer, however little of it a run wrote.
	if len(app.DMAs) > 0 {
		r.privBufNext = dev.Mem.Alloc(mem.FRAM, 1)
		r.privBuf = dev.Mem.Alloc(mem.FRAM, PrivBufWords)
	}
	return nil
}

// --- helpers ---

func (r *Runtime) inst(taskID int) uint16 { return r.Dev.Mem.Read(r.instCtr[taskID]) }

func (r *Runtime) flagSet(a mem.Addr, taskID int) bool {
	return r.Dev.Mem.Read(a) == r.inst(taskID)
}

func (r *Runtime) setFlag(a mem.Addr, taskID int) { r.Dev.Mem.Write(a, r.inst(taskID)) }

func (r *Runtime) clearFlag(a mem.Addr) { r.Dev.Mem.Write(a, 0) }

func (r *Runtime) writeTime(a mem.Addr, t time.Duration) {
	us := uint64(t / time.Microsecond)
	for i := 0; i < 4; i++ {
		r.Dev.Mem.Write(a.Add(i), uint16(us>>(16*i)))
	}
}

func (r *Runtime) readTime(a mem.Addr) time.Duration {
	var us uint64
	for i := 0; i < 4; i++ {
		us |= uint64(r.Dev.Mem.Read(a.Add(i))) << (16 * i)
	}
	return time.Duration(us) * time.Microsecond
}

// --- lifecycle hooks ---

// OnBoot implements kernel.Hooks.
func (r *Runtime) OnBoot(c *kernel.Ctx) {
	r.LoadBoot(c)
	r.blockSkipDepth = 0
	r.curTask = r.CurrentTask()
}

// BeginTask implements kernel.Hooks: enter region 0 (privatize or
// recover).
func (r *Runtime) BeginTask(c *kernel.Ctx, t *task.Task) {
	r.curTask = t
	r.blockSkipDepth = 0
	r.enterRegion(c, 0)
}

// Transition implements kernel.Hooks: one FRAM write bumps the task's
// instance counter, invalidating all of its flags at once.
func (r *Runtime) Transition(c *kernel.Ctx, next *task.Task) {
	t := r.curTask
	hasDMAs := len(t.Meta.DMAs) > 0
	c.ChargeMemAccess(mem.FRAM, true, true) // instance counter bump
	if hasDMAs {
		c.ChargeMemAccess(mem.FRAM, true, true) // privatization-buffer bump pointer reset
	}
	r.CommitTransition(c, next, func() {
		ctr := r.instCtr[t.ID]
		v := r.Dev.Mem.Read(ctr) + 1
		if v == 0 {
			v = 1 // skip the never-set sentinel on wraparound
		}
		r.Dev.Mem.Write(ctr, v)
		if hasDMAs {
			r.Dev.Mem.Write(r.privBufNext, 0)
		}
	})
	r.curTask = nil
}

// --- variable access (direct to master; regions provide the undo log) ---

// Load implements kernel.Hooks.
func (r *Runtime) Load(c *kernel.Ctx, v *task.NVVar, i int) uint16 {
	c.ChargeMemAccess(mem.FRAM, false, false)
	return r.Dev.Mem.Read(r.MasterAddr(v).Add(i))
}

// Store implements kernel.Hooks.
func (r *Runtime) Store(c *kernel.Ctx, v *task.NVVar, i int, val uint16) {
	c.ChargeMemAccess(mem.FRAM, true, false)
	r.Dev.Mem.Write(r.MasterAddr(v).Add(i), val)
}

// LoadRun implements kernel.Hooks.
func (r *Runtime) LoadRun(c *kernel.Ctx, v *task.NVVar, off, n int) uint16 {
	s, free := c.LoadPrefix(r.MasterAddr(v).Add(off), n, false)
	for j := free; j < n; j++ {
		s += r.Load(c, v, off+j)
	}
	return s
}

// --- I/O sites ---

// CallIO implements kernel.Hooks. Semantic, window, instance count and
// dependence list all come from the analyzed site the flat metadata
// record points at.
func (r *Runtime) CallIO(c *kernel.Ctx, s *task.IOSite, idx int) uint16 {
	if uint(s.ID) >= uint(len(r.sites)) || r.sites[s.ID].site != s {
		panic(fmt.Sprintf("core: I/O site %q not attached (missing from analysis?)", s.Name))
	}
	sm := &r.sites[s.ID]
	if idx < 0 || idx >= s.Instances {
		panic(fmt.Sprintf("core: site %q instance %d out of range (declare .Loop(n))", s.Name, idx))
	}
	taskID := int(sm.owner)

	// An enclosing completed block skips everything inside (§3.3.1:
	// higher scope, higher precedence).
	if r.blockSkipDepth > 0 {
		return r.restoreValue(c, s, sm, idx)
	}

	if s.Sem != task.Always {
		c.ChargeOverheadCycles(mcu.FlagCheckCycles)
		done := r.flagSet(sm.flags.Add(idx), taskID)
		if done && r.depsChanged(c, sm, idx) {
			done = false
		}
		if done && s.Sem == task.Timely {
			c.ChargeOverheadCycles(mcu.TimeCompareCycles)
			last := r.readTime(sm.ts.Add(4 * idx))
			if c.Now()-last > s.Window {
				done = false
			}
		}
		if done {
			return r.restoreValue(c, s, sm, idx)
		}
	}
	return r.executeSite(c, s, sm, idx, taskID)
}

// restoreValue skips a completed operation, restoring its private value.
func (r *Runtime) restoreValue(c *kernel.Ctx, s *task.IOSite, sm *siteMeta, idx int) uint16 {
	r.NoteIOSkip(s)
	if !s.Returns {
		return 0
	}
	c.ChargeMemAccess(mem.FRAM, false, true)
	return r.Dev.Mem.Read(sm.vals.Add(idx))
}

// depsChanged compares stored dependence snapshots against the current
// generation counters.
func (r *Runtime) depsChanged(c *kernel.Ctx, sm *siteMeta, idx int) bool {
	deps := sm.site.DependsOn
	changed := false
	for di, dep := range deps {
		c.ChargeOverheadCycles(mcu.FlagCheckCycles)
		dm := &r.sites[dep.ID]
		if dm.site == nil {
			continue
		}
		snap := r.Dev.Mem.Read(sm.snaps.Add(idx*len(deps) + di))
		if snap != r.Dev.Mem.Read(dm.gen) {
			changed = true
		}
	}
	return changed
}

// executeSite runs the operation and makes its completion durable: private
// value, timestamp, lock flag, generation bump and dependence snapshots
// are charged first and applied together; then the operation's work is
// committed in the ledger (its durable flag means no future attempt will
// redo it).
func (r *Runtime) executeSite(c *kernel.Ctx, s *task.IOSite, sm *siteMeta, idx, taskID int) uint16 {
	mark := r.Dev.Ledger.Mark()
	val := r.ExecIO(c, s, idx)

	if s.Returns {
		c.ChargeMemAccess(mem.FRAM, true, true)
	}
	if s.Sem == task.Timely {
		c.ChargeOverheadCycles(mcu.TimestampCycles)
	}
	c.ChargeOverheadCycles(mcu.FlagSetCycles) // lock flag
	c.ChargeOverheadCycles(mcu.FlagSetCycles) // generation bump
	c.ChargeOverheadCycles(int64(len(s.DependsOn)) * mcu.FlagSetCycles)

	// Apply the durable state after the charges survived.
	if s.Returns {
		r.Dev.Mem.Write(sm.vals.Add(idx), val)
	}
	if s.Sem == task.Timely {
		r.writeTime(sm.ts.Add(4*idx), c.Now())
	}
	if s.Sem != task.Always {
		r.setFlag(sm.flags.Add(idx), taskID)
	}
	r.Dev.Mem.Write(sm.gen, r.Dev.Mem.Read(sm.gen)+1)
	for di, dep := range s.DependsOn {
		if dm := &r.sites[dep.ID]; dm.site != nil {
			r.Dev.Mem.Write(sm.snaps.Add(idx*len(s.DependsOn)+di), r.Dev.Mem.Read(dm.gen))
		}
	}
	if s.Sem != task.Always {
		r.Dev.Ledger.CommitSince(mark)
	}
	return val
}

// --- I/O blocks ---

// IOBlock implements kernel.Hooks.
func (r *Runtime) IOBlock(c *kernel.Ctx, b *task.IOBlock, body func()) {
	if uint(b.ID) >= uint(len(r.blocks)) || r.blocks[b.ID].blk != b {
		panic(fmt.Sprintf("core: I/O block %q not attached", b.Name))
	}
	bm := &r.blocks[b.ID]
	if r.blockSkipDepth > 0 {
		// An outer completed block dominates: skip this block too.
		r.blockSkipDepth++
		body()
		r.blockSkipDepth--
		return
	}
	taskID := int(bm.owner)

	c.ChargeOverheadCycles(mcu.FlagCheckCycles)
	done := r.flagSet(bm.flag, taskID)
	valid := true
	if done && b.Sem == task.Timely {
		c.ChargeOverheadCycles(mcu.TimeCompareCycles)
		valid = c.Now()-r.readTime(bm.ts) <= b.Window
	}
	if done && valid && b.Sem != task.Always {
		// Completed and still valid: members restore their outputs.
		if r.Dev.TraceOn() {
			r.Dev.Trace(kernel.EvBlockSkip, "%s", b.Name)
		}
		r.blockSkipDepth++
		body()
		r.blockSkipDepth--
		return
	}
	if done && !valid {
		// Violation: block semantics override member semantics — every
		// member (including nested blocks) re-executes (§4.2.1).
		if r.Dev.TraceOn() {
			r.Dev.Trace(kernel.EvBlockViolation, "%s", b.Name)
		}
		r.invalidateBlock(c, b)
	}

	mark := r.Dev.Ledger.Mark()
	body()

	if b.Sem == task.Timely {
		c.ChargeOverheadCycles(mcu.TimestampCycles)
	}
	c.ChargeOverheadCycles(mcu.FlagSetCycles)
	if b.Sem == task.Timely {
		r.writeTime(bm.ts, c.Now())
	}
	if b.Sem != task.Always {
		r.setFlag(bm.flag, taskID)
		r.Dev.Ledger.CommitSince(mark)
	}
}

// invalidateBlock clears the lock flags of every member site and nested
// block, forcing re-execution under the block's semantics.
func (r *Runtime) invalidateBlock(c *kernel.Ctx, b *task.IOBlock) {
	for _, s := range b.Members {
		sm := &r.sites[s.ID]
		if sm.site == nil {
			continue
		}
		c.ChargeOverheadCycles(mcu.FlagSetCycles)
		for i := 0; i < s.Instances; i++ {
			r.clearFlag(sm.flags.Add(i))
		}
	}
	for _, sub := range b.SubBlocks {
		if bm := &r.blocks[sub.ID]; bm.blk != nil {
			c.ChargeOverheadCycles(mcu.FlagSetCycles)
			r.clearFlag(bm.flag)
		}
		r.invalidateBlock(c, sub)
	}
}

// --- DMA ---

// DMACopy implements kernel.Hooks: classify, apply the matching
// re-execution semantic, then cross into the next privatization region.
func (r *Runtime) DMACopy(c *kernel.Ctx, d *task.DMASite, src, dst task.Loc, words int) {
	if uint(d.ID) >= uint(len(r.dmas)) || r.dmas[d.ID].site != d {
		panic(fmt.Sprintf("core: DMA site %q not attached", d.Name))
	}
	dm := &r.dmas[d.ID]
	srcA, dstA := c.ResolveLoc(src), c.ResolveLoc(dst)
	if err := dma.Validate(srcA, dstA, words); err != nil {
		panic(err)
	}
	kind := dma.Classify(srcA.Bank, dstA.Bank)
	if d.Exclude {
		// Programmer-excluded: handled as Always at compile time (§4.3);
		// no classification or privatization work at run time.
		kind = task.DMAVolatileToVolatile
	} else {
		c.ChargeOverheadCycles(mcu.FlagCheckCycles) // runtime classification
	}
	if r.Dev.TraceOn() {
		r.Dev.Trace(kernel.EvDMAClass, "%s kind=%v exclude=%v", d.Name, kind, d.Exclude)
	}

	depsChanged := r.dmaDepsChanged(c, dm)

	switch kind {
	case task.DMAToNonVolatile:
		// Single: completion is the following region's flag.
		reg := &r.regions[dm.taskID][dm.regionAfter]
		c.ChargeOverheadCycles(mcu.FlagCheckCycles)
		done := r.flagSet(reg.flag, dm.taskID) && !depsChanged
		if done {
			r.NoteDMASkip(d)
		} else {
			mark := r.Dev.Ledger.Mark()
			r.ExecDMA(c, d, srcA, dstA, words)
			r.snapDMADeps(c, dm)
			if r.flagSet(reg.flag, dm.taskID) {
				// A dependence change re-executed a completed transfer:
				// the old region snapshot is stale. Clear the flag so the
				// region re-privatizes with the fresh data instead of
				// restoring the previous instance's copies (§4.3.1).
				c.ChargeOverheadCycles(mcu.FlagSetCycles)
				r.clearFlag(reg.flag)
			}
			r.enterRegion(c, dm.regionAfter)
			r.Dev.Ledger.CommitSince(mark)
			return
		}

	case task.DMANonVolatileToVolatile:
		// Private: snapshot the source once, then always copy from the
		// snapshot — later writes to the source cannot corrupt
		// re-executions (§4.3 case ii).
		c.ChargeOverheadCycles(mcu.FlagCheckCycles)
		haveSnap := r.flagSet(dm.privFlag, dm.taskID) && !depsChanged
		off := int(r.Dev.Mem.Read(dm.privOff))
		if !haveSnap {
			off = r.claimPrivBuf(c, d, dm, words)
			mark := r.Dev.Ledger.Mark()
			c.RawDMA(srcA, r.privBuf.Add(off), words, true) // phase 1: snapshot
			c.ChargeOverheadCycles(mcu.FlagSetCycles)
			c.ChargeMemAccess(mem.FRAM, true, true)
			r.setFlag(dm.privFlag, dm.taskID)
			r.Dev.Mem.Write(dm.privOff, uint16(off))
			r.snapDMADeps(c, dm)
			r.Dev.Ledger.CommitSince(mark)
		}
		// Phase 2: privatization buffer → destination (repeats after
		// every reboot because the destination is volatile).
		r.ExecDMA(c, d, r.privBuf.Add(off), dstA, words)

	case task.DMAVolatileToVolatile:
		// Always: repetition is harmless.
		r.ExecDMA(c, d, srcA, dstA, words)
	}

	r.enterRegion(c, dm.regionAfter)
}

func (r *Runtime) dmaDepsChanged(c *kernel.Ctx, dm *dmaMeta) bool {
	changed := false
	for di, dep := range dm.site.DependsOn {
		c.ChargeOverheadCycles(mcu.FlagCheckCycles)
		sm := &r.sites[dep.ID]
		if sm.site == nil {
			continue
		}
		if r.Dev.Mem.Read(dm.snaps.Add(di)) != r.Dev.Mem.Read(sm.gen) {
			changed = true
		}
	}
	return changed
}

func (r *Runtime) snapDMADeps(c *kernel.Ctx, dm *dmaMeta) {
	for di, dep := range dm.site.DependsOn {
		sm := &r.sites[dep.ID]
		if sm.site == nil {
			continue
		}
		c.ChargeOverheadCycles(mcu.FlagSetCycles)
		r.Dev.Mem.Write(dm.snaps.Add(di), r.Dev.Mem.Read(sm.gen))
	}
}

// claimPrivBuf reserves words of the shared privatization buffer for a DMA
// snapshot. The claim is idempotent per task instance: a power failure
// inside the snapshot retries into the same chunk instead of leaking a
// new claim (a leak would exhaust the buffer under repeated failures).
// The bump pointer is persistent and resets at task commit.
func (r *Runtime) claimPrivBuf(c *kernel.Ctx, d *task.DMASite, dm *dmaMeta, words int) int {
	c.ChargeOverheadCycles(mcu.FlagCheckCycles)
	if r.flagSet(dm.claimFlag, dm.taskID) {
		c.ChargeMemAccess(mem.FRAM, false, true)
		return int(r.Dev.Mem.Read(dm.privOff))
	}
	c.ChargeMemAccess(mem.FRAM, false, true)
	off := int(r.Dev.Mem.Read(r.privBufNext))
	if off+words > PrivBufWords {
		panic(fmt.Sprintf("core: DMA %q needs %d words but the privatization buffer has %d/%d free; "+
			"Exclude constant transfers or split the task (the paper flags this as a compile-time check, §6)",
			d.Name, words, PrivBufWords-off, PrivBufWords))
	}
	// Charge the three claim writes, then apply them together.
	c.ChargeMemAccess(mem.FRAM, true, true)
	c.ChargeMemAccess(mem.FRAM, true, true)
	c.ChargeOverheadCycles(mcu.FlagSetCycles)
	r.Dev.Mem.Write(r.privBufNext, uint16(off+words))
	r.Dev.Mem.Write(dm.privOff, uint16(off))
	r.setFlag(dm.claimFlag, dm.taskID)
	return off
}

// --- regional privatization ---

// enterRegion privatizes (first entry) or recovers (re-entry) the region's
// non-volatile variables; the flag write is what makes the preceding DMA
// count as complete (§4.4).
func (r *Runtime) enterRegion(c *kernel.Ctx, idx int) {
	t := r.curTask
	regs := r.regions[t.ID]
	if uint(idx) >= uint(len(regs)) {
		panic(fmt.Sprintf("core: task %q has no region %d (stale analysis?)", t.Name, idx))
	}
	rm := &regs[idx]
	c.ChargeOverheadCycles(mcu.FlagCheckCycles)
	if r.flagSet(rm.flag, t.ID) {
		// Recovery: restore every region range from its private copy,
		// undoing partial work from the interrupted attempt.
		if r.Dev.TraceOn() {
			r.Dev.Trace(kernel.EvRegionRestore, "%s region %d (%d ranges)", t.Name, idx, len(rm.vars))
		}
		for vi, rv := range rm.vars {
			c.ChargeOverheadCycles(int64(rv.Words()) * mcu.CommitWordCycles)
			master := r.MasterAddr(rv.Var).Add(rv.Lo)
			r.copyRange(rm.copies[vi], master, rv.Words())
		}
		return
	}
	// Privatization: snapshot every region range, then set the flag.
	// Charges happen first; the snapshot and flag apply together so an
	// interrupted privatization simply reruns.
	for _, rv := range rm.vars {
		c.ChargeOverheadCycles(int64(rv.Words()) * mcu.PrivatizeWordCycles)
	}
	c.ChargeOverheadCycles(mcu.FlagSetCycles)
	if r.Dev.TraceOn() {
		r.Dev.Trace(kernel.EvRegionPrivatize, "%s region %d (%d ranges)", t.Name, idx, len(rm.vars))
	}
	for vi, rv := range rm.vars {
		master := r.MasterAddr(rv.Var).Add(rv.Lo)
		r.copyRange(master, rm.copies[vi], rv.Words())
	}
	r.setFlag(rm.flag, t.ID)
}

// copyRange moves n words from src to dst with the exact counting and
// high-water effects of the word-by-word Read/Write loop it replaces.
// The charges were applied by the caller before the copy (the
// charge-before-apply invariant); the copy itself is mechanical, so the
// bulk move is byte-identical whenever the ranges do not overlap (region
// private copies never alias their master range — distinct allocations).
func (r *Runtime) copyRange(src, dst mem.Addr, n int) {
	if n <= 0 {
		return
	}
	w := r.Dev.Mem.CopyWindowFor(src, dst, n)
	if w.Bulkable() {
		w.MoveN(0, n)
		return
	}
	for i := 0; i < n; i++ {
		w.Move(i)
	}
}

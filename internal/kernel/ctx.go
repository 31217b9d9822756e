// Ctx is the execution context handed to task bodies. It implements
// task.Exec by charging costs against the device and delegating
// consistency-sensitive operations to the runtime's hooks.

package kernel

import (
	"math"
	"math/rand"
	"time"

	"easeio/internal/lea"
	"easeio/internal/mcu"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
	"easeio/internal/task"
	"easeio/internal/units"
)

// chargeSlice bounds a single charge step so that power failures land with
// fine granularity inside long operations (50 µs = 50 cycles at 1 MHz).
const chargeSlice = 50 * time.Microsecond

// Ctx carries one attempt's execution state.
type Ctx struct {
	Dev *Device
	RT  Hooks

	// transitioned is set by Next/Done; the engine uses it to detect task
	// bodies that fall off the end without transitioning.
	transitioned bool

	// wastedDepth > 0 routes charges straight to the Wasted bucket (used
	// while re-executing already-completed I/O).
	wastedDepth int

	// fresh collects the freshness-bounded I/O sites the current task
	// attempt consumed (executed or skipped — a skip still hands the task
	// the privatized value). The engine checks their sample ages when the
	// task commits and clears the list; aborted attempts clear it on the
	// next BeginTask.
	fresh []*task.IOSite

	// fir memoizes LEA FIR commands (see lea.FirMemo). It is host-side
	// scratch, not device state: the engine carries it across runs,
	// resets and restores, and it never enters a checkpoint.
	fir lea.FirMemo
}

// PushWasted enters wasted-charging mode (see Ledger.ChargeWasted).
func (c *Ctx) PushWasted() { c.wastedDepth++ }

// PopWasted leaves wasted-charging mode.
func (c *Ctx) PopWasted() {
	if c.wastedDepth == 0 {
		panic("kernel: unbalanced PopWasted")
	}
	c.wastedDepth--
}

var _ task.Exec = (*Ctx)(nil)

// Charge advances time and drains energy, splitting long operations into
// slices and panicking with the power-failure sentinel the moment the
// supply gives out. State changes paid for by a charge must be applied
// *after* Charge returns.
func (c *Ctx) Charge(dt time.Duration, e units.Energy, overhead bool) {
	d := c.Dev
	if dt > 0 && dt <= chargeSlice {
		// Single-slice fast path: the vast majority of charges (word
		// accesses, flag checks, DMA words) fit one slice, where the
		// pro-rated energy is just e.
		c.chargeStep(d, dt, e, overhead)
		return
	}
	// Bulk fast path for multi-slice charges: when no cut sink observes
	// slice boundaries and the supply's next failure point is a known
	// constant strictly beyond this charge, the whole span can be booked
	// in one add. The pro-rating loop's slice sums are exact (they sum to
	// precisely dt and e), and timer/schedule supply steps are pure
	// on-time comparisons, so clock, ledger and failure behavior land
	// byte-identical to the sliced loop.
	if dt > chargeSlice && d.Cuts == nil {
		if head, known := c.failureHead(); known && dt < head {
			c.bulkCharge(dt, e, overhead)
			return
		}
	}
	for dt > 0 {
		step := dt
		if step > chargeSlice {
			step = chargeSlice
		}
		se := units.Energy(int64(e) * int64(step) / int64(dt))
		e -= se
		dt -= step
		c.chargeStep(d, step, se, overhead)
	}
}

// chargeStep applies one slice: advance the clock, book the work, step the
// supply, and unwind if the supply gives out.
func (c *Ctx) chargeStep(d *Device, step time.Duration, se units.Energy, overhead bool) {
	d.Clock.Run(step)
	if c.wastedDepth > 0 {
		d.Ledger.ChargeWasted(step, se)
	} else {
		d.Ledger.Charge(overhead, step, se)
	}
	if d.Cuts != nil {
		d.Cuts.NoteCut(d.Clock.OnTime())
	}
	// Devirtualize the per-slice supply step for the two supplies every
	// sweep runs under: Timer.Step is a single duration comparison and
	// Continuous never fails, so the common cases inline instead of
	// paying an interface call on every charged word.
	var failed bool
	switch s := d.Supply.(type) {
	case *power.Timer:
		failed = s.Step(d.Clock.Now(), d.Clock.OnTime(), step, se)
	case power.Continuous:
		// never fails
	default:
		failed = d.Supply.Step(d.Clock.Now(), d.Clock.OnTime(), step, se)
	}
	if failed {
		panic(powerFailure{})
	}
}

// failureHead returns the on-time distance to the supply's next failure
// point when that point is a known constant: continuous power never
// fails, and timer/schedule supplies fire at a fixed on-time between
// recharges regardless of drawn energy. known is false for supplies
// whose failure point depends on consumption (harvested), which must be
// stepped slice by slice.
func (c *Ctx) failureHead() (head time.Duration, known bool) {
	switch s := c.Dev.Supply.(type) {
	case power.Continuous:
		return time.Duration(math.MaxInt64), true
	case *power.Timer:
		return s.FireAt() - c.Dev.Clock.OnTime(), true
	case *power.Schedule:
		return s.FireAt() - c.Dev.Clock.OnTime(), true
	}
	return 0, false
}

// bulkFree reports how many of n identical slices of cost wdt each can
// be charged in one batch: free slices all complete strictly before the
// supply's next failure point. ok is false when bulk charging is not
// permitted at all — a cut sink observes slice boundaries, the failure
// point is unknown, or a slice exceeds the charge-slice bound — in which
// case the caller must take the per-slice path. ok with free < n means
// slice free+1 reaches the failure point: charge the free prefix in
// bulk, then finish per-slice so the failure lands on the exact word the
// sliced loop would have failed on.
func (c *Ctx) bulkFree(n int, wdt time.Duration) (free int, ok bool) {
	if n <= 0 || wdt <= 0 || wdt > chargeSlice || c.Dev.Cuts != nil {
		return 0, false
	}
	head, known := c.failureHead()
	if !known {
		return 0, false
	}
	if head <= 0 {
		return 0, true
	}
	free = n
	if f := (head - 1) / wdt; f < time.Duration(n) {
		free = int(f)
	}
	return free, true
}

// bulkCharge advances the clock and books (dt, e) in one ledger add,
// without stepping the supply or noting cuts. Callers must have
// established — via failureHead or bulkFree — that no failure point lies
// inside the span and no cut sink is attached; under those conditions
// the result is byte-identical to the equivalent chargeStep sequence.
func (c *Ctx) bulkCharge(dt time.Duration, e units.Energy, overhead bool) {
	d := c.Dev
	d.Clock.Run(dt)
	switch {
	case c.wastedDepth > 0:
		d.Ledger.Committed[stats.Wasted].Add(stats.Totals{T: dt, E: e})
	case overhead:
		d.Ledger.Pending[1].Add(stats.Totals{T: dt, E: e})
	default:
		d.Ledger.Pending[0].Add(stats.Totals{T: dt, E: e})
	}
}

// LoadPrefix is the fused fast path under every runtime's LoadRun. Of a
// run of n FRAM word reads starting at a, it charges the prefix that
// provably completes before the supply's next failure point in bulk and
// returns that prefix's word sum and length free (zero when bulk
// charging is not permitted; see bulkFree). The caller finishes words
// [free, n) with per-word Load calls, so a power failure lands on the
// exact word the unfused loop would have failed on. indexed makes each
// word a two-slice bundle — an index-word read booked as overhead, then
// the data read (InK's per-access lookup) — and a failure can then land
// between a bundle's two charges, which the per-word tail reproduces.
func (c *Ctx) LoadPrefix(a mem.Addr, n int, indexed bool) (sum uint16, free int) {
	wdt := mcu.Cycles(mcu.FRAMReadCycles)
	bundle := wdt
	if indexed {
		bundle = 2 * wdt
	}
	free, ok := c.bulkFree(n, bundle)
	if !ok || free == 0 {
		return 0, 0
	}
	dt, e := time.Duration(free)*wdt, units.Energy(free)*mcu.FRAMReadEnergy
	if indexed {
		c.bulkCharge(dt, e, true)
	}
	c.bulkCharge(dt, e, false)
	for _, w := range c.Dev.Mem.Span(a, free) {
		sum += w
	}
	return sum, free
}

// ChargeCycles charges n CPU cycles of useful work.
func (c *Ctx) ChargeCycles(n int64) {
	c.Charge(mcu.Cycles(n), mcu.CyclesEnergy(n), false)
}

// ChargeOverheadCycles charges n CPU cycles of runtime bookkeeping.
func (c *Ctx) ChargeOverheadCycles(n int64) {
	c.Charge(mcu.Cycles(n), mcu.CyclesEnergy(n), true)
}

// ChargeMemAccess charges one 16-bit access to the given bank.
func (c *Ctx) ChargeMemAccess(b mem.Bank, write, overhead bool) {
	var cyc int64
	var e units.Energy
	switch {
	case b == mem.FRAM && write:
		cyc, e = mcu.FRAMWriteCycles, mcu.FRAMWriteEnergy
	case b == mem.FRAM:
		cyc, e = mcu.FRAMReadCycles, mcu.FRAMReadEnergy
	default:
		cyc, e = mcu.SRAMAccessCycles, mcu.SRAMAccessEnergy
	}
	c.Charge(mcu.Cycles(cyc), e, overhead)
}

// --- task.Exec: computation and memory ---

// Compute implements task.Exec.
func (c *Ctx) Compute(n int64) { c.RT.Compute(c, n) }

// Load implements task.Exec.
func (c *Ctx) Load(v *task.NVVar) uint16 { return c.RT.Load(c, v, 0) }

// Store implements task.Exec.
func (c *Ctx) Store(v *task.NVVar, val uint16) { c.RT.Store(c, v, 0, val) }

// LoadAt implements task.Exec.
func (c *Ctx) LoadAt(v *task.NVVar, i int) uint16 { return c.RT.Load(c, v, i) }

// StoreAt implements task.Exec.
func (c *Ctx) StoreAt(v *task.NVVar, i int, val uint16) { c.RT.Store(c, v, i, val) }

// LoadSum implements task.Exec through the runtime's fused load run.
func (c *Ctx) LoadSum(v *task.NVVar, off, n int) uint16 { return c.RT.LoadRun(c, v, off, n) }

// --- task.Exec: I/O ---

// CallIO implements task.Exec.
func (c *Ctx) CallIO(s *task.IOSite) uint16 {
	c.noteFresh(s)
	return c.RT.CallIO(c, s, 0)
}

// CallIOAt implements task.Exec.
func (c *Ctx) CallIOAt(s *task.IOSite, idx int) uint16 {
	c.noteFresh(s)
	return c.RT.CallIO(c, s, idx)
}

// noteFresh books a freshness-bounded site as consumed by the current
// task attempt (see Ctx.fresh). Consecutive duplicates — loop sites —
// collapse to one entry so a commit charges each site once.
func (c *Ctx) noteFresh(s *task.IOSite) {
	if s.Freshness <= 0 {
		return
	}
	if n := len(c.fresh); n > 0 && c.fresh[n-1] == s {
		return
	}
	c.fresh = append(c.fresh, s)
}

// IOBlock implements task.Exec.
func (c *Ctx) IOBlock(b *task.IOBlock, body func()) { c.RT.IOBlock(c, b, body) }

// DMACopy implements task.Exec.
func (c *Ctx) DMACopy(d *task.DMASite, src, dst task.Loc, words int) {
	c.RT.DMACopy(c, d, src, dst, words)
}

// ResolveLoc turns a blueprint location into a concrete memory address,
// resolving variables to their master copies (the addresses the DMA
// controller sees).
func (c *Ctx) ResolveLoc(l task.Loc) mem.Addr {
	if l.Var != nil {
		return c.RT.AddrOf(l.Var).Add(l.Off)
	}
	return mem.Addr{Bank: mem.Bank(l.RawBank), Word: l.RawWord}
}

// RawDMA performs the mechanical DMA transfer: setup charge, then one
// charge + one word moved at a time, so a power failure cuts the copy
// mid-transfer with word granularity. It bypasses the runtime's variable
// interposition entirely — exactly like hardware DMA bypasses the CPU.
func (c *Ctx) RawDMA(src, dst mem.Addr, words int, overhead bool) {
	c.Charge(mcu.Cycles(mcu.DMASetupCycles), mcu.CyclesEnergy(mcu.DMASetupCycles), overhead)
	if words <= 0 {
		return
	}
	d := c.Dev
	// A DMA word is 2 cycles — far below one charge slice — so the word
	// loop charges via chargeStep directly, which is exactly what Charge's
	// single-slice fast path would do minus the per-word re-dispatch.
	wdt, we := mcu.Cycles(mcu.DMAWordCycles), mcu.DMAWordEnergy
	if wdt > chargeSlice {
		panic("kernel: DMA word cost exceeds one charge slice")
	}
	// The window bounds-checks the whole transfer up front and makes the
	// per-word move inlinable; a power failure mid-loop still leaves
	// exactly the charged prefix copied.
	w := d.Mem.CopyWindowFor(src, dst, words)

	// Bulk fast path: every word that provably completes before the
	// supply's next failure point (see bulkFree) is charged and moved in
	// one batch. Sums of identical integer charges are exact, so the
	// clock, ledger, high-water mark and memory land byte-identical to
	// the per-word loop. The loop then resumes at the first word whose slice
	// may reach the failure point; supply steps of the bulkable supplies
	// are pure on-time comparisons, so that word fails in chargeStep
	// exactly where the per-word loop would have failed.
	start := 0
	if w.Bulkable() {
		if free, ok := c.bulkFree(words, wdt); ok && free > 0 {
			c.bulkCharge(time.Duration(free)*wdt, units.Energy(free)*we, overhead)
			w.MoveN(0, free)
			start = free
		}
	}
	for i := start; i < words; i++ {
		c.chargeStep(d, wdt, we, overhead)
		w.Move(i)
	}
}

// --- task.Exec: LEA ---

func (c *Ctx) chargeLEA(macs int64) {
	c.Charge(mcu.Cycles(mcu.LEASetupCycles+macs*mcu.LEAMACCycles),
		mcu.CyclesEnergy(mcu.LEASetupCycles)+units.Energy(macs)*mcu.LEAMACEnergy, false)
}

// LEAFir implements task.Exec.
func (c *Ctx) LEAFir(inOff, coefOff, outOff, inLen, taps int) {
	c.chargeLEA(int64(inLen-taps+1) * int64(taps))
	c.fir.Fir(c.Dev.Mem, inOff, coefOff, outOff, inLen, taps)
}

// LEARelu implements task.Exec.
func (c *Ctx) LEARelu(off, n int) {
	c.chargeLEA(int64(n))
	lea.Relu(c.Dev.Mem, off, n)
}

// LEADot implements task.Exec.
func (c *Ctx) LEADot(aOff, bOff, n int) int32 {
	c.chargeLEA(int64(n))
	return lea.Dot(c.Dev.Mem, aOff, bOff, n)
}

// LEAMacs implements task.Exec.
func (c *Ctx) LEAMacs(n int64) { c.chargeLEA(n) }

// ReadLEA implements task.Exec.
func (c *Ctx) ReadLEA(off int) uint16 {
	c.ChargeMemAccess(mem.LEARAM, false, false)
	return c.Dev.Mem.Read(mem.Addr{Bank: mem.LEARAM, Word: off})
}

// WriteLEA implements task.Exec.
func (c *Ctx) WriteLEA(off int, val uint16) {
	c.ChargeMemAccess(mem.LEARAM, true, false)
	c.Dev.Mem.Write(mem.Addr{Bank: mem.LEARAM, Word: off}, val)
}

// --- task.Exec: environment ---

// Op implements task.Exec: a peripheral operation's latency and energy.
func (c *Ctx) Op(dt time.Duration, e units.Energy) { c.Charge(dt, e, false) }

// Now implements task.Exec.
func (c *Ctx) Now() time.Duration { return c.Dev.Clock.Now() }

// Rand implements task.Exec.
func (c *Ctx) Rand() *rand.Rand { return c.Dev.Rand }

// --- task.Exec: control flow ---

// Next implements task.Exec.
func (c *Ctx) Next(t *task.Task) {
	c.transitioned = true
	c.RT.Transition(c, t)
}

// Done implements task.Exec.
func (c *Ctx) Done() {
	c.transitioned = true
	c.RT.Transition(c, nil)
}

// Ctx is the execution context handed to task bodies. It implements
// task.Exec by charging costs against the device and delegating
// consistency-sensitive operations to the runtime's hooks.

package kernel

import (
	"math/rand"
	"time"

	"easeio/internal/lea"
	"easeio/internal/mcu"
	"easeio/internal/mem"
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

	// credit is the on-time left before the supply's next failure point
	// (see arm). A charge or slice shorter than the credit cannot fail and
	// is booked without stepping the supply; zero credit steps every
	// slice.
	credit time.Duration

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

	// fir and dot memoize LEA FIR and dot-product commands (see
	// lea.FirMemo and lea.DotMemo). They are host-side scratch, not
	// device state: the engine carries them across runs, resets and
	// restores, and they never enter a checkpoint.
	fir lea.FirMemo
	dot lea.DotMemo
}

// fireAter is a supply whose next failure point is a fixed on-time:
// Step reports no failure before FireAt, and only Recharge moves it.
type fireAter interface{ FireAt() time.Duration }

// arm sets the credit at boot: the on-time left before the supply's next
// failure point when that point is fixed, and zero — every slice stepped
// — when it depends on drawn energy or a cut sink must see every slice
// boundary. Without a sink nothing observes the boundaries of slices
// that end before the failure point, so booking them in bulk leaves the
// clock, the ledger, memory and the failing slice byte-identical to the
// per-slice path.
func (c *Ctx) arm() {
	c.credit = 0
	if s, ok := c.Dev.Supply.(fireAter); ok && c.Dev.Cuts == nil {
		c.credit = s.FireAt() - c.Dev.Clock.OnTime()
	}
}

// PushWasted enters wasted-charging mode (see Ledger.ChargeWasted).
func (c *Ctx) PushWasted() { c.wastedDepth++ }

// PopWasted leaves wasted-charging mode. A power failure that unwinds a
// wasted scope needs no pop: every boot starts at depth zero.
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
// *after* Charge returns. A charge shorter than the credit is booked
// whole; otherwise each slice is, unless it can reach the failure point.
func (c *Ctx) Charge(dt time.Duration, e units.Energy, overhead bool) {
	if dt <= 0 {
		return
	}
	if dt < c.credit {
		c.book(dt, e, overhead)
		return
	}
	for dt > 0 {
		step := min(dt, chargeSlice)
		se := units.Energy(int64(e) * int64(step) / int64(dt))
		e -= se
		dt -= step
		if step < c.credit {
			c.book(step, se, overhead)
		} else {
			c.chargeStep(step, se, overhead)
		}
	}
}

// book advances the clock and books (dt, e) in one ledger add, spending
// that much credit. Slice sums are exact integers, so one booking lands
// byte-identical to the slices it stands for.
func (c *Ctx) book(dt time.Duration, e units.Energy, overhead bool) {
	d := c.Dev
	d.Clock.Run(dt)
	if c.wastedDepth > 0 {
		d.Ledger.ChargeWasted(dt, e)
	} else {
		d.Ledger.Charge(overhead, dt, e)
	}
	c.credit -= dt
}

// chargeStep applies one slice that may reach the failure point: book
// it, note the cut, step the supply, and unwind if the supply gives out.
// The credit is spent either way.
func (c *Ctx) chargeStep(dt time.Duration, e units.Energy, overhead bool) {
	c.book(dt, e, overhead)
	c.credit = 0
	d := c.Dev
	if d.Cuts != nil {
		d.Cuts.NoteCut(d.Clock.OnTime())
	}
	if d.Supply.Step(d.Clock.Now(), d.Clock.OnTime(), dt, e) {
		panic(powerFailure{})
	}
}

// free reports how many of n charges of wdt each complete strictly
// before the failure point: they can be booked in one batch, and the
// first charge past them is the one that reaches the failure point.
func (c *Ctx) free(n int, wdt time.Duration) int {
	if c.credit <= 0 {
		return 0
	}
	return int(min(time.Duration(n), (c.credit-1)/wdt))
}

// LoadPrefix is the fused fast path under every runtime's LoadRun. Of a
// run of n FRAM word reads starting at a, it books the prefix that
// completes before the supply's next failure point (see free) and
// returns that prefix's word sum and length free. The caller finishes
// words [free, n) with per-word Load calls, so a power failure lands on
// the exact word the unfused loop would have failed on. indexed makes
// each word a two-charge bundle — an index-word read booked as
// overhead, then the data read (InK's per-access lookup) — and a failure
// can then land between a bundle's two charges, which the per-word tail
// reproduces.
func (c *Ctx) LoadPrefix(a mem.Addr, n int, indexed bool) (sum uint16, free int) {
	wdt := mcu.Cycles(mcu.FRAMReadCycles)
	bundle := wdt
	if indexed {
		bundle = 2 * wdt
	}
	if free = c.free(n, bundle); free <= 0 {
		return 0, 0
	}
	dt, e := time.Duration(free)*wdt, units.Energy(free)*mcu.FRAMReadEnergy
	if indexed {
		c.book(dt, e, true)
	}
	c.book(dt, e, false)
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
	wdt, we := mcu.Cycles(mcu.DMAWordCycles), mcu.DMAWordEnergy
	// The window bounds-checks the whole transfer up front and makes the
	// per-word move inlinable; a power failure mid-loop still leaves
	// exactly the charged prefix copied. The words that complete before
	// the failure point move in one batch unless the ranges overlap so
	// that a word-at-a-time copy propagates values.
	w := c.Dev.Mem.CopyWindowFor(src, dst, words)
	start := 0
	if w.Bulkable() {
		if start = c.free(words, wdt); start > 0 {
			c.book(time.Duration(start)*wdt, units.Energy(start)*we, overhead)
			w.MoveN(0, start)
		}
	}
	for i := start; i < words; i++ {
		c.Charge(wdt, we, overhead)
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
	return c.dot.Dot(c.Dev.Mem, aOff, bOff, n)
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

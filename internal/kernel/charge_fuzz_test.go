package kernel

import (
	"reflect"
	"testing"
	"time"

	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/timekeeper"
	"easeio/internal/units"
)

// nopSink is a cut sink that records nothing: attaching it zeroes a
// context's credit, so every slice takes the per-slice reference path.
type nopSink struct{}

func (nopSink) NoteCut(time.Duration) {}

// Charge-harness buffer sizes: a pattern-filled FRAM buffer that loads
// and DMA transfers read, and an SRAM buffer that power failures clear.
const (
	fuzzFRAMWords = 1024
	fuzzSRAMWords = 512
	fuzzMaxOps    = 24
)

// chargeOp is one decoded harness operation.
type chargeOp struct {
	kind     byte // 0 Charge, 1 wasted toggle, 2 LoadPrefix + tail, 3 RawDMA
	dt       time.Duration
	e        units.Energy
	overhead bool
	src, dst mem.Addr
	n        int
}

// chargeOutcome is everything the two charging paths must agree on.
type chargeOutcome struct {
	Fails  []int    // indices of the operations a power failure unwound
	Sums   []uint16 // the word sums of the loads that completed
	Clock  timekeeper.State
	Ledger Ledger
	Mem    [mem.NumBanks][]uint16 // each bank's written prefix, from a snapshot
	Alloc  [mem.NumBanks]int      // the snapshot's allocator watermarks
}

// decodeChargeOps turns fuzz bytes into at most fuzzMaxOps operations.
// Charges run from 1 ns to 10 ms at three scales, so they end both on
// and off the 1 µs cycle grid; loads and transfers cover up to 600
// words, overlapping ranges included.
func decodeChargeOps(data []byte) []chargeOp {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	u16 := func() int { return int(next()) | int(next())<<8 }
	addr := func() mem.Addr {
		if b := next(); b&1 == 1 {
			return mem.Addr{Bank: mem.SRAM, Word: int(b>>1) + int(next()%128)*2}
		}
		return mem.Addr{Bank: mem.FRAM, Word: u16() % fuzzFRAMWords}
	}
	var ops []chargeOp
	for len(data) > 0 && len(ops) < fuzzMaxOps {
		b := next()
		op := chargeOp{kind: b % 4, overhead: b&0x10 != 0}
		switch op.kind {
		case 0:
			switch v := u16() | int(next())<<16; (b >> 2) & 3 {
			case 0:
				op.dt = time.Duration(1 + v%256)
			case 1:
				op.dt = time.Duration(1 + v%65536)
			default:
				op.dt = time.Duration(1 + v%10_000_000)
			}
			op.e = units.Energy(int64(op.dt) * int64(next()) / 64)
		case 2:
			op.src = mem.Addr{Bank: mem.FRAM, Word: u16() % fuzzFRAMWords}
			op.n = 1 + u16()%min(600, fuzzFRAMWords-op.src.Word)
		case 3:
			op.src, op.dst = addr(), addr()
			limit := 600
			for _, a := range []mem.Addr{op.src, op.dst} {
				size := fuzzFRAMWords
				if a.Bank == mem.SRAM {
					size = fuzzSRAMWords
				}
				limit = min(limit, size-a.Word)
			}
			op.n = 1 + u16()%limit
		}
		ops = append(ops, op)
	}
	return ops
}

// runChargeOps applies ops to a fresh device under supply, with sink
// attached when it is non-nil: then the context has no credit. A power
// failure unwinds only the operation it lands in: the harness then does
// what the engine does between boots (fail the attempt, clear volatile
// memory, recharge, boot, re-arm) and goes on with the next operation.
func runChargeOps(supply power.Supply, seed int64, ops []chargeOp, sink CutSink) chargeOutcome {
	dev := NewDevice(supply, seed)
	fram := dev.Mem.Alloc(mem.FRAM, fuzzFRAMWords)
	dev.Mem.Alloc(mem.SRAM, fuzzSRAMWords)
	for i := 0; i < fuzzFRAMWords; i++ {
		dev.Mem.Write(fram.Add(i), uint16(i*0x9E37+1))
	}
	if sink != nil {
		dev.Cuts = sink
	}
	ctx := &Ctx{Dev: dev}
	dev.Clock.Boot()
	ctx.arm()
	var out chargeOutcome
	for i, op := range ops {
		if !applyChargeOp(ctx, op, &out) {
			continue
		}
		out.Fails = append(out.Fails, i)
		dev.Ledger.FailAttempt()
		dev.Mem.PowerFailure()
		off, _ := dev.Supply.Recharge(dev.Clock.Now())
		dev.Clock.Off(off)
		dev.Clock.Boot()
		ctx.wastedDepth = 0
		ctx.arm()
	}
	out.Clock = dev.Clock.State()
	out.Ledger = *dev.Ledger
	snap := dev.Mem.SnapshotAll()
	for b := range out.Mem {
		out.Mem[b] = snap.Words(mem.Bank(b))
	}
	out.Alloc = snap.Alloc
	return out
}

// applyChargeOp runs one operation and reports whether a power failure
// unwound it. A load finishes its run past LoadPrefix word by word, an
// index read (overhead) before each data read when indexed, as the
// runtimes' LoadRun hooks do.
func applyChargeOp(ctx *Ctx, op chargeOp, out *chargeOutcome) (failed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(powerFailure); !ok {
				panic(r)
			}
			failed = true
		}
	}()
	switch op.kind {
	case 0:
		ctx.Charge(op.dt, op.e, op.overhead)
	case 1:
		if ctx.wastedDepth > 0 && op.overhead {
			ctx.PopWasted()
		} else if ctx.wastedDepth < 3 {
			ctx.PushWasted()
		}
	case 2:
		sum, free := ctx.LoadPrefix(op.src, op.n, op.overhead)
		for j := free; j < op.n; j++ {
			if op.overhead {
				ctx.ChargeMemAccess(mem.FRAM, false, true)
			}
			ctx.ChargeMemAccess(mem.FRAM, false, false)
			sum += ctx.Dev.Mem.Read(op.src.Add(j))
		}
		out.Sums = append(out.Sums, sum)
	case 3:
		ctx.RawDMA(op.src, op.dst, op.n, op.overhead)
	}
	return false
}

// FuzzChargeMatchesSliced checks the credit rule against the per-slice
// reference path: over random sequences of charges (1 ns to 10 ms,
// useful, overhead and wasted), fused load runs and DMA transfers, under
// a timer or a schedule, a context with credit and one whose every slice
// is stepped (a no-op cut sink listens) must agree on which operations
// unwind, the loads' sums, the clock, the ledger and memory. Schedule
// points are picked from the slice boundaries of a continuous golden
// pass, shifted by -1, 0 or +1 ns, so a failure can land exactly at a
// charge's end, just before or after it, and at or before a boot (a
// point at zero, or one the previous failure's slice already passed).
func FuzzChargeMatchesSliced(f *testing.F) {
	// A 9 ms charge; loads of 600 words and of 300 indexed words; a
	// 424-word DMA; a 7.8 ms overhead charge; an overlapping 400-word
	// DMA; in wasted mode a 40 µs charge and a 500-word DMA into SRAM; a
	// 200 ns charge, an indexed 600-word load and a 9.5 ms charge.
	ops := []byte{8, 63, 84, 137, 100, 2, 0, 0, 87, 2, 18, 10, 0, 43, 1,
		3, 0, 0, 0, 0, 88, 2, 167, 1, 24, 240, 173, 118, 37,
		3, 0, 100, 0, 0, 101, 0, 143, 1, 1, 4, 63, 156, 0, 200,
		3, 0, 0, 0, 1, 0, 243, 1, 17, 0, 199, 0, 0, 64,
		18, 144, 1, 87, 2, 8, 95, 245, 144, 90}
	for _, head := range [][]byte{
		{0, 50, 150, 1},   // timer, on-time in [5 ms, 20 ms]
		{0, 0, 3, 9},      // timer, on-time in [0, 300 µs]: can fire at boot
		{7, 2, 40, 13},    // three cuts 40 apart, from 1% in, exactly
		{7, 64, 200, 0},   // three cuts 200 apart, from 25% in, 1 ns early
		{7, 128, 255, 26}, // three cuts 255 apart, from 50% in, 1 ns late
		{7, 100, 0, 21},   // the cut 39% in three times: -1, 0, +1 ns
		{3, 59, 0, 1},     // one cut inside the indexed load, exactly
		{3, 88, 0, 1},     // one cut inside the first DMA, exactly
	} {
		f.Add(append(head, ops...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		kind, a, b, seed := data[0], data[1], data[2], int64(data[3])
		ops := decodeChargeOps(data[4:])
		var mk func() power.Supply
		if kind%2 == 0 {
			// On-time window [lo, lo+span] in 100 µs steps, lo possibly zero.
			lo := time.Duration(a%201) * 100 * time.Microsecond
			cfg := power.TimerConfig{
				OnMin: lo, OnMax: lo + time.Duration(b%201)*100*time.Microsecond,
				OffMin: time.Millisecond, OffMax: 2 * time.Millisecond,
			}
			mk = func() power.Supply { return power.NewTimer(cfg) }
		} else {
			// Up to three points: the cut a/256 of the way through the
			// golden pass (cut 0 is on-time zero), then every b-th cut
			// after it, each shifted by -1, 0 or +1 ns as the seed's
			// base-3 digits say. A zero stride repeats a cut, so the next
			// point is at or before the reboot's on-time.
			golden := cutList{0}
			runChargeOps(power.Continuous{}, seed, ops, &golden)
			var pts []time.Duration
			digits := seed
			for i := 0; i < int(kind/2%4); i++ {
				cut := golden[(int(a)*len(golden)/256+i*int(b))%len(golden)]
				pts = append(pts, cut+time.Duration(digits%3)-1)
				digits /= 3
			}
			mk = func() power.Supply { return power.NewSchedule(pts...) }
		}
		checkChargePaths(t, mk, seed, ops)
	})
}

// checkChargePaths runs ops with credit and with every slice stepped,
// each under its own fresh supply, and fails on any difference.
func checkChargePaths(t *testing.T, mk func() power.Supply, seed int64, ops []chargeOp) {
	t.Helper()
	credit := runChargeOps(mk(), seed, ops, nil)
	sliced := runChargeOps(mk(), seed, ops, nopSink{})
	if !reflect.DeepEqual(credit, sliced) {
		t.Fatalf("credit and per-slice charging diverge over %d ops %+v:\ncredit %+v\nsliced %+v",
			len(ops), ops, summarize(credit), summarize(sliced))
	}
}

// summarize drops the memory words from an outcome for a readable
// failure message, keeping an FNV-1a digest of them.
func summarize(o chargeOutcome) any {
	h := uint64(14695981039346656037)
	for _, words := range o.Mem {
		for _, w := range words {
			h = (h ^ uint64(w)) * 1099511628211
		}
	}
	return struct {
		Fails  []int
		Sums   []uint16
		Clock  timekeeper.State
		Ledger Ledger
		MemFNV uint64
	}{o.Fails, o.Sums, o.Clock, o.Ledger, h}
}

// Package mem models the banked memory of an MSP430FR5994-class device:
// a large non-volatile FRAM bank, a small volatile SRAM bank, and the
// volatile LEA-RAM the vector accelerator operates on.
//
// Memory is word-addressed (16-bit words, matching the MSP430). The model
// is deliberately a plain state machine: it stores words, clears volatile
// banks on power failure, and keeps two footprint figures per bank — the
// allocator watermark and the high-water mark of writes — which the
// Table 6 memory report reads. Time and energy accounting belongs to the
// execution kernel, which charges costs *before* touching memory so that
// a power failure can cut an operation between the charge and the state
// change — the property idempotence bugs depend on.
//
// Read and Write check bounds one word at a time, and Write raises the
// high-water mark. The bulk users — the LEA kernels, the checker's
// classify pass, the fused load prefix, DMA copy windows and the output
// checker — instead validate a whole range once with Span; a bulk writer
// then raises the mark once per command with Wrote. Equal compares two
// word ranges at memory speed.
//
// Every write path raises the high-water mark, so every word at or above
// a bank's mark is zero. Reset, PowerFailure, snapshots and restores
// therefore touch only the words below the mark — the words a run wrote
// — and a snapshot's prefix length is the mark: an allocation a run
// barely writes costs its snapshots nothing past what it wrote.
//
// The FRAM bank's backing store starts empty and grows — doubling, capped
// at FRAMWords — as allocation, restores and accesses reach further: the
// simulated apps use a few KiB of the 256 KiB bank, and every app build
// makes a device, so a store sized to the footprint keeps a build from
// allocating and zeroing the whole bank. Capacity, addressing and errors
// are those of the full bank; a word past the store reads as zero, as it
// would on a fresh device. Growth replaces the store, so no caller may
// hold a bank slice (a Span, a CopyWindow) across a call that can grow
// its bank.
package mem

import (
	"bytes"
	"fmt"
	"unsafe"
)

// Bank identifies one of the device's memory banks.
type Bank uint8

// The device's banks.
const (
	// FRAM is the non-volatile main memory (persists across power failures).
	FRAM Bank = iota
	// SRAM is the volatile main memory (cleared on power failure).
	SRAM
	// LEARAM is the volatile RAM the LEA vector accelerator reads and
	// writes (cleared on power failure).
	LEARAM

	numBanks
)

// String returns the conventional name of the bank.
func (b Bank) String() string {
	switch b {
	case FRAM:
		return "FRAM"
	case SRAM:
		return "SRAM"
	case LEARAM:
		return "LEA-RAM"
	default:
		return fmt.Sprintf("Bank(%d)", uint8(b))
	}
}

// Volatile reports whether the bank loses its contents on power failure.
func (b Bank) Volatile() bool { return b != FRAM }

// Addr names a word inside a bank.
type Addr struct {
	Bank Bank
	Word int // word offset within the bank
}

// Add returns the address n words past a.
func (a Addr) Add(n int) Addr { return Addr{a.Bank, a.Word + n} }

// String formats the address as BANK+offset.
func (a Addr) String() string { return fmt.Sprintf("%s+0x%04x", a.Bank, a.Word) }

// Sizes of the modeled banks, in 16-bit words. They match the
// MSP430FR5994: 256 KB FRAM, 4 KB SRAM, 4 KB LEA-RAM.
const (
	FRAMWords   = 256 * 1024 / 2
	SRAMWords   = 4 * 1024 / 2
	LEARAMWords = 4 * 1024 / 2
)

// capacity holds each bank's size in words.
var capacity = [numBanks]int{FRAM: FRAMWords, SRAM: SRAMWords, LEARAM: LEARAMWords}

// minGrowWords is the smallest backing store a growth allocates.
const minGrowWords = 1024

// Memory is the full banked memory of one device.
type Memory struct {
	// banks holds each bank's backing store: its first len words, every
	// word past them being zero. SRAM and LEA-RAM are whole from New;
	// FRAM grows (see grow). The store always covers both the allocator
	// watermark and the high-water mark.
	banks     [numBanks][]uint16
	alloc     [numBanks]int // bump-allocator watermark, in words
	highWater [numBanks]int // 1 + highest word ever written
}

// New returns a zeroed memory with MSP430FR5994 bank sizes. The FRAM
// backing store starts empty.
func New() *Memory {
	m := &Memory{}
	m.banks[SRAM] = make([]uint16, SRAMWords)
	m.banks[LEARAM] = make([]uint16, LEARAMWords)
	return m
}

// Size returns the capacity of the bank in words — the MSP430FR5994
// bank size, however much of it the backing store holds yet.
func (m *Memory) Size(b Bank) int { return capacity[b] }

// grow replaces bank b's backing store with one of at least need words
// (need must not exceed the bank's capacity): twice the old store, at
// least minGrowWords, capped at the capacity. The words past the old
// store are zero, as they read before. Every slice of the old store is
// stale afterwards.
func (m *Memory) grow(b Bank, need int) {
	s := make([]uint16, min(max(need, 2*len(m.banks[b]), minGrowWords), capacity[b]))
	copy(s, m.banks[b])
	m.banks[b] = s
}

// Allocated returns the bump-allocator watermark of the bank in words.
func (m *Memory) Allocated(b Bank) int { return m.alloc[b] }

// Alloc reserves n words in bank b. It panics if the bank is exhausted:
// the simulated applications have fixed, known footprints, so exhaustion
// is a programming error, not a runtime condition.
func (m *Memory) Alloc(b Bank, n int) Addr {
	if n < 0 {
		panic(fmt.Sprintf("mem: negative allocation in %s (%d words)", b, n))
	}
	if m.alloc[b]+n > capacity[b] {
		panic(fmt.Sprintf("mem: %s exhausted allocating %d words (%d free)",
			b, n, capacity[b]-m.alloc[b]))
	}
	a := Addr{b, m.alloc[b]}
	m.alloc[b] += n
	if m.alloc[b] > len(m.banks[b]) {
		m.grow(b, m.alloc[b])
	}
	return a
}

// check validates an address against the backing store. The slow path
// lives in checkSlow so that check — and the Read/Write hot paths around
// it — stay inlinable. The unsigned comparison folds the negative-word
// and past-end tests into one branch, which keeps Read/Write within the
// inlining budget at their own call sites (the DMA word loop lives or
// dies by this).
func (m *Memory) check(a Addr, what string) {
	if uint(a.Bank) >= uint(numBanks) || uint(a.Word) >= uint(len(m.banks[a.Bank])) {
		m.checkSlow(a, what)
	}
}

// checkSlow grows the backing store for a word inside the bank's capacity
// but past the store, and panics for any other address.
func (m *Memory) checkSlow(a Addr, what string) {
	if a.Bank >= numBanks {
		panic(fmt.Sprintf("mem: %s of invalid bank %d", what, a.Bank))
	}
	if uint(a.Word) >= uint(capacity[a.Bank]) {
		panic(fmt.Sprintf("mem: %s out of range: %s", what, a))
	}
	m.grow(a.Bank, a.Word+1)
}

// Read returns the word at a.
func (m *Memory) Read(a Addr) uint16 {
	m.check(a, "read")
	return m.banks[a.Bank][a.Word]
}

// Write stores v at a and raises the bank's high-water mark.
func (m *Memory) Write(a Addr, v uint16) {
	m.check(a, "write")
	if a.Word+1 > m.highWater[a.Bank] {
		m.highWater[a.Bank] = a.Word + 1
	}
	m.banks[a.Bank][a.Word] = v
}

// HighWater returns 1 + the highest word offset ever written in bank b —
// the bank's effective footprint (used by the Table 6 memory report for
// volatile banks, which have no allocator).
func (m *Memory) HighWater(b Bank) int { return m.highWater[b] }

// WriteBlock stores the first n words of src starting at a. A
// zero-length write validates a (any word up to the bank's end) and
// leaves the high-water mark alone.
func (m *Memory) WriteBlock(a Addr, src []uint16, n int) {
	copy(m.Span(a, n), src[:n])
	if n > 0 {
		m.Wrote(a.Bank, a.Word+n)
	}
}

// Span validates the n-word range starting at a and returns the bank's
// live words for it — the pre-validated primitive under every bulk
// accessor. A caller that writes through the slice raises the
// high-water mark with Wrote, once per command; a reader needs nothing
// more. The slice's capacity ends with the range, so an append cannot
// spill into the neighbouring words. A zero-length span is valid
// anywhere from word 0 up to the bank's end. A range past the FRAM
// backing store grows it first, so the slice is valid only until the
// next call that can grow the bank again.
func (m *Memory) Span(a Addr, n int) []uint16 {
	if uint(a.Bank) >= uint(numBanks) || uint(a.Word) > uint(len(m.banks[a.Bank])) ||
		uint(n) > uint(len(m.banks[a.Bank])-a.Word) {
		m.spanSlow(a, n)
	}
	return m.banks[a.Bank][a.Word : a.Word+n : a.Word+n]
}

// spanSlow grows the backing store for a range inside the bank's capacity
// but past the store, and panics for any other range.
func (m *Memory) spanSlow(a Addr, n int) {
	if a.Bank >= numBanks {
		panic(fmt.Sprintf("mem: span of invalid bank %d", a.Bank))
	}
	if uint(a.Word) > uint(capacity[a.Bank]) || uint(n) > uint(capacity[a.Bank]-a.Word) {
		panic(fmt.Sprintf("mem: %d-word span out of range: %s", n, a))
	}
	m.grow(a.Bank, a.Word+n)
}

// Wrote raises bank b's high-water mark to end (1 + the highest word a
// bulk write through Span stored). It is the bookkeeping half of a
// Span write.
func (m *Memory) Wrote(b Bank, end int) {
	if end > m.highWater[b] {
		m.highWater[b] = end
	}
}

// CopyWindow is a pre-validated word-at-a-time copy between two ranges —
// the DMA hot path. Constructing one performs every word's bounds check
// up front; Move then transfers word i with exactly the effects of Read
// followed by Write (the word and the high-water mark), but cheap enough
// to inline into the kernel's per-word charge loop. A window is
// invalidated by anything that grows a bank it spans (an access, a span,
// an allocation or a restore past the FRAM backing store), so it must not
// outlive the command it serves.
type CopyWindow struct {
	src, dst []uint16
	hw       *int
	dstBase  int
	bulk     bool
}

// CopyWindowFor validates the n-word source and destination ranges and
// returns a window over them. n must be positive.
func (m *Memory) CopyWindowFor(src, dst Addr, n int) CopyWindow {
	// Validate (and grow for) both ranges before slicing either: a same-bank
	// copy whose destination lies past the FRAM store would otherwise grow
	// the bank under an already-taken source slice. Once both are covered,
	// neither Span below can grow.
	m.Span(src, n)
	m.Span(dst, n)
	return CopyWindow{
		src:     m.Span(src, n),
		dst:     m.Span(dst, n),
		hw:      &m.highWater[dst.Bank],
		dstBase: dst.Word,
		// A destination that starts inside the source range (same bank,
		// later start) makes the forward word-at-a-time copy propagate
		// already-copied values; only then does MoveN's memmove diverge.
		bulk: !(src.Bank == dst.Bank && dst.Word > src.Word && dst.Word < src.Word+n),
	}
}

// Move copies word i of the window.
func (w *CopyWindow) Move(i int) {
	if b := w.dstBase + i + 1; b > *w.hw {
		*w.hw = b
	}
	w.dst[i] = w.src[i]
}

// Bulkable reports whether MoveN is byte-equivalent to the same words
// moved one Move at a time (false only for value-propagating overlap).
func (w *CopyWindow) Bulkable() bool { return w.bulk }

// MoveN copies words [i, i+n) of the window at once, with the exact
// high-water effect of n consecutive Move calls.
func (w *CopyWindow) MoveN(i, n int) {
	if n <= 0 {
		return
	}
	if b := w.dstBase + i + n; b > *w.hw {
		*w.hw = b
	}
	copy(w.dst[i:i+n], w.src[i:i+n])
}

// Reset clears all memory contents and high-water marks while preserving
// the allocator watermarks, so a runtime attached to this memory keeps
// its addresses valid across runs. Only the words below each bank's
// high-water mark can have been written, so clearing them restores the
// bank to its as-new all-zero state.
func (m *Memory) Reset() {
	for b := Bank(0); b < numBanks; b++ {
		clear(m.banks[b][:m.highWater[b]])
		m.highWater[b] = 0
	}
}

// PowerFailure clears every volatile bank, exactly what a real power
// failure does to SRAM and LEA-RAM. FRAM contents survive. Only the words
// below the high-water mark are touched: every write path (Read/Write,
// blocks, copy windows) maintains the mark, and RestoreAll re-establishes
// it, so the words above it are provably zero already — clearing them
// again cost a full 4 KB memclr per bank per failure, which showed up in
// sweep profiles.
func (m *Memory) PowerFailure() {
	for b := Bank(0); b < numBanks; b++ {
		if !b.Volatile() {
			continue
		}
		clear(m.banks[b][:m.highWater[b]])
	}
}

// DeviceSnapshot captures the full mid-run state of a Memory: the words
// below each bank's high-water mark. The prefix's length is the mark, so
// a snapshot is proportional to the words a run wrote, not to what it
// allocated or to the 256 KB FRAM bank. The allocator watermarks are
// recorded but never restored — a snapshot may only be restored into a
// memory with the same allocation layout, which RestoreAll verifies.
//
// Every field is indexed by Bank. Used holds each bank's written word
// prefix and Alloc the allocator watermarks. internal/wire encodes the
// value as is; Validate is the check a decoder runs on untrusted state.
type DeviceSnapshot struct {
	Used  [NumBanks][]uint16
	Alloc [NumBanks]int
}

// SnapshotAll captures the words below every bank's high-water mark.
func (m *Memory) SnapshotAll() *DeviceSnapshot { return m.SnapshotAllInto(nil) }

// SnapshotAllInto is SnapshotAll reusing s's buffers when s is non-nil —
// the allocation-free path for callers that recycle snapshots (the
// checker takes one per candidate failure point; fresh buffers each
// time dominated its recording cost).
func (m *Memory) SnapshotAllInto(s *DeviceSnapshot) *DeviceSnapshot {
	if s == nil {
		s = &DeviceSnapshot{}
	}
	s.Alloc = m.alloc
	for b := Bank(0); b < numBanks; b++ {
		s.Used[b] = append(s.Used[b][:0], m.banks[b][:m.highWater[b]]...)
	}
	return s
}

// RestoreAll overwrites the memory's contents and high-water marks from
// a snapshot taken earlier: each bank's mark becomes the length of its
// snapshot prefix. The target must have the same allocator watermarks as
// the snapshotted memory (i.e. the same blueprint attached in the same
// order); it panics otherwise, since restoring into a different layout
// is a harness bug. Words above either memory's high-water mark are
// provably zero, so only the words below the larger of the two marks
// are touched. A backing store shorter than the snapshot's prefix grows
// to hold it first.
func (m *Memory) RestoreAll(s *DeviceSnapshot) {
	if m.alloc != s.Alloc {
		panic(fmt.Sprintf("mem: restore-all layout mismatch: alloc %v vs %v",
			m.alloc, s.Alloc))
	}
	for b := Bank(0); b < numBanks; b++ {
		k := len(s.Used[b])
		if k > len(m.banks[b]) {
			m.grow(b, k)
		}
		// The copy overwrites the snapshot's prefix; only the words the
		// current memory wrote beyond it need explicit clearing.
		if n := m.highWater[b]; n > k {
			clear(m.banks[b][k:n])
		}
		copy(m.banks[b], s.Used[b])
		m.highWater[b] = k
	}
}

// EqualRange reports whether the n words starting at a equal want; a
// range past the bank's end is unequal.
func (m *Memory) EqualRange(a Addr, want []uint16) bool {
	if a.Word+len(want) > capacity[a.Bank] {
		return false
	}
	return Equal(m.Span(a, len(want)), want)
}

// Equal reports whether a and b hold the same words. It compares their
// byte views in one call to the runtime's memequal instead of a word
// loop: the classify, output-check and FIR-memo paths compare whole
// variables and vectors per call.
func Equal(a, b []uint16) bool {
	return len(a) == len(b) && bytes.Equal(byteView(a), byteView(b))
}

// byteView returns the bytes under words without copying them.
func byteView(words []uint16) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 2*len(words))
}

// NumBanks is the number of modeled memory banks, exported for
// serialization layers that flatten per-bank state.
const NumBanks = int(numBanks)

// Validate rejects a snapshot that cannot have come from a real memory:
// a prefix longer than its bank or an allocator watermark out of range.
// A decoder runs it on untrusted state, so RestoreAll's own panics are
// left for harness bugs.
func (s *DeviceSnapshot) Validate() error {
	for b := Bank(0); b < numBanks; b++ {
		cap := capacity[b]
		if len(s.Used[b]) > cap {
			return fmt.Errorf("mem: %s snapshot prefix %d words exceeds bank size %d",
				b, len(s.Used[b]), cap)
		}
		if s.Alloc[b] < 0 || s.Alloc[b] > cap {
			return fmt.Errorf("mem: %s snapshot watermark %d out of range [0,%d]",
				b, s.Alloc[b], cap)
		}
	}
	return nil
}

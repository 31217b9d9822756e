// Package mem models the banked memory of an MSP430FR5994-class device:
// a large non-volatile FRAM bank, a small volatile SRAM bank, and the
// volatile LEA-RAM the vector accelerator operates on.
//
// Memory is word-addressed (16-bit words, matching the MSP430). The model
// is deliberately a plain state machine: it stores words, clears volatile
// banks on power failure, and counts accesses. Time and energy accounting
// belongs to the execution kernel, which charges costs *before* touching
// memory so that a power failure can cut an operation between the charge
// and the state change — the property idempotence bugs depend on.
//
// Read and Write check bounds and count one access per word. The bulk
// users — the LEA kernels, the checker's classify pass and the fused
// load prefix — instead validate a whole range once with Span and book
// their accesses once per command with Book (DMA copy windows and read
// views validate through Span too, but still count per word). The
// counters and high-water marks come out exactly as the per-word calls
// would leave them, because no power failure and no other reader can
// fall between the words of one such command.
package mem

import (
	"fmt"
	"sort"
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

// Counters tallies accesses to one bank.
type Counters struct {
	Reads  int64
	Writes int64
}

// Memory is the full banked memory of one device.
type Memory struct {
	banks     [numBanks][]uint16
	alloc     [numBanks]int // bump-allocator watermark, in words
	counts    [numBanks]Counters
	highWater [numBanks]int // 1 + highest word ever written
	regions   []Region      // allocation records for accounting
}

// Region records one allocation, for memory-overhead accounting (Table 6).
type Region struct {
	Name  string
	Owner string // "app" or a runtime name; used to attribute overhead
	Addr  Addr
	Words int
}

// New returns a zeroed memory with MSP430FR5994 bank sizes.
func New() *Memory {
	m := &Memory{}
	m.banks[FRAM] = make([]uint16, FRAMWords)
	m.banks[SRAM] = make([]uint16, SRAMWords)
	m.banks[LEARAM] = make([]uint16, LEARAMWords)
	return m
}

// Size returns the capacity of the bank in words.
func (m *Memory) Size(b Bank) int { return len(m.banks[b]) }

// Allocated returns the bump-allocator watermark of the bank in words.
func (m *Memory) Allocated(b Bank) int { return m.alloc[b] }

// Alloc reserves n words in bank b and records the allocation under the
// given name and owner. It panics if the bank is exhausted: the simulated
// applications have fixed, known footprints, so exhaustion is a programming
// error, not a runtime condition.
func (m *Memory) Alloc(b Bank, owner, name string, n int) Addr {
	if n < 0 {
		panic(fmt.Sprintf("mem: negative allocation %q (%d words)", name, n))
	}
	if m.alloc[b]+n > len(m.banks[b]) {
		panic(fmt.Sprintf("mem: %s exhausted allocating %q (%d words, %d free)",
			b, name, n, len(m.banks[b])-m.alloc[b]))
	}
	a := Addr{b, m.alloc[b]}
	m.alloc[b] += n
	m.regions = append(m.regions, Region{Name: name, Owner: owner, Addr: a, Words: n})
	return a
}

// Regions returns a copy of the allocation records.
func (m *Memory) Regions() []Region {
	out := make([]Region, len(m.regions))
	copy(out, m.regions)
	return out
}

// OwnerWords returns the number of words allocated in bank b attributed to
// the given owner.
func (m *Memory) OwnerWords(b Bank, owner string) int {
	total := 0
	for _, r := range m.regions {
		if r.Addr.Bank == b && r.Owner == owner {
			total += r.Words
		}
	}
	return total
}

// Owners returns the distinct owners that have allocations, sorted.
func (m *Memory) Owners() []string {
	set := map[string]bool{}
	for _, r := range m.regions {
		set[r.Owner] = true
	}
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// check validates an address. The failure path lives in checkFail so that
// check — and the Read/Write hot paths around it — stay inlinable. The
// unsigned comparison folds the negative-word and past-end tests into
// one branch, which keeps Read/Write within the inlining budget at their
// own call sites (the DMA word loop lives or dies by this).
func (m *Memory) check(a Addr, what string) {
	if uint(a.Bank) >= uint(numBanks) || uint(a.Word) >= uint(len(m.banks[a.Bank])) {
		m.checkFail(a, what)
	}
}

func (m *Memory) checkFail(a Addr, what string) {
	if a.Bank >= numBanks {
		panic(fmt.Sprintf("mem: %s of invalid bank %d", what, a.Bank))
	}
	panic(fmt.Sprintf("mem: %s out of range: %s", what, a))
}

// Read returns the word at a and counts the access.
func (m *Memory) Read(a Addr) uint16 {
	m.check(a, "read")
	m.counts[a.Bank].Reads++
	return m.banks[a.Bank][a.Word]
}

// Write stores v at a and counts the access.
func (m *Memory) Write(a Addr, v uint16) {
	m.check(a, "write")
	m.counts[a.Bank].Writes++
	if a.Word+1 > m.highWater[a.Bank] {
		m.highWater[a.Bank] = a.Word + 1
	}
	m.banks[a.Bank][a.Word] = v
}

// HighWater returns 1 + the highest word offset ever written in bank b —
// the bank's effective footprint (used by the Table 6 memory report for
// volatile banks, which have no allocator).
func (m *Memory) HighWater(b Bank) int { return m.highWater[b] }

// WriteBlock stores the first n words of src starting at a and counts
// n writes. A zero-length write validates a (any word up to the bank's
// end) and books nothing.
func (m *Memory) WriteBlock(a Addr, src []uint16, n int) {
	copy(m.Span(a, n), src[:n])
	if n > 0 {
		m.Book(a.Bank, 0, int64(n), a.Word+n)
	}
}

// Span validates the n-word range starting at a and returns the bank's
// live words for it — the pre-validated primitive under every bulk
// accessor. Span itself counts nothing: a caller that reads or writes
// through the slice books those accesses with Book, once per command,
// so the counters and high-water mark end exactly where the same
// accesses made one Read/Write at a time would leave them. That is
// exact whenever nothing can observe the memory between the words of
// one command: a LEA command (a power failure aborts it before it
// touches LEA-RAM), the checker's classify pass and the bulk-charged
// prefix of a fused load all qualify. The slice's capacity ends with
// the range, so an append cannot spill into the neighbouring words. A
// zero-length span is valid anywhere from word 0 up to the bank's end.
func (m *Memory) Span(a Addr, n int) []uint16 {
	if uint(a.Bank) >= uint(numBanks) || uint(a.Word) > uint(len(m.banks[a.Bank])) ||
		uint(n) > uint(len(m.banks[a.Bank])-a.Word) {
		m.spanFail(a, n)
	}
	return m.banks[a.Bank][a.Word : a.Word+n : a.Word+n]
}

func (m *Memory) spanFail(a Addr, n int) {
	if a.Bank >= numBanks {
		panic(fmt.Sprintf("mem: span of invalid bank %d", a.Bank))
	}
	panic(fmt.Sprintf("mem: %d-word span out of range: %s", n, a))
}

// Book counts reads and writes against bank b and raises its high-water
// mark to end (1 + the highest word written; pass 0 when nothing was
// written). It is the accounting half of Span.
func (m *Memory) Book(b Bank, reads, writes int64, end int) {
	c := &m.counts[b]
	c.Reads += reads
	c.Writes += writes
	if end > m.highWater[b] {
		m.highWater[b] = end
	}
}

// Counts returns the access counters of bank b.
func (m *Memory) Counts(b Bank) Counters { return m.counts[b] }

// CopyWindow is a pre-validated word-at-a-time copy between two ranges —
// the DMA hot path. Constructing one performs every word's bounds check
// up front; Move then transfers word i with exactly the counting and
// high-water effects of Read followed by Write, but cheap enough to
// inline into the kernel's per-word charge loop. A window is invalidated
// by anything that reallocates the memory (nothing does after New).
type CopyWindow struct {
	src, dst []uint16
	reads    *int64
	writes   *int64
	hw       *int
	dstBase  int
	bulk     bool
}

// CopyWindowFor validates the n-word source and destination ranges and
// returns a window over them. n must be positive.
func (m *Memory) CopyWindowFor(src, dst Addr, n int) CopyWindow {
	return CopyWindow{
		src:     m.Span(src, n),
		dst:     m.Span(dst, n),
		reads:   &m.counts[src.Bank].Reads,
		writes:  &m.counts[dst.Bank].Writes,
		hw:      &m.highWater[dst.Bank],
		dstBase: dst.Word,
		// A destination that starts inside the source range (same bank,
		// later start) makes the forward word-at-a-time copy propagate
		// already-copied values; only then does MoveN's memmove diverge.
		bulk: !(src.Bank == dst.Bank && dst.Word > src.Word && dst.Word < src.Word+n),
	}
}

// Move copies word i of the window, counting one read and one write.
func (w *CopyWindow) Move(i int) {
	*w.reads++
	*w.writes++
	if b := w.dstBase + i + 1; b > *w.hw {
		*w.hw = b
	}
	w.dst[i] = w.src[i]
}

// Bulkable reports whether MoveN is byte-equivalent to the same words
// moved one Move at a time (false only for value-propagating overlap).
func (w *CopyWindow) Bulkable() bool { return w.bulk }

// MoveN copies words [i, i+n) of the window at once, with the exact
// counting and high-water effects of n consecutive Move calls.
func (w *CopyWindow) MoveN(i, n int) {
	if n <= 0 {
		return
	}
	*w.reads += int64(n)
	*w.writes += int64(n)
	if b := w.dstBase + i + n; b > *w.hw {
		*w.hw = b
	}
	copy(w.dst[i:i+n], w.src[i:i+n])
}

// ReadView is a pre-validated read-only view of a word range, for tight
// scan loops (the output checker reads every word of every result
// variable once per run). At counts one read per call, identical to
// per-word Read.
type ReadView struct {
	words []uint16
	reads *int64
}

// View validates the n-word range at a and returns a read view of it.
func (m *Memory) View(a Addr, n int) ReadView {
	return ReadView{words: m.Span(a, n), reads: &m.counts[a.Bank].Reads}
}

// At returns word i of the view and counts the read.
func (v ReadView) At(i int) uint16 {
	*v.reads++
	return v.words[i]
}

// Reset clears all memory contents, access counters and high-water marks
// while preserving the allocator state and allocation records, so a
// runtime attached to this memory keeps its addresses valid across runs.
// Only words that can have been written are cleared: runtime-mediated
// writes stay below the allocator watermark and raw writes (DMA into
// LEA-RAM) below the high-water mark, so clearing up to the larger of the
// two restores the bank to its as-new all-zero state.
func (m *Memory) Reset() {
	for b := Bank(0); b < numBanks; b++ {
		n := m.alloc[b]
		if m.highWater[b] > n {
			n = m.highWater[b]
		}
		clear(m.banks[b][:n])
		m.counts[b] = Counters{}
		m.highWater[b] = 0
	}
}

// PowerFailure clears every volatile bank, exactly what a real power
// failure does to SRAM and LEA-RAM. FRAM contents survive. Only the used
// prefix is touched: every write path (Read/Write, blocks, copy windows)
// maintains the high-water mark, and Restore re-establishes it, so words
// above max(alloc, highWater) are provably zero already — clearing them
// again cost a full 4 KB memclr per bank per failure, which showed up in
// sweep profiles.
func (m *Memory) PowerFailure() {
	for b := Bank(0); b < numBanks; b++ {
		if !b.Volatile() {
			continue
		}
		clear(m.banks[b][:m.usedWords(b)])
	}
}

// DeviceSnapshot captures the full mid-run state of a Memory: every
// bank's used prefix plus the access counters and high-water marks. The
// allocator watermarks are recorded but never restored — a snapshot may
// only be restored into a memory with the same allocation layout, which
// RestoreAll verifies — and region records are not copied. Copying just
// the used prefix (everything at or below max(alloc, highWater) per
// bank, the same bound Reset clears) keeps snapshots proportional to the
// app's footprint instead of the 256 KB FRAM bank.
//
// Every field is indexed by Bank. Used holds each bank's used word
// prefix, Alloc the allocator watermarks, Counts the access counters and
// HighWater the high-water marks. internal/wire encodes the value as is;
// Validate is the check a decoder runs on untrusted state.
type DeviceSnapshot struct {
	Used      [NumBanks][]uint16
	Alloc     [NumBanks]int
	Counts    [NumBanks]Counters
	HighWater [NumBanks]int
}

// usedWords returns how many words of bank b can differ from zero: the
// larger of the allocator watermark and the high-water mark (raw DMA
// writes can land above the watermark).
func (m *Memory) usedWords(b Bank) int {
	n := m.alloc[b]
	if m.highWater[b] > n {
		n = m.highWater[b]
	}
	return n
}

// SnapshotAll captures every bank's used prefix together with the access
// counters and high-water marks.
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
	s.Counts = m.counts
	s.HighWater = m.highWater
	for b := Bank(0); b < numBanks; b++ {
		n := m.usedWords(b)
		s.Used[b] = append(s.Used[b][:0], m.banks[b][:n]...)
	}
	return s
}

// RestoreAll overwrites the memory's contents, counters and high-water
// marks from a snapshot taken earlier. The target must have the same
// allocator watermarks as the snapshotted memory (i.e. the same
// blueprint attached in the same order); it panics otherwise, since
// restoring into a different layout is a harness bug. Words above the
// target's own used prefix are provably zero in both memories, so only
// the prefixes are touched.
func (m *Memory) RestoreAll(s *DeviceSnapshot) {
	if m.alloc != s.Alloc {
		panic(fmt.Sprintf("mem: restore-all layout mismatch: alloc %v vs %v",
			m.alloc, s.Alloc))
	}
	for b := Bank(0); b < numBanks; b++ {
		// The copy overwrites the snapshot's prefix; only the tail the
		// current memory used beyond it needs explicit clearing.
		if n, k := m.usedWords(b), len(s.Used[b]); n > k {
			clear(m.banks[b][k:n])
		}
		copy(m.banks[b], s.Used[b])
	}
	m.counts = s.Counts
	m.highWater = s.HighWater
}

// EqualRange reports whether the n words starting at a equal want.
func (m *Memory) EqualRange(a Addr, want []uint16) bool {
	if a.Word+len(want) > len(m.banks[a.Bank]) {
		return false
	}
	got := m.banks[a.Bank][a.Word : a.Word+len(want)]
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// NumBanks is the number of modeled memory banks, exported for
// serialization layers that flatten per-bank state.
const NumBanks = int(numBanks)

// bankWords returns the fixed capacity of bank b in words.
func bankWords(b Bank) int {
	switch b {
	case FRAM:
		return FRAMWords
	case SRAM:
		return SRAMWords
	case LEARAM:
		return LEARAMWords
	default:
		panic(fmt.Sprintf("mem: no capacity for %v", b))
	}
}

// Validate rejects a snapshot that cannot have come from a real memory:
// a prefix longer than its bank, watermarks out of range or negative
// counters. A decoder runs it on untrusted state, so RestoreAll's own
// panics are left for harness bugs.
func (s *DeviceSnapshot) Validate() error {
	for b := Bank(0); b < numBanks; b++ {
		cap := bankWords(b)
		if len(s.Used[b]) > cap {
			return fmt.Errorf("mem: %s snapshot prefix %d words exceeds bank size %d",
				b, len(s.Used[b]), cap)
		}
		if s.Alloc[b] < 0 || s.Alloc[b] > cap {
			return fmt.Errorf("mem: %s snapshot watermark %d out of range [0,%d]",
				b, s.Alloc[b], cap)
		}
		if s.HighWater[b] < 0 || s.HighWater[b] > cap {
			return fmt.Errorf("mem: %s snapshot high-water %d out of range [0,%d]",
				b, s.HighWater[b], cap)
		}
		if s.Counts[b].Reads < 0 || s.Counts[b].Writes < 0 {
			return fmt.Errorf("mem: %s snapshot counters negative: %+v", b, s.Counts[b])
		}
	}
	return nil
}

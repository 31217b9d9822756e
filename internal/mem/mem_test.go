package mem

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestBankProperties(t *testing.T) {
	if FRAM.Volatile() {
		t.Error("FRAM must be non-volatile")
	}
	if !SRAM.Volatile() || !LEARAM.Volatile() {
		t.Error("SRAM and LEA-RAM must be volatile")
	}
	if FRAM.String() != "FRAM" || SRAM.String() != "SRAM" || LEARAM.String() != "LEA-RAM" {
		t.Errorf("bank names: %v %v %v", FRAM, SRAM, LEARAM)
	}
}

func TestBankSizes(t *testing.T) {
	m := New()
	if m.Size(FRAM) != 256*1024/2 {
		t.Errorf("FRAM size = %d words", m.Size(FRAM))
	}
	if m.Size(SRAM) != 4*1024/2 {
		t.Errorf("SRAM size = %d words", m.Size(SRAM))
	}
	if m.Size(LEARAM) != 4*1024/2 {
		t.Errorf("LEA-RAM size = %d words", m.Size(LEARAM))
	}
}

func TestAlloc(t *testing.T) {
	m := New()
	a := m.Alloc(FRAM, 10)
	b := m.Alloc(FRAM, 2)
	if a.Bank != FRAM || a.Word != 0 {
		t.Errorf("first alloc at %v", a)
	}
	if b.Word != 10 {
		t.Errorf("second alloc at %v, want word 10", b)
	}
	if m.Allocated(FRAM) != 12 {
		t.Errorf("allocated = %d, want 12", m.Allocated(FRAM))
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on exhaustion")
		}
	}()
	m.Alloc(SRAM, m.Size(SRAM)+1)
}

func TestReadWrite(t *testing.T) {
	m := New()
	a := Addr{FRAM, 100}
	m.Write(a, 0xBEEF)
	if got := m.Read(a); got != 0xBEEF {
		t.Errorf("read back %#x", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New()
	for _, a := range []Addr{
		{FRAM, -1},
		{FRAM, m.Size(FRAM)},
		{Bank(9), 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", a)
				}
			}()
			m.Read(a)
		}()
	}
}

func TestPowerFailureClearsOnlyVolatile(t *testing.T) {
	m := New()
	m.Write(Addr{FRAM, 5}, 111)
	m.Write(Addr{SRAM, 5}, 222)
	m.Write(Addr{LEARAM, 5}, 333)
	m.PowerFailure()
	if got := m.Read(Addr{FRAM, 5}); got != 111 {
		t.Errorf("FRAM lost data: %d", got)
	}
	if got := m.Read(Addr{SRAM, 5}); got != 0 {
		t.Errorf("SRAM survived: %d", got)
	}
	if got := m.Read(Addr{LEARAM, 5}); got != 0 {
		t.Errorf("LEA-RAM survived: %d", got)
	}
}

// TestResetRewindsToImage pins Reset's contract: FRAM comes back as the
// image followed by zeros, with the image's length as its mark, the
// volatile banks come back cleared, and the allocator watermarks stay.
func TestResetRewindsToImage(t *testing.T) {
	m := New()
	a := m.Alloc(FRAM, 8)
	m.WriteBlock(a, []uint16{1, 2, 3}, 3)
	m.Write(a, 9)
	m.Write(a.Add(6), 7)
	m.Write(Addr{SRAM, 4}, 5)
	m.Reset([]uint16{1, 2, 3})
	if got, want := m.Span(a, 8), []uint16{1, 2, 3, 0, 0, 0, 0, 0}; !Equal(got, want) {
		t.Errorf("FRAM after Reset = %v, want %v", got, want)
	}
	if got := m.Read(Addr{SRAM, 4}); got != 0 {
		t.Errorf("SRAM survived Reset: %d", got)
	}
	if hf, hs := m.HighWater(FRAM), m.HighWater(SRAM); hf != 3 || hs != 0 {
		t.Errorf("high-water marks FRAM %d, SRAM %d; want 3, 0", hf, hs)
	}
	if got := m.Allocated(FRAM); got != 8 {
		t.Errorf("FRAM watermark %d after Reset, want 8", got)
	}
}

func TestBlockTransfer(t *testing.T) {
	m := New()
	src := []uint16{1, 2, 3, 4, 5}
	m.WriteBlock(Addr{FRAM, 50}, src, 5)
	if got := m.Span(Addr{FRAM, 50}, 5); !reflect.DeepEqual(got, src) {
		t.Fatalf("span = %v, want %v", got, src)
	}
	if m.HighWater(FRAM) != 55 {
		t.Errorf("block high water %d, want 55", m.HighWater(FRAM))
	}
}

// TestWriteBlockZeroLength pins that an empty write is valid at every
// word from 0 to the bank's end and leaves the high-water mark alone.
func TestWriteBlockZeroLength(t *testing.T) {
	m := New()
	for _, w := range []int{0, 1, m.Size(SRAM)} {
		m.WriteBlock(Addr{SRAM, w}, nil, 0)
	}
	if m.HighWater(SRAM) != 0 {
		t.Errorf("zero-length writes moved the high water to %d", m.HighWater(SRAM))
	}
}

// TestSpanBounds pins Span's range check: it accepts exactly the ranges
// inside the bank (empty ones up to the bank's end) and panics on the
// rest, and the slice it returns cannot grow past its range.
func TestSpanBounds(t *testing.T) {
	m := New()
	n := m.Size(LEARAM)
	for _, r := range []struct{ word, n int }{{0, 0}, {0, n}, {n - 1, 1}, {n, 0}} {
		if got := m.Span(Addr{LEARAM, r.word}, r.n); len(got) != r.n || cap(got) != r.n {
			t.Errorf("Span(%d, %d) has len %d cap %d", r.word, r.n, len(got), cap(got))
		}
	}
	for _, r := range []struct {
		a Addr
		n int
	}{
		{Addr{LEARAM, -1}, 1},
		{Addr{LEARAM, 0}, -1},
		{Addr{LEARAM, n}, 1},
		{Addr{LEARAM, n + 1}, 0},
		{Addr{LEARAM, 1}, n},
		{Addr{Bank(9), 0}, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Span(%v, %d) did not panic", r.a, r.n)
				}
			}()
			m.Span(r.a, r.n)
		}()
	}
}

// TestWroteMatchesPerWord pins Wrote against the per-word path: raising
// the mark once for a command's writes leaves the same high-water mark
// as making them one Write at a time, and a range below the mark or an
// empty one leaves the mark.
func TestWroteMatchesPerWord(t *testing.T) {
	perWord, bulk := New(), New()
	for w := 10; w < 20; w++ {
		perWord.Write(Addr{SRAM, w}, 1)
	}
	bulk.Wrote(Addr{SRAM, 10}, 10)
	bulk.Wrote(Addr{SRAM, 0}, 5)
	bulk.Wrote(Addr{SRAM, 30}, 0)
	if perWord.HighWater(SRAM) != bulk.HighWater(SRAM) {
		t.Errorf("bulk hw %d, per-word hw %d", bulk.HighWater(SRAM), perWord.HighWater(SRAM))
	}
}

// TestSnapshotAllRestoreAll pins the device snapshot: RestoreAll
// rewinds contents and high-water marks to the snapshot —
// clearing words written above its prefix — and Validate rejects shapes
// no memory can have.
func TestSnapshotAllRestoreAll(t *testing.T) {
	m := New()
	m.Alloc(FRAM, 8)
	m.Write(Addr{FRAM, 1}, 10)
	snap := m.SnapshotAll()
	if err := snap.Validate(); err != nil {
		t.Fatalf("real snapshot rejected: %v", err)
	}
	// The prefix ends at the high-water mark, not at the allocation.
	if n := snap.Len(FRAM); n != 2 {
		t.Errorf("FRAM prefix holds %d words, want the high-water mark 2", n)
	}
	m.Write(Addr{FRAM, 1}, 20)
	m.Write(Addr{FRAM, 30}, 30)
	m.Write(Addr{LEARAM, 5}, 40)
	m.RestoreAll(snap)
	if got := m.Read(Addr{FRAM, 1}); got != 10 {
		t.Errorf("restored value = %d, want 10", got)
	}
	if got := m.Read(Addr{FRAM, 30}); got != 0 {
		t.Errorf("word above the restored prefix = %d, want 0", got)
	}
	if hw := m.HighWater(FRAM); hw != 2 {
		t.Errorf("restored FRAM high-water mark %d, want 2", hw)
	}
	if got, want := snapWords(m.SnapshotAll()), snapWords(snap); !reflect.DeepEqual(got, want) {
		t.Errorf("restored memory snapshots as %+v, want %+v", got, want)
	}
	for i, bad := range []func(s *DeviceSnapshot){
		func(s *DeviceSnapshot) { s.SetWords([NumBanks][]uint16{SRAM: make([]uint16, SRAMWords+1)}) },
		func(s *DeviceSnapshot) { s.Alloc[FRAM] = -1 },
		func(s *DeviceSnapshot) { s.Alloc[LEARAM] = LEARAMWords + 1 },
	} {
		s := m.SnapshotAll()
		bad(s)
		if err := s.Validate(); err == nil {
			t.Errorf("malformed snapshot %d accepted", i)
		}
	}
}

// snapWords flattens a snapshot into what it holds: each bank's prefix
// and the allocator watermarks.
func snapWords(s *DeviceSnapshot) any {
	var words [NumBanks][]uint16
	for b := range words {
		words[b] = s.Words(Bank(b))
	}
	return struct {
		Words [NumBanks][]uint16
		Alloc [NumBanks]int
	}{words, s.Alloc}
}

func TestEqualRange(t *testing.T) {
	m := New()
	m.WriteBlock(Addr{FRAM, 10}, []uint16{7, 8, 9}, 3)
	if !m.EqualRange(Addr{FRAM, 10}, []uint16{7, 8, 9}) {
		t.Error("EqualRange false negative")
	}
	if m.EqualRange(Addr{FRAM, 10}, []uint16{7, 8, 10}) {
		t.Error("EqualRange false positive")
	}
	if m.EqualRange(Addr{FRAM, m.Size(FRAM) - 1}, []uint16{0, 0}) {
		t.Error("EqualRange out of range should be false")
	}
}

func TestHighWater(t *testing.T) {
	m := New()
	if m.HighWater(LEARAM) != 0 {
		t.Error("fresh memory has no high water")
	}
	m.Write(Addr{LEARAM, 99}, 1)
	m.Write(Addr{LEARAM, 10}, 1)
	if got := m.HighWater(LEARAM); got != 100 {
		t.Errorf("high water = %d, want 100", got)
	}
	m.WriteBlock(Addr{SRAM, 20}, []uint16{1, 2, 3}, 3)
	if got := m.HighWater(SRAM); got != 23 {
		t.Errorf("SRAM high water = %d, want 23", got)
	}
}

// TestPersistenceProperty checks the core intermittence invariant with
// random workloads: after a power failure, a word survives exactly when it
// lives in FRAM.
func TestPersistenceProperty(t *testing.T) {
	err := quick.Check(func(seed int64, nWrites uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		type write struct {
			a Addr
			v uint16
		}
		last := map[Addr]uint16{}
		for i := 0; i < int(nWrites); i++ {
			b := Bank(rng.Intn(3))
			a := Addr{b, rng.Intn(m.Size(b))}
			v := uint16(rng.Uint32())
			m.Write(a, v)
			last[a] = v
		}
		m.PowerFailure()
		for a, v := range last {
			got := m.Read(a)
			if a.Bank == FRAM && got != v {
				return false
			}
			if a.Bank != FRAM && got != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr{FRAM, 10}
	if got := a.Add(5); got.Word != 15 || got.Bank != FRAM {
		t.Errorf("Add = %v", got)
	}
	if got := a.String(); got != "FRAM+0x000a" {
		t.Errorf("String = %q", got)
	}
}

// equalWords is Equal's reference: a length check and a word loop.
func equalWords(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// words reads raw as little-endian words, dropping an odd trailing byte.
func words(raw []byte) []uint16 {
	w := make([]uint16, len(raw)/2)
	for i := range w {
		w[i] = uint16(raw[2*i]) | uint16(raw[2*i+1])<<8
	}
	return w
}

// FuzzEqualWords checks Equal against a word loop on two fuzzed word
// vectors, on the first against itself with its last word's high byte
// flipped (a difference in the very last byte), and on each against a
// copy of itself cut one word short.
func FuzzEqualWords(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2}, []byte{})
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 2, 3, 4})
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 2, 3, 5})
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 2})
	f.Add([]byte{0, 0, 0, 0, 0}, []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		a, b := words(ra), words(rb)
		if got, want := Equal(a, b), equalWords(a, b); got != want {
			t.Fatalf("Equal(%v, %v) = %v, word loop %v", a, b, got, want)
		}
		if !Equal(a, slices.Clone(a)) {
			t.Fatalf("Equal(%v, copy) = false", a)
		}
		if n := len(a); n > 0 {
			flipped := slices.Clone(a)
			flipped[n-1] ^= 0x8000
			if Equal(a, flipped) || Equal(flipped, a) {
				t.Fatalf("Equal misses a last-byte difference in %v", a)
			}
			if Equal(a, a[:n-1]) || Equal(a[:n-1], a) {
				t.Fatalf("Equal ignores the length of %v", a)
			}
		}
		if !Equal(nil, a[:0]) {
			t.Fatal("Equal(nil, empty) = false")
		}
	})
}

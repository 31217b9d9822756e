package mem

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// newFlat returns a memory whose FRAM backing store is whole from the
// start, so it never takes a growth path: the reference the growing
// store is checked against.
func newFlat() *Memory {
	m := New()
	m.banks[FRAM] = make([]uint16, FRAMWords)
	return m
}

// TestNewFRAMProportionalToFootprint pins that a fresh memory holds no
// FRAM store and that a small allocation and its writes keep the store
// proportional to the footprint, not the 256 KiB bank.
func TestNewFRAMProportionalToFootprint(t *testing.T) {
	m := New()
	if n := len(m.banks[FRAM]); n != 0 {
		t.Fatalf("fresh FRAM store holds %d words, want 0", n)
	}
	a := m.Alloc(FRAM, 300)
	m.Write(a.Add(299), 1)
	m.WriteBlock(a, []uint16{1, 2, 3}, 3)
	if n, limit := len(m.banks[FRAM]), max(2*m.Allocated(FRAM), minGrowWords); n < m.Allocated(FRAM) || n > limit {
		t.Errorf("FRAM store holds %d words after a %d-word allocation, want [%d, %d]",
			n, m.Allocated(FRAM), m.Allocated(FRAM), limit)
	}
	if m.Size(FRAM) != FRAMWords {
		t.Errorf("Size(FRAM) = %d, want the bank's capacity %d", m.Size(FRAM), FRAMWords)
	}
}

// growOps drives a growing memory and a flat one through the same
// operations, decoded from fuzz bytes, and checks after each that both
// hold the same words, watermarks and high-water marks and that any
// panic carries the same message.
type growOps struct {
	t          *testing.T
	grown      *Memory
	flat       *Memory
	data       []byte
	snapGrown  *DeviceSnapshot
	snapFlat   *DeviceSnapshot
	savedAlloc [numBanks]int
}

// next consumes one byte of the input (zero once it runs out).
func (g *growOps) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

// word consumes a little-endian 16-bit value.
func (g *growOps) word() int { return int(g.next()) | int(g.next())<<8 }

// addr decodes an address aimed at the interesting places: small words,
// the edges of the current FRAM store (so copies and writes land just
// past it), the last words of the bank and past its end, and now and
// then a volatile or an invalid bank.
func (g *growOps) addr() Addr {
	sel := g.next()
	bank := FRAM
	switch sel >> 5 {
	case 5:
		bank = SRAM
	case 6:
		bank = LEARAM
	case 7:
		if sel&1 == 1 {
			return Addr{Bank(3 + sel&3), int(g.next())}
		}
	}
	off := int(g.next()%16) - 4
	switch sel % 6 {
	case 0, 1:
		return Addr{bank, g.word() % 3000}
	case 2:
		return Addr{bank, len(g.grown.banks[bank]) + off}
	case 3:
		return Addr{bank, capacity[bank] - 1 - int(g.next()%8)}
	case 4:
		return Addr{bank, capacity[bank] + off}
	default:
		return Addr{bank, 2*len(g.grown.banks[bank]) + off}
	}
}

// apply runs f on both memories and requires the same result, or a
// panic with the same message.
func (g *growOps) apply(desc string, f func(m *Memory) any) {
	run := func(m *Memory) (r any, p string) {
		defer func() {
			if v := recover(); v != nil {
				p = fmt.Sprint(v)
			}
		}()
		return f(m), ""
	}
	rg, pg := run(g.grown)
	rf, pf := run(g.flat)
	if pg != pf {
		g.t.Fatalf("%s: panics %q, flat %q", desc, pg, pf)
	}
	if !reflect.DeepEqual(rg, rf) {
		g.t.Fatalf("%s: result %v, flat %v", desc, rg, rf)
	}
}

// step decodes one operation, applies it to both memories and compares
// them.
func (g *growOps) step() {
	var desc string
	switch op := g.next() % 13; op {
	case 0:
		b, n := Bank(g.next()%4), g.word()%2100
		if g.next()%8 == 0 {
			n = FRAMWords - g.word()
		}
		desc = fmt.Sprintf("Alloc(%v, %d)", b, n)
		g.apply(desc, func(m *Memory) any { return m.Alloc(b, n) })
	case 1:
		a := g.addr()
		desc = fmt.Sprintf("Read(%v)", a)
		g.apply(desc, func(m *Memory) any { return m.Read(a) })
	case 2:
		a, v := g.addr(), uint16(g.word())
		desc = fmt.Sprintf("Write(%v, %d)", a, v)
		g.apply(desc, func(m *Memory) any { m.Write(a, v); return nil })
	case 3:
		a, n := g.addr(), int(g.next()%40)
		src := make([]uint16, n)
		for i := range src {
			src[i] = uint16(g.next()) + 1
		}
		desc = fmt.Sprintf("WriteBlock(%v, %d)", a, n)
		g.apply(desc, func(m *Memory) any { m.WriteBlock(a, src, n); return nil })
	case 4:
		a, n, v := g.addr(), int(g.next()%40)-1, uint16(g.word())
		desc = fmt.Sprintf("Span write (%v, %d)", a, n)
		g.apply(desc, func(m *Memory) any {
			s := m.Span(a, n)
			for i := range s {
				s[i] = v + uint16(i)
			}
			if n > 0 {
				m.Wrote(a.Bank, a.Word+n)
			}
			return nil
		})
	case 5:
		src, dst, n := g.addr(), g.addr(), 1+int(g.next()%48)
		if g.next()%2 == 0 {
			// A same-bank FRAM copy whose source ends at the store's end
			// and whose destination runs past it, overlapping the source
			// (a value-propagating copy) or not.
			n = 1 + int(g.next()%8)
			src = Addr{FRAM, max(len(g.grown.banks[FRAM])-n, 0)}
			dst = Addr{FRAM, src.Word + 1 + int(g.next()%16)}
		}
		mode, cut := g.next()%3, int(g.next())%(n+1)
		desc = fmt.Sprintf("CopyWindowFor(%v, %v, %d) mode %d cut %d", src, dst, n, mode, cut)
		g.apply(desc, func(m *Memory) any {
			w := m.CopyWindowFor(src, dst, n)
			switch {
			case mode == 0 && w.Bulkable():
				w.MoveN(0, cut)
				w.MoveN(cut, n-cut)
			case mode == 1:
				// A power failure cuts the copy after cut words.
				for i := 0; i < cut; i++ {
					w.Move(i)
				}
			default:
				for i := 0; i < n; i++ {
					w.Move(i)
				}
			}
			return w.Bulkable()
		})
	case 6:
		desc = "SnapshotAll"
		g.snapGrown, g.snapFlat = g.grown.SnapshotAll(), g.flat.SnapshotAll()
		if !reflect.DeepEqual(g.snapGrown, g.snapFlat) {
			g.t.Fatalf("snapshots differ: %+v, flat %+v", g.snapGrown, g.snapFlat)
		}
		g.savedAlloc = g.grown.alloc
	case 7:
		if g.snapGrown == nil {
			return
		}
		desc = "RestoreAll"
		g.apply(desc, func(m *Memory) any {
			if m == g.grown {
				m.RestoreAll(g.snapGrown)
			} else {
				m.RestoreAll(g.snapFlat)
			}
			return nil
		})
	case 8:
		// A fresh device with the snapshot's layout: its FRAM store is
		// shorter than the snapshot, which a restore must grow for.
		desc = "fresh memories with the saved layout"
		g.grown, g.flat = New(), newFlat()
		for b := Bank(0); b < numBanks; b++ {
			g.grown.Alloc(b, g.savedAlloc[b])
			g.flat.Alloc(b, g.savedAlloc[b])
		}
	case 9:
		desc = "PowerFailure"
		g.apply(desc, func(m *Memory) any { m.PowerFailure(); return nil })
	case 10:
		desc = "Reset"
		g.apply(desc, func(m *Memory) any { m.Reset(); return nil })
	case 11:
		a, n := g.addr(), int(g.next()%24)
		want := make([]uint16, n)
		if g.next()%2 == 0 {
			for i := range want {
				want[i] = uint16(g.next() % 3)
			}
		}
		desc = fmt.Sprintf("EqualRange(%v, %v)", a, want)
		g.apply(desc, func(m *Memory) any { return m.EqualRange(a, want) })
	default:
		b := Bank(g.next() % 4)
		desc = fmt.Sprintf("Size/Allocated/HighWater(%v)", b)
		g.apply(desc, func(m *Memory) any { return [3]int{m.Size(b), m.Allocated(b), m.HighWater(b)} })
	}
	g.compare(desc)
}

// compare checks the two memories' whole state: every bank's words (the
// flat store's words past the growing store must be zero), watermarks
// and high-water marks, and the store invariants. It also checks the
// invariant snapshots, restores, Reset and PowerFailure rest on: every
// word at or above a bank's high-water mark reads zero.
func (g *growOps) compare(desc string) {
	t, gm, fm := g.t, g.grown, g.flat
	if gm.alloc != fm.alloc || gm.highWater != fm.highWater {
		t.Fatalf("after %s: alloc %v hw %v, flat alloc %v hw %v",
			desc, gm.alloc, gm.highWater, fm.alloc, fm.highWater)
	}
	for b := Bank(0); b < numBanks; b++ {
		store := gm.banks[b]
		if need := max(gm.alloc[b], gm.highWater[b]); len(store) > capacity[b] || len(store) < need {
			t.Fatalf("after %s: %v store %d words, alloc and high-water %d, capacity %d",
				desc, b, len(store), need, capacity[b])
		}
		// The store covers the mark, and the flat store's words past the
		// growing one are checked to be zero below.
		hw := gm.highWater[b]
		if i := firstNonZero(store[hw:]); i >= 0 {
			t.Fatalf("after %s: %v word %d = %d at or above the high-water mark %d",
				desc, b, hw+i, store[hw+i], hw)
		}
		if !Equal(store, fm.banks[b][:len(store)]) {
			i := 0
			for store[i] == fm.banks[b][i] {
				i++
			}
			t.Fatalf("after %s: %v word %d = %d, flat %d", desc, b, i, store[i], fm.banks[b][i])
		}
		if i := firstNonZero(fm.banks[b][len(store):]); i >= 0 {
			t.Fatalf("after %s: flat %v word %d = %d past the growing store (%d words)",
				desc, b, len(store)+i, fm.banks[b][len(store)+i], len(store))
		}
	}
}

// zeros is an all-zero slice as long as the largest bank.
var zeros = make([]uint16, slices.Max(capacity[:]))

// firstNonZero returns the index of w's first non-zero word, or -1. It
// compares w with zeros in one Equal and scans word by word only to name
// the offending word: compare runs after every fuzz step, over ranges up
// to a whole bank.
func firstNonZero(w []uint16) int {
	if Equal(w, zeros[:len(w)]) {
		return -1
	}
	return slices.IndexFunc(w, func(x uint16) bool { return x != 0 })
}

// FuzzGrowMatchesFlat checks the growing FRAM store against a memory
// whose store is whole from the start, over random sequences of
// allocations, word and block accesses, Span writes, copy windows (same-
// bank FRAM copies into words past the store among them), snapshots and
// restores (into fresh memories whose store is shorter than the
// snapshot), power failures and resets, at addresses near the store's
// end, the bank's last word and past it: words, watermarks, high-water
// marks, snapshots, results and panic messages must all agree, and every
// word at or above a bank's high-water mark must read zero.
func FuzzGrowMatchesFlat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 100, 0, 2, 2, 0, 1, 9, 0, 6, 10, 8, 7, 1, 2, 0})
	f.Add([]byte{5, 0, 2, 0, 2, 4, 1, 0, 0, 30, 2, 6, 10, 2, 4, 7, 9, 3, 9, 12, 1, 3, 0})
	f.Add([]byte{2, 3, 3, 1, 2, 99, 2, 4, 9, 0, 2, 2, 0, 1, 3, 1, 4, 2, 1, 1, 1, 200})
	// Alloc(FRAM, 100); WriteBlock of four words ending at the store's
	// end; a four-word copy from there to one word later, word by word.
	f.Add([]byte{0, 0, 100, 0, 1, 3, 2, 0, 4, 10, 20, 30, 40, 5, 2, 0, 2, 0, 3, 0, 3, 0, 2, 0})
	// Alloc(FRAM, 100); WriteBlock of four words at word 10; a bulk
	// (MoveN) copy of them to word 50, cut after two: the copied words
	// must sit below the high-water mark.
	f.Add([]byte{0, 0, 100, 0, 1, 3, 0, 0, 10, 0, 4, 5, 6, 7, 8, 5, 0, 0, 10, 0, 0, 0, 50, 0, 3, 1, 0, 2})
	f.Add(binary.LittleEndian.AppendUint64([]byte{0, 0, 0, 4, 6, 8, 7}, 0x0b050402070c0a09))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &growOps{t: t, grown: New(), flat: newFlat(), data: data}
		for steps := 0; len(g.data) > 0 && steps < 64; steps++ {
			g.step()
		}
	})
}

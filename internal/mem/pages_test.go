package mem

import (
	"fmt"
	"slices"
	"testing"
)

// flatMem is the reference model of page snapshots and restores: every
// bank whole, a high-water mark per bank, and snapshots that are plain
// copies of each bank's prefix.
type flatMem struct {
	banks [numBanks][]uint16
	hw    [numBanks]int
}

func newFlatMem() *flatMem {
	f := &flatMem{}
	for b := range f.banks {
		f.banks[b] = make([]uint16, capacity[b])
	}
	return f
}

func (f *flatMem) wrote(a Addr, n int) {
	if n > 0 {
		f.hw[a.Bank] = max(f.hw[a.Bank], a.Word+n)
	}
}

func (f *flatMem) snapshot() [numBanks][]uint16 {
	var s [numBanks][]uint16
	for b := range s {
		s[b] = slices.Clone(f.banks[b][:f.hw[b]])
	}
	return s
}

// restore is RestoreAll's contract: FRAM's prefix and every mark come
// back; volatile banks come back cleared, as a power failure leaves them.
func (f *flatMem) restore(s [numBanks][]uint16) {
	for b := range f.banks {
		clear(f.banks[b])
		if Bank(b) == FRAM {
			copy(f.banks[b], s[b])
		}
		f.hw[b] = len(s[b])
	}
}

// pagedSnap is a snapshot under test with the flat copy it must equal
// for as long as it lives.
type pagedSnap struct {
	got  *DeviceSnapshot
	want [numBanks][]uint16
}

// pageOps drives two memories — a recorder that snapshots and a replayer
// that restores, as the checker pairs them, though either does both —
// and their flat models through the same operations decoded from fuzz
// bytes, keeping up to maxSnaps live snapshots.
type pageOps struct {
	t     *testing.T
	mems  [2]*Memory
	flats [2]*flatMem
	snaps []pagedSnap
	data  []byte
}

const maxSnaps = 6

func (g *pageOps) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *pageOps) word() int { return int(g.next()) | int(g.next())<<8 }

// rng decodes an in-range address in bank b and a length of 1 to 200
// words, aimed at page edges: FRAM words reach past the backing store a
// fresh memory starts with, so writes and copies there grow it.
func (g *pageOps) rng(b Bank) (Addr, int) {
	lim := min(capacity[b], 4*minGrowWords)
	w := g.word() % lim
	if g.next()%2 == 0 {
		w = w &^ (PageWords - 1) // a page's first word
	}
	n := 1 + int(g.next())%200
	return Addr{b, w}, min(n, capacity[b]-w)
}

// takeSnapshot snapshots memory i, into a recycled snapshot when the
// list is full (possibly one of the other memory's, from another store).
func (g *pageOps) takeSnapshot(i int) {
	var into *DeviceSnapshot
	if len(g.snaps) == maxSnaps || g.next()%4 == 0 && len(g.snaps) > 0 {
		k := int(g.next()) % len(g.snaps)
		into = g.snaps[k].got
		g.snaps = slices.Delete(g.snaps, k, k+1)
	}
	g.snaps = append(g.snaps, pagedSnap{g.mems[i].SnapshotAllInto(into), g.flats[i].snapshot()})
}

// step decodes one operation, applies it to one memory and its model,
// and compares everything.
func (g *pageOps) step() {
	i := int(g.next() % 2)
	m, f := g.mems[i], g.flats[i]
	var desc string
	switch op := g.next() % 10; op {
	case 0:
		a, v := Addr{Bank(g.next() % 3), g.word() % (4 * minGrowWords)}, uint16(g.word())
		a.Word %= capacity[a.Bank]
		desc = fmt.Sprintf("Write(%v, %d)", a, v)
		m.Write(a, v)
		f.banks[a.Bank][a.Word] = v
		f.wrote(a, 1)
	case 1:
		a, n := g.rng(Bank(g.next() % 3))
		src := make([]uint16, n)
		for j := range src {
			src[j] = uint16(g.next()) + 1
		}
		desc = fmt.Sprintf("WriteBlock(%v, %d)", a, n)
		m.WriteBlock(a, src, n)
		copy(f.banks[a.Bank][a.Word:], src)
		f.wrote(a, n)
	case 2:
		// A LEA kernel's write: Span, store some of the words, Wrote.
		a, n := g.rng(LEARAM)
		v, stride := uint16(g.word()), 1+int(g.next()%4)
		desc = fmt.Sprintf("Span write (%v, %d) every %d", a, n, stride)
		s := m.Span(a, n)
		for j := 0; j < n; j += stride {
			s[j] = v + uint16(j)
			f.banks[LEARAM][a.Word+j] = v + uint16(j)
		}
		m.Wrote(a, n)
		f.wrote(a, n)
	case 3:
		desc = g.copyWindow(i)
	case 4:
		desc = "PowerFailure"
		m.PowerFailure()
		for b := SRAM; b < numBanks; b++ {
			clear(f.banks[b][:f.hw[b]])
		}
	case 5:
		// An attach image: a prefix of FRAM no longer than the mark, so
		// the backing store holds it, with words of its own.
		image := make([]uint16, int(g.next())*f.hw[FRAM]/255)
		for j := range image {
			image[j] = uint16(g.word())
		}
		desc = fmt.Sprintf("Reset(%d-word image)", len(image))
		m.Reset(image)
		for b := range f.banks {
			clear(f.banks[b])
			f.hw[b] = 0
		}
		copy(f.banks[FRAM], image)
		f.hw[FRAM] = len(image)
	case 6, 7:
		desc = fmt.Sprintf("snapshot of memory %d", i)
		g.takeSnapshot(i)
	case 8:
		if len(g.snaps) == 0 {
			return
		}
		k := int(g.next()) % len(g.snaps)
		desc = fmt.Sprintf("restore of snapshot %d into memory %d", k, i)
		m.RestoreAll(g.snaps[k].got)
		f.restore(g.snaps[k].want)
	default:
		if len(g.snaps) == 0 {
			return
		}
		k := int(g.next()) % len(g.snaps)
		desc = fmt.Sprintf("release of snapshot %d", k)
		g.snaps[k].got.Release()
		g.snaps = slices.Delete(g.snaps, k, k+1)
	}
	g.compare(desc)
}

// copyWindow runs one DMA-style copy on memory i, possibly overlapping
// and value-propagating, in chunks of MoveN (where bulkable) or Move,
// with snapshots of memory i taken between chunks and a power failure
// possibly cutting the copy short.
func (g *pageOps) copyWindow(i int) string {
	m, f := g.mems[i], g.flats[i]
	src, n := g.rng(Bank(g.next() % 3))
	dst := Addr{src.Bank, src.Word + int(g.next()%80) - 40}
	if g.next()%2 == 0 {
		dst, _ = g.rng(Bank(g.next() % 3))
	}
	dst.Word = min(max(dst.Word, 0), capacity[dst.Bank]-1)
	n = min(n, capacity[dst.Bank]-dst.Word)
	w := m.CopyWindowFor(src, dst, n)
	fs := f.banks[src.Bank][src.Word : src.Word+n]
	fd := f.banks[dst.Bank][dst.Word : dst.Word+n]
	end := n
	if g.next()%3 == 0 {
		end = int(g.next()) % (n + 1)
	}
	for j := 0; j < end; {
		c := min(1+int(g.next()%64), end-j)
		if w.Bulkable() && g.next()%2 == 0 {
			w.MoveN(j, c)
			copy(fd[j:j+c], fs[j:j+c])
		} else {
			for k := j; k < j+c; k++ {
				w.Move(k)
				fd[k] = fs[k]
			}
		}
		f.wrote(dst.Add(j), c)
		j += c
		if g.next()%2 == 0 {
			g.takeSnapshot(i)
		}
	}
	return fmt.Sprintf("copy window (%v, %v, %d) through word %d", src, dst, n, end)
}

// compare checks both memories against their models — every word of
// every bank and every high-water mark — and every live snapshot
// against the copy it was taken as.
func (g *pageOps) compare(desc string) {
	for i, m := range g.mems {
		f := g.flats[i]
		if m.highWater != f.hw {
			g.t.Fatalf("after %s: memory %d marks %v, flat %v", desc, i, m.highWater, f.hw)
		}
		for b := range m.banks {
			store := m.banks[b]
			if !Equal(store, f.banks[b][:len(store)]) || firstNonZero(f.banks[b][len(store):]) >= 0 {
				g.t.Fatalf("after %s: memory %d %v words differ from the flat model", desc, i, Bank(b))
			}
		}
	}
	for k, s := range g.snaps {
		for b := range s.want {
			if got := s.got.Words(Bank(b)); !slices.Equal(got, s.want[b]) {
				g.t.Fatalf("after %s: snapshot %d %v holds %v, taken as %v", desc, k, Bank(b), got, s.want[b])
			}
		}
	}
}

// FuzzPagesMatchFlat checks page snapshots and restores against a flat
// reference model: over random sequences of Write, WriteBlock, LEA Span
// writes, copy windows (overlapping ones included, cut short by a power
// failure or not) with snapshots taken mid-window, PowerFailure, Reset,
// snapshots into new and recycled snapshots, restores of any live
// snapshot into either of two memories, and releases, every word and
// high-water mark of both memories must match the model, FRAM growing
// past its store as writes reach further, and every live snapshot must
// still hold the words it was taken with.
func FuzzPagesMatchFlat(f *testing.F) {
	f.Add([]byte{})
	// Write to FRAM, snapshot, write again, snapshot, restore the first
	// into the other memory, then the second.
	f.Add([]byte{0, 0, 0, 5, 0, 7, 0, 0, 6, 0, 0, 0, 0, 130, 0, 9, 0, 0, 6, 0, 1, 8, 0, 1, 8, 1})
	// A copy window with snapshots between its chunks, then restores.
	f.Add([]byte{0, 1, 0, 0, 1, 0, 80, 1, 2, 3, 0, 3, 0, 10, 0, 1, 100, 20, 1, 1, 5, 1, 1, 0, 7, 1,
		0, 3, 1, 8, 0, 1, 8, 1, 0, 6, 1, 8, 2})
	// LEA Span writes, power failures and snapshot recycling.
	f.Add([]byte{1, 2, 2, 0, 2, 0, 90, 1, 1, 7, 1, 6, 1, 4, 1, 6, 0, 1, 2, 2, 64, 0, 0, 9, 2, 1, 6,
		1, 5, 1, 6, 1, 1, 8, 0, 0, 9, 1, 1, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &pageOps{t: t, data: data}
		for i := range g.mems {
			g.mems[i], g.flats[i] = New(), newFlatMem()
			// The same layout in both, so either restores the other's
			// snapshots.
			g.mems[i].Alloc(FRAM, 100)
		}
		for steps := 0; len(g.data) > 0 && steps < 64; steps++ {
			g.step()
		}
	})
}

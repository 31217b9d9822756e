// Device snapshots: tables of immutable pages that consecutive snapshots
// of one memory share, and the page marks that let a snapshot copy, and a
// restore rewrite, only what changed.

package mem

import "fmt"

// NumBanks is the number of modeled memory banks, exported for
// serialization layers that flatten per-bank state.
const NumBanks = int(numBanks)

// PageWords is the size of a snapshot page in words. The checker's
// consecutive checkpoints differ in a word or two, so a page is small
// enough that a checkpoint copies little beside them, and large enough
// that a bank's page table stays short (157 entries for the largest
// shipped footprint).
const PageWords = 64

const pageShift = 6 // log2(PageWords)

// pageBits marks pages of one bank, one bit per page; FRAM, the largest
// bank, has FRAMWords/PageWords pages.
type pageBits [FRAMWords / PageWords / 64]uint64

// set marks the page holding word w. The mask keeps the index in range
// without a bounds check: no bank has more words than FRAM.
func (p *pageBits) set(w int) {
	pg := uint(w) >> pageShift
	p[pg>>6&(uint(len(p))-1)] |= 1 << (pg & 63)
}

// setRange marks every page holding a word of [lo, hi), hi > lo.
func (p *pageBits) setRange(lo, hi int) {
	for pg := lo >> pageShift; pg <= (hi-1)>>pageShift; pg++ {
		p[pg>>6] |= 1 << (pg & 63)
	}
}

// has reports whether page pg is marked.
func (p *pageBits) has(pg int) bool { return p[pg>>6]>>(pg&63)&1 != 0 }

// pageRef names one page of a page store: its slot and the slot's
// generation. A slot's generation rises each time the slot is freed, so
// a pageRef names one immutable content for good, even once its slot
// holds another page. It holds no pointer, so page tables cost the
// garbage collector nothing to scan.
type pageRef struct{ slot, gen uint32 }

// pageStore holds the pages of a memory's snapshots, reference-counted
// by the snapshots that hold them. A freed slot goes on a free list for
// the next page. Pages live in fixed-size slabs, so a growing store
// never copies its pages, and a page table names each page by slot. A
// store is used by one goroutine at a time: the one taking or releasing
// the snapshots of its memory; restores only read pages of snapshots
// that are alive.
type pageStore struct {
	slabs [][]uint16 // slab i holds slots [i*slabPages, (i+1)*slabPages)
	refs  []uint32   // snapshots holding slot i
	gens  []uint32   // slot i's generation
	free  []uint32   // freed slots
}

// slabPages is the number of pages in a slab: 8 KiB of words.
const slabPages = 64

// newPageStore returns a store with room for n pages: whole slabs, the
// last one cut to what the n pages need (a decoded snapshot holds
// exactly its own pages).
func newPageStore(n int) *pageStore {
	ps := &pageStore{}
	for ; n > 0; n -= slabPages {
		ps.slabs = append(ps.slabs, make([]uint16, min(n, slabPages)*PageWords))
	}
	return ps
}

// page returns the words of the page r names.
func (ps *pageStore) page(r pageRef) []uint16 {
	i := int(r.slot%slabPages) << pageShift
	return ps.slabs[r.slot/slabPages][i : i+PageWords : i+PageWords]
}

// add stores a new page holding words (at most PageWords of them; the
// rest of the page is zero) with one reference.
func (ps *pageStore) add(words []uint16) pageRef {
	var slot uint32
	if n := len(ps.free); n > 0 {
		slot = ps.free[n-1]
		ps.free = ps.free[:n-1]
	} else {
		slot = uint32(len(ps.refs))
		ps.refs = append(ps.refs, 0)
		ps.gens = append(ps.gens, 0)
		if si := int(slot / slabPages); si == len(ps.slabs) {
			ps.slabs = append(ps.slabs, make([]uint16, slabPages*PageWords))
		} else if s := ps.slabs[si]; len(s) < slabPages*PageWords && int(slot%slabPages) >= len(s)>>pageShift {
			// A slab newPageStore cut short fills up: make it whole.
			ps.slabs[si] = append(s, make([]uint16, slabPages*PageWords-len(s))...)
		}
	}
	r := pageRef{slot, ps.gens[slot]}
	p := ps.page(r)
	clear(p[copy(p, words):])
	ps.refs[slot] = 1
	return r
}

// live reports whether the page r names is still held by a snapshot.
func (ps *pageStore) live(r pageRef) bool { return ps.gens[r.slot] == r.gen }

// unref drops one reference to r's page, freeing its slot with the last.
func (ps *pageStore) unref(r pageRef) {
	if ps.refs[r.slot]--; ps.refs[r.slot] == 0 {
		ps.gens[r.slot]++
		ps.free = append(ps.free, r.slot)
	}
}

// pagesFor returns the number of pages covering an n-word prefix.
func pagesFor(n int) int { return (n + PageWords - 1) >> pageShift }

// DeviceSnapshot captures the full mid-run state of a Memory: the words
// below each bank's high-water mark, as a table of pages per bank, and
// the allocator watermarks. The prefix's length is the mark, so a
// snapshot is proportional to the words a run wrote, not to what it
// allocated or to the 256 KB FRAM bank; and a snapshot holds only the
// pages its memory wrote since its previous snapshot, sharing the rest
// with it. The allocator watermarks are recorded but never restored — a
// snapshot may only be restored into a memory with the same allocation
// layout, which RestoreAll verifies.
//
// A snapshot's pages never change, so it restores any number of times,
// into any memory, from any goroutine. Taking a snapshot into it again
// (SnapshotAllInto), SetWords and Release change it, on the goroutine
// that owns the memory whose store holds its pages. A DeviceSnapshot
// must not be copied: a copy would share the original's page references.
type DeviceSnapshot struct {
	Alloc [NumBanks]int

	n     [NumBanks]int       // prefix length per bank
	pages [NumBanks][]pageRef // pagesFor(n[b]) pages per bank, in store
	store *pageStore
}

// Len returns the length of bank b's prefix: the bank's high-water mark
// when the snapshot was taken.
func (s *DeviceSnapshot) Len(b Bank) int { return s.n[b] }

// Word returns word i of bank b; a word past the prefix is zero.
func (s *DeviceSnapshot) Word(b Bank, i int) uint16 {
	if uint(i) >= uint(s.n[b]) {
		return 0
	}
	return s.store.page(s.pages[b][i>>pageShift])[i&(PageWords-1)]
}

// Page returns the words of bank b's page p, cut at the prefix's end
// (p < pagesFor(Len(b))). The slice is the snapshot's own: read only.
func (s *DeviceSnapshot) Page(b Bank, p int) []uint16 {
	return s.store.page(s.pages[b][p])[:min(PageWords, s.n[b]-p<<pageShift)]
}

// Words returns a copy of bank b's prefix.
func (s *DeviceSnapshot) Words(b Bank) []uint16 {
	out := make([]uint16, s.n[b])
	for p, r := range s.pages[b] {
		copy(out[p<<pageShift:], s.store.page(r))
	}
	return out
}

// SetWords replaces every bank's prefix with a copy of words[b] — how
// a decoder builds a snapshot. A snapshot that holds no pages yet gets a
// store of its own, sized to the pages words fill.
func (s *DeviceSnapshot) SetWords(words [NumBanks][]uint16) {
	if s.store == nil {
		n := 0
		for _, w := range words {
			n += pagesFor(len(w))
		}
		s.store = newPageStore(n)
	}
	for b, w := range words {
		for _, r := range s.pages[b] {
			s.store.unref(r)
		}
		tbl := s.pages[b][:0]
		for lo := 0; lo < len(w); lo += PageWords {
			tbl = append(tbl, s.store.add(w[lo:min(lo+PageWords, len(w))]))
		}
		s.pages[b], s.n[b] = tbl, len(w)
	}
}

// Release drops the snapshot's pages, leaving it empty. A caller that
// recycles snapshots releases each once it is done with it, so the
// pages go back to their store.
func (s *DeviceSnapshot) Release() {
	for b := range s.pages {
		for _, r := range s.pages[b] {
			s.store.unref(r)
		}
		s.pages[b] = s.pages[b][:0]
	}
	s.n = [NumBanks]int{}
	s.store = nil
}

// Validate rejects a snapshot that cannot have come from a real memory:
// a prefix longer than its bank or an allocator watermark out of range.
// A decoder runs it on untrusted state, so RestoreAll's own panics are
// left for harness bugs.
func (s *DeviceSnapshot) Validate() error {
	for b := Bank(0); b < numBanks; b++ {
		cap := capacity[b]
		if s.n[b] > cap {
			return fmt.Errorf("mem: %s snapshot prefix %d words exceeds bank size %d",
				b, s.n[b], cap)
		}
		if s.Alloc[b] < 0 || s.Alloc[b] > cap {
			return fmt.Errorf("mem: %s snapshot watermark %d out of range [0,%d]",
				b, s.Alloc[b], cap)
		}
	}
	return nil
}

// SnapshotAll captures the words below every bank's high-water mark.
func (m *Memory) SnapshotAll() *DeviceSnapshot { return m.SnapshotAllInto(nil) }

// SnapshotAllInto is SnapshotAll reusing s's page tables when s is
// non-nil — the allocation-free path for callers that recycle snapshots
// (the checker takes one per candidate failure point). s's previous
// pages are released. A page the memory has not written since its last
// snapshot or restore is shared with that snapshot when this memory's
// store holds it; every other page is copied into the store.
func (m *Memory) SnapshotAllInto(s *DeviceSnapshot) *DeviceSnapshot {
	if s == nil {
		s = &DeviceSnapshot{}
	}
	if m.store == nil {
		m.store = newPageStore(0)
	}
	ps := m.store
	if s.store != ps {
		s.Release()
	}
	share := m.track && m.baseStore == ps
	s.Alloc = m.alloc
	for b := Bank(0); b < numBanks; b++ {
		k := m.highWater[b]
		np := pagesFor(k)
		old, tbl := s.pages[b], s.pages[b]
		if cap(tbl) < np {
			tbl = make([]pageRef, np)
		}
		tbl = tbl[:np]
		base, dirty := m.base[b], &m.dirty[b]
		for p := range tbl {
			var r pageRef
			if share && p < len(base) && !dirty.has(p) && ps.live(base[p]) {
				r = base[p]
				ps.refs[r.slot]++
			} else {
				lo := p << pageShift
				r = ps.add(m.banks[b][lo:min(lo+PageWords, k)])
			}
			// Take the new reference before dropping the old one: they
			// may name the same page. A page only ever sits at one
			// place of one bank, so no other place shares it.
			if p < len(old) {
				prev := old[p]
				tbl[p] = r
				ps.unref(prev)
			} else {
				tbl[p] = r
			}
		}
		for _, r := range old[min(np, len(old)):] {
			ps.unref(r)
		}
		s.pages[b], s.n[b] = tbl, k
		m.base[b] = append(m.base[b][:0], tbl...)
	}
	s.store = ps
	m.baseStore = ps
	m.dirty = [numBanks]pageBits{}
	m.track = true
	return s
}

// RestoreAll rewinds the memory to a snapshot taken earlier, of this
// memory or of another with the same allocation layout: FRAM's words
// and every bank's high-water mark become the snapshot's. Volatile banks
// come back as a power failure leaves them — cleared, with the
// snapshot's marks — since a restored run resumes with one. The target
// must have the same allocator watermarks as the snapshotted memory
// (i.e. the same blueprint attached in the same order); it panics
// otherwise, since restoring into a different layout is a harness bug.
//
// Only the FRAM pages the memory wrote since its last snapshot or
// restore, or whose page differs from the one that snapshot held, are
// rewritten; words above either prefix are provably zero, so only the
// words the memory wrote past the snapshot's prefix need clearing. A
// backing store shorter than the prefix grows to hold it first.
func (m *Memory) RestoreAll(s *DeviceSnapshot) {
	if m.alloc != s.Alloc {
		panic(fmt.Sprintf("mem: restore-all layout mismatch: alloc %v vs %v",
			m.alloc, s.Alloc))
	}
	k := s.n[FRAM]
	if k > len(m.banks[FRAM]) {
		m.grow(FRAM, k)
	}
	same := m.track && m.baseStore == s.store
	base, dirty, words := m.base[FRAM], &m.dirty[FRAM], m.banks[FRAM]
	for p, r := range s.pages[FRAM] {
		if same && p < len(base) && base[p] == r && !dirty.has(p) {
			continue
		}
		lo := p << pageShift
		copy(words[lo:min(lo+PageWords, k)], s.store.page(r))
	}
	if h := m.highWater[FRAM]; h > k {
		clear(words[k:h])
	}
	m.highWater[FRAM] = k
	m.base[FRAM] = append(m.base[FRAM][:0], s.pages[FRAM]...)
	for b := SRAM; b < numBanks; b++ {
		clear(m.banks[b][:m.highWater[b]])
		m.highWater[b] = s.n[b]
		m.base[b] = m.base[b][:0]
	}
	m.baseStore = s.store
	m.dirty = [numBanks]pageBits{}
	m.track = true
}

package lea

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"easeio/internal/mem"
)

func loadLEA(m *mem.Memory, off int, data []int16) {
	for i, v := range data {
		m.Write(mem.Addr{Bank: mem.LEARAM, Word: off + i}, uint16(v))
	}
}

func readLEA(m *mem.Memory, off, n int) []int16 {
	out := make([]int16, n)
	for i := range out {
		out[i] = int16(m.Read(mem.Addr{Bank: mem.LEARAM, Word: off + i}))
	}
	return out
}

func TestFirMatchesReference(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		taps := 2 + rng.Intn(15)
		n := taps + rng.Intn(60)
		in := make([]int16, n)
		coef := make([]int16, taps)
		for i := range in {
			in[i] = int16(rng.Intn(8000) - 4000)
		}
		for i := range coef {
			coef[i] = int16(rng.Intn(8000) - 4000)
		}
		m := mem.New()
		loadLEA(m, 0, in)
		loadLEA(m, 200, coef)
		Fir(m, 0, 200, 400, n, taps)
		got := readLEA(m, 400, FirOutLen(n, taps))
		want := FirRef(in, coef)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestFirKnownValues(t *testing.T) {
	// Unity Q15 coefficient (32767) acting as identity (up to the >>15).
	in := []int16{100, -200, 300, -400}
	coef := []int16{32767}
	got := FirRef(in, coef)
	want := []int16{99, -200, 299, -400} // (x·32767)>>15 loses ~1 LSB on positives
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFirSaturation(t *testing.T) {
	in := []int16{32767, 32767, 32767, 32767}
	coef := []int16{32767, 32767, 32767, 32767}
	got := FirRef(in, coef)
	if len(got) != 1 || got[0] != 32767 {
		t.Errorf("saturating FIR = %v, want [32767]", got)
	}
	neg := FirRef([]int16{-32768, -32768}, []int16{32767, 32767})
	if neg[0] != -32768 {
		t.Errorf("negative saturation = %d", neg[0])
	}
}

func TestFirDegenerate(t *testing.T) {
	m := mem.New()
	Fir(m, 0, 0, 0, 0, 0) // must not panic
	if FirOutLen(5, 10) != 0 {
		t.Error("input shorter than taps yields no output")
	}
	if FirOutLen(10, 10) != 1 {
		t.Error("input equal to taps yields one output")
	}
	if FirRef(nil, nil) != nil {
		t.Error("nil ref inputs yield nil")
	}
}

func TestRelu(t *testing.T) {
	m := mem.New()
	loadLEA(m, 10, []int16{-5, 0, 7, -32768, 32767})
	Relu(m, 10, 5)
	got := readLEA(m, 10, 5)
	want := []int16{0, 0, 7, 0, 32767}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("relu[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	ref := ReluRef([]int16{-5, 0, 7, -32768, 32767})
	for i := range want {
		if ref[i] != want[i] {
			t.Errorf("ReluRef[%d] = %d, want %d", i, ref[i], want[i])
		}
	}
}

func TestDot(t *testing.T) {
	a := []int16{1, 2, 3}
	b := []int16{4, -5, 6}
	want := int32(1*4 - 2*5 + 3*6)
	if got := DotRef(a, b); got != want {
		t.Errorf("DotRef = %d, want %d", got, want)
	}
	m := mem.New()
	loadLEA(m, 0, a)
	loadLEA(m, 100, b)
	if got := Dot(m, 0, 100, 3); got != want {
		t.Errorf("Dot = %d, want %d", got, want)
	}
}

func TestDotMatchesReference(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		a := make([]int16, n)
		b := make([]int16, n)
		for i := range a {
			a[i] = int16(rng.Uint32())
			b[i] = int16(rng.Uint32())
		}
		m := mem.New()
		loadLEA(m, 0, a)
		loadLEA(m, 512, b)
		return Dot(m, 0, 512, n) == DotRef(a, b)
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

// Per-word references: each kernel as a sequence of
// Memory.Read/Write calls, one per access in command order. The span
// kernels must leave exactly the words and high-water mark these leave.

func refRead(m *mem.Memory, off int) int16 {
	return int16(m.Read(mem.Addr{Bank: mem.LEARAM, Word: off}))
}

func refWrite(m *mem.Memory, off int, v int16) {
	m.Write(mem.Addr{Bank: mem.LEARAM, Word: off}, uint16(v))
}

func refFir(m *mem.Memory, inOff, coefOff, outOff, inLen, taps int) {
	if taps <= 0 || inLen < taps {
		return
	}
	for i := 0; i <= inLen-taps; i++ {
		var acc int64
		for j := 0; j < taps; j++ {
			acc += int64(refRead(m, inOff+i+j)) * int64(refRead(m, coefOff+j))
		}
		refWrite(m, outOff+i, sat16(acc>>15))
	}
}

func refRelu(m *mem.Memory, off, n int) {
	for i := 0; i < n; i++ {
		if refRead(m, off+i) < 0 {
			refWrite(m, off+i, 0)
		}
	}
}

func refDot(m *mem.Memory, aOff, bOff, n int) int32 {
	var acc int64
	for i := 0; i < n; i++ {
		acc += int64(refRead(m, aOff+i)) * int64(refRead(m, bOff+i))
	}
	return sat32(acc)
}

// plant stores samples at LEA-RAM offset off through a raw span, so
// the high-water mark stays where the kernel under test can move it.
func plant(m *mem.Memory, off int, data []int16) {
	words := m.Span(mem.Addr{Bank: mem.LEARAM, Word: off}, len(data))
	for i, v := range data {
		words[i] = uint16(v)
	}
}

// twinMems returns two memories whose first 1024 LEA-RAM words hold the
// same random samples, with zero high-water marks.
func twinMems(rng *rand.Rand) (*mem.Memory, *mem.Memory) {
	data := make([]int16, 1024)
	for i := range data {
		data[i] = int16(rng.Intn(16000) - 8000)
	}
	a, b := mem.New(), mem.New()
	plant(a, 0, data)
	plant(b, 0, data)
	return a, b
}

func sameLEA(t *testing.T, what string, got, want *mem.Memory) {
	t.Helper()
	whole := mem.Addr{Bank: mem.LEARAM}
	if !slices.Equal(got.Span(whole, mem.LEARAMWords), want.Span(whole, mem.LEARAMWords)) {
		t.Errorf("%s: LEA-RAM words differ from the per-word reference", what)
	}
	if g, w := got.HighWater(mem.LEARAM), want.HighWater(mem.LEARAM); g != w {
		t.Errorf("%s: high water %d, per-word %d", what, g, w)
	}
}

// firCmd is one FIR command's ranges.
type firCmd struct {
	name                            string
	inOff, coefOff, outOff, n, taps int
}

// firCmds returns the in-place and overlapping edge cases, then 40
// random commands within the first 1024 words.
func firCmds() []firCmd {
	firs := []firCmd{
		{"fir in place", 100, 400, 100, 64, 8},
		{"fir out overlaps coef", 0, 300, 296, 40, 12},
		{"fir out overlaps in tail", 200, 50, 230, 48, 5},
		{"fir single output", 10, 20, 30, 7, 7},
	}
	for i := 0; i < 40; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		taps := 1 + rng.Intn(16)
		firs = append(firs, firCmd{"fir random", rng.Intn(512), rng.Intn(512), rng.Intn(512), taps + rng.Intn(200), taps})
	}
	return firs
}

// TestKernelsMatchPerWord is the span ≡ per-word oracle for the LEA
// kernels: random ranges (freely overlapping, in-place included) plus
// the edge cases that decide the high-water mark.
func TestKernelsMatchPerWord(t *testing.T) {
	for i, c := range firCmds() {
		got, want := twinMems(rand.New(rand.NewSource(int64(1000 + i))))
		Fir(got, c.inOff, c.coefOff, c.outOff, c.n, c.taps)
		refFir(want, c.inOff, c.coefOff, c.outOff, c.n, c.taps)
		sameLEA(t, c.name, got, want)
	}

	relus := []struct {
		name string
		prep func(m *mem.Memory)
		off  int
		n    int
	}{
		{"relu no negatives", func(m *mem.Memory) { plant(m, 1500, []int16{0, 1, 2, 32767}) }, 1500, 4},
		{"relu negative at head only", func(m *mem.Memory) { plant(m, 1500, []int16{-1, 0, 3, 4}) }, 1500, 4},
		{"relu random", nil, 7, 900},
		{"relu empty", nil, 1100, 0},
	}
	for i, c := range relus {
		got, want := twinMems(rand.New(rand.NewSource(int64(2000 + i))))
		if c.prep != nil {
			c.prep(got)
			c.prep(want)
		}
		Relu(got, c.off, c.n)
		refRelu(want, c.off, c.n)
		sameLEA(t, c.name, got, want)
	}

	for i := 0; i < 20; i++ {
		rng := rand.New(rand.NewSource(int64(3000 + i)))
		aOff, bOff, n := rng.Intn(512), rng.Intn(512), rng.Intn(512)
		got, want := twinMems(rng)
		if g, w := Dot(got, aOff, bOff, n), refDot(want, aOff, bOff, n); g != w {
			t.Errorf("dot(%d, %d, %d) = %d, per-word %d", aOff, bOff, n, g, w)
		}
		sameLEA(t, "dot random", got, want)
	}
}

// TestKernelOutOfRangePanicsFirst pins that a command whose ranges leave
// LEA-RAM panics before it changes any word or the high-water mark (the per-word
// loop would have written the in-range prefix first).
func TestKernelOutOfRangePanicsFirst(t *testing.T) {
	end := mem.LEARAMWords
	for _, c := range []struct {
		name string
		run  func(m *mem.Memory)
	}{
		{"fir out past end", func(m *mem.Memory) { Fir(m, 0, 100, end-4, 40, 4) }},
		{"fir in past end", func(m *mem.Memory) { Fir(m, end-10, 100, 0, 40, 4) }},
		{"relu past end", func(m *mem.Memory) { Relu(m, end-2, 5) }},
		{"dot past end", func(m *mem.Memory) { Dot(m, 0, end-1, 3) }},
	} {
		m, _ := twinMems(rand.New(rand.NewSource(7)))
		plant(m, end-10, []int16{-1, -2, -3, -4, -5, -6, -7, -8, -9, -10})
		hw := m.HighWater(mem.LEARAM)
		before := slices.Clone(m.Span(mem.Addr{Bank: mem.LEARAM}, end))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.run(m)
		}()
		if !slices.Equal(m.Span(mem.Addr{Bank: mem.LEARAM}, end), before) {
			t.Errorf("%s: words changed before the panic", c.name)
		}
		if m.HighWater(mem.LEARAM) != hw {
			t.Errorf("%s: high water moved before the panic", c.name)
		}
	}
}

// TestFirMemoMatchesFir runs one long command sequence twice, through
// a FirMemo on one memory and plain Fir on its twin, and wants the same
// words and high-water mark after every step. Most steps reuse one of
// the in-place and overlapping shapes, so the memo both hits and
// misses; the random shapes outnumber its entries, so it recycles them
// too. Some commands run twice, each time right after a restore of the
// starting memory, whose zero high-water mark the hit must raise again.
// Between two commands the input may be rewritten by a Relu, a
// WriteLEA-style word store or a DMA copy window, or not at all (a
// hit). Out-of-range commands panic before any word changes, and the
// memo stays exact after them.
func TestFirMemoMatchesFir(t *testing.T) {
	var memo FirMemo
	got, want := twinMems(rand.New(rand.NewSource(42)))
	start := got.SnapshotAll()
	rng := rand.New(rand.NewSource(43))
	cmds := firCmds()
	end := mem.LEARAMWords
	bad := []firCmd{
		{"fir out past end", 0, 100, end - 4, 40, 4},
		{"fir in past end", end - 10, 100, 0, 40, 4},
		{"fir coef past end", 0, end - 2, 100, 40, 4},
	}
	for step := 0; step < 2000; step++ {
		c := cmds[rng.Intn(4)]
		if rng.Intn(4) == 0 {
			c = cmds[rng.Intn(len(cmds))]
		}
		what := fmt.Sprintf("step %d: %s", step, c.name)
		if rng.Intn(50) == 0 {
			c = bad[rng.Intn(len(bad))]
			what = fmt.Sprintf("step %d: %s", step, c.name)
			before := slices.Clone(got.Span(mem.Addr{Bank: mem.LEARAM}, end))
			hw := got.HighWater(mem.LEARAM)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic", what)
					}
				}()
				memo.Fir(got, c.inOff, c.coefOff, c.outOff, c.n, c.taps)
			}()
			if !slices.Equal(got.Span(mem.Addr{Bank: mem.LEARAM}, end), before) || got.HighWater(mem.LEARAM) != hw {
				t.Errorf("%s: memory changed before the panic", what)
			}
			continue
		}
		if rng.Intn(8) == 0 {
			// A checkpoint restore: roll both memories back to the
			// start (high-water marks zero), run the command, roll back
			// again and run it once more, now served by the memo.
			for range 2 {
				got.RestoreAll(start)
				want.RestoreAll(start)
				memo.Fir(got, c.inOff, c.coefOff, c.outOff, c.n, c.taps)
				Fir(want, c.inOff, c.coefOff, c.outOff, c.n, c.taps)
			}
			sameLEA(t, what+" after a restore", got, want)
			continue
		}
		memo.Fir(got, c.inOff, c.coefOff, c.outOff, c.n, c.taps)
		Fir(want, c.inOff, c.coefOff, c.outOff, c.n, c.taps)
		sameLEA(t, what, got, want)
		switch rng.Intn(4) {
		case 0: // a Relu over the input
			Relu(got, c.inOff, c.n)
			Relu(want, c.inOff, c.n)
		case 1: // a CPU store into the input or the coefficients
			a := mem.Addr{Bank: mem.LEARAM, Word: c.inOff + rng.Intn(c.n)}
			if rng.Intn(2) == 0 {
				a.Word = c.coefOff + rng.Intn(c.taps)
			}
			v := uint16(rng.Intn(16000) - 8000)
			got.Write(a, v)
			want.Write(a, v)
		case 2: // a DMA copy from elsewhere in LEA-RAM over the input
			n := 1 + rng.Intn(c.n)
			src := mem.Addr{Bank: mem.LEARAM, Word: 600 + rng.Intn(200)}
			dst := mem.Addr{Bank: mem.LEARAM, Word: c.inOff + rng.Intn(c.n-n+1)}
			for _, m := range []*mem.Memory{got, want} {
				w := m.CopyWindowFor(src, dst, n)
				w.MoveN(0, n)
			}
		}
		sameLEA(t, what+" (rewrite)", got, want)
	}
}

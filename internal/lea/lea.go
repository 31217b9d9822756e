// Package lea models the MSP430FR5994's Low Energy Accelerator: a vector
// math coprocessor operating on a dedicated 4 KB volatile RAM (LEA-RAM).
//
// The kernels here are the data-plane only — they compute real results on
// int16 fixed-point samples so that the evaluation's correctness checks
// (Figure 12, Table 5) compare actual numbers, not placeholders. Cycle and
// energy costs are charged by the execution kernel before these functions
// run; a power failure therefore aborts a vector command before it
// touches LEA-RAM, matching the command-granularity behaviour of the real
// accelerator.
//
// Because a command runs whole, nothing can observe LEA-RAM between its
// words. So each kernel validates its ranges once (mem.Span), works on
// the bank's live words, and a writing kernel raises the high-water mark
// once per command (mem.Wrote) to where its per-word Write sequence
// would leave it. It reads and writes the live words in that per-word
// order, so in-place and overlapping ranges give the same results too. A
// range out of bounds panics before any word changes.
//
// FirMemo serves repeated FIR commands from saved words instead of
// recomputing them; the execution kernel runs every FIR command through
// one.
package lea

import "easeio/internal/mem"

// span returns the live LEA-RAM words [off, off+n).
func span(m *mem.Memory, off, n int) []uint16 {
	return m.Span(mem.Addr{Bank: mem.LEARAM, Word: off}, n)
}

// sat16 saturates an accumulator to int16, as the LEA's fixed-point
// pipeline does.
func sat16(v int64) int16 {
	switch {
	case v > 32767:
		return 32767
	case v < -32768:
		return -32768
	default:
		return int16(v)
	}
}

// sat32 saturates an accumulator to int32 (the LEA's MAC result width).
func sat32(v int64) int32 {
	switch {
	case v > 2147483647:
		return 2147483647
	case v < -2147483648:
		return -2147483648
	default:
		return int32(v)
	}
}

// Fir computes a direct-form FIR convolution over LEA-RAM:
//
//	out[i] = sat( Σ_{j<taps} coef[j]·in[i+j] >> 15 )  for i ≤ inLen−taps
//
// using Q15 fixed-point coefficients, mirroring the LEA's FIR command.
func Fir(m *mem.Memory, inOff, coefOff, outOff, inLen, taps int) {
	outLen := FirOutLen(inLen, taps)
	if outLen == 0 {
		return
	}
	in := span(m, inOff, inLen)
	coef := span(m, coefOff, taps)
	out := span(m, outOff, outLen)
	for i := range out {
		x := in[i : i+len(coef)]
		var acc int64
		for j, c := range coef {
			acc += int64(int16(x[j])) * int64(int16(c))
		}
		out[i] = uint16(sat16(acc >> 15))
	}
	m.Wrote(mem.LEARAM, outOff+outLen)
}

// FirMemo is an exact memo for Fir: host-side scratch that remembers,
// per call shape (the offsets, input length and tap count), the input
// and coefficient words of the shape's last computed command and the
// output they produced. A command's output is a pure function of the
// input and coefficient words it starts from, and the execution kernel
// has charged its simulated cost before the memo runs, so serving a
// remembered output changes no simulated number. There is no hash: a
// hit compares the live spans with the saved copies word for word.
//
// A memo is not device state. It never enters a checkpoint or the wire,
// and a reset or power failure does not clear it. The zero value is an
// empty memo.
type FirMemo struct {
	entries []firEntry
	next    int // the entry a new shape replaces once the memo is full
}

// firMemoShapes bounds the shapes a memo keeps. The shipped apps issue
// at most four; a caller that slides its offsets over many shapes
// recycles entries in turn instead of growing the memo.
const firMemoShapes = 16

type firShape struct{ inOff, coefOff, outOff, inLen, taps int }

// firEntry is one shape's last computed command. A new or recycled
// entry's empty input matches no command: a FIR input has at least one
// word.
type firEntry struct {
	shape         firShape
	in, coef, out []uint16
}

// Fir has the effect of the package's Fir, served from the memo when
// the input and coefficient words match the shape's last command. It validates all three ranges first,
// so an out-of-range command panics before any word changes, exactly
// as Fir does. A miss saves the input and coefficients before Fir runs
// (the output may overlap them), then the output it wrote.
func (f *FirMemo) Fir(m *mem.Memory, inOff, coefOff, outOff, inLen, taps int) {
	outLen := FirOutLen(inLen, taps)
	if outLen == 0 {
		return
	}
	in := span(m, inOff, inLen)
	coef := span(m, coefOff, taps)
	out := span(m, outOff, outLen)
	e := f.entry(firShape{inOff, coefOff, outOff, inLen, taps})
	if mem.Equal(in, e.in) && mem.Equal(coef, e.coef) {
		copy(out, e.out)
		m.Wrote(mem.LEARAM, outOff+outLen)
		return
	}
	e.in = append(e.in[:0], in...)
	e.coef = append(e.coef[:0], coef...)
	Fir(m, inOff, coefOff, outOff, inLen, taps)
	e.out = append(e.out[:0], out...)
}

// entry returns the memo entry for shape, claiming a fresh or recycled
// one when the shape is new.
func (f *FirMemo) entry(shape firShape) *firEntry {
	for i := range f.entries {
		if f.entries[i].shape == shape {
			return &f.entries[i]
		}
	}
	if len(f.entries) < firMemoShapes {
		f.entries = append(f.entries, firEntry{shape: shape})
		return &f.entries[len(f.entries)-1]
	}
	e := &f.entries[f.next]
	f.next = (f.next + 1) % firMemoShapes
	e.shape, e.in = shape, e.in[:0]
	return e
}

// FirOutLen returns the number of output samples Fir produces.
func FirOutLen(inLen, taps int) int {
	if taps <= 0 || inLen < taps {
		return 0
	}
	return inLen - taps + 1
}

// Relu clamps n int16 samples at LEA-RAM offset off to be non-negative.
// Only a cleared negative sample counts as written.
func Relu(m *mem.Memory, off, n int) {
	s := span(m, off, n)
	end := 0
	for i, v := range s {
		if int16(v) < 0 {
			s[i] = 0
			end = off + i + 1
		}
	}
	m.Wrote(mem.LEARAM, end)
}

// Dot returns the int32 dot product of two n-sample int16 vectors in
// LEA-RAM.
func Dot(m *mem.Memory, aOff, bOff, n int) int32 {
	a := span(m, aOff, n)
	b := span(m, bOff, n)[:len(a)]
	var acc int64
	for i, x := range a {
		acc += int64(int16(x)) * int64(int16(b[i]))
	}
	return sat32(acc)
}

// Reference implementations over plain slices, used by the applications to
// compute golden (continuous-power) results without a device.

// FirRef computes the same FIR convolution over plain int16 slices.
func FirRef(in, coef []int16) []int16 {
	taps := len(coef)
	if taps == 0 || len(in) < taps {
		return nil
	}
	out := make([]int16, len(in)-taps+1)
	for i := range out {
		var acc int64
		for j := 0; j < taps; j++ {
			acc += int64(in[i+j]) * int64(coef[j])
		}
		out[i] = sat16(acc >> 15)
	}
	return out
}

// ReluRef clamps a copy of in to be non-negative.
func ReluRef(in []int16) []int16 {
	out := make([]int16, len(in))
	for i, v := range in {
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// DotRef returns the dot product of two equal-length int16 slices.
func DotRef(a, b []int16) int32 {
	var acc int64
	for i := range a {
		acc += int64(a[i]) * int64(b[i])
	}
	return sat32(acc)
}

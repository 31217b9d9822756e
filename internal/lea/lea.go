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

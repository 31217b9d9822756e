// ExecStub: a minimal, stateful implementation of Exec for unit tests of
// components that only need the environment surface (peripheral models,
// blueprint checks). The execution kernel provides the real thing.

package task

import (
	"math/rand"
	"time"

	"easeio/internal/lazyrand"
	"easeio/internal/units"
)

// ExecStub implements Exec with in-memory state: variables are plain maps,
// charges accumulate, and the clock is advanced by Op. It performs no
// consistency machinery whatsoever.
type ExecStub struct {
	// Clock is the current wall time returned by Now; Op advances it.
	Clock time.Duration
	// ChargedTime and ChargedEnergy accumulate Op charges.
	ChargedTime   time.Duration
	ChargedEnergy units.Energy
	// Cycles accumulates Compute charges.
	Cycles int64
	// Vars holds variable contents, keyed by variable and word index.
	Vars map[*NVVar][]uint16
	// RandSrc seeds Rand (lazily).
	RandSrc int64
	// Transitioned and NextTask record control flow.
	Transitioned bool
	NextTask     *Task

	rng *rand.Rand
}

var _ Exec = (*ExecStub)(nil)

// Compute implements Exec.
func (s *ExecStub) Compute(n int64) { s.Cycles += n }

func (s *ExecStub) slot(v *NVVar) []uint16 {
	if s.Vars == nil {
		s.Vars = map[*NVVar][]uint16{}
	}
	buf, ok := s.Vars[v]
	if !ok {
		buf = make([]uint16, v.Words)
		copy(buf, v.Init)
		s.Vars[v] = buf
	}
	return buf
}

// Load implements Exec.
func (s *ExecStub) Load(v *NVVar) uint16 { return s.slot(v)[0] }

// Store implements Exec.
func (s *ExecStub) Store(v *NVVar, val uint16) { s.slot(v)[0] = val }

// LoadAt implements Exec.
func (s *ExecStub) LoadAt(v *NVVar, i int) uint16 { return s.slot(v)[i] }

// StoreAt implements Exec.
func (s *ExecStub) StoreAt(v *NVVar, i int, val uint16) { s.slot(v)[i] = val }

// LoadSum implements Exec as a per-word LoadAt loop.
func (s *ExecStub) LoadSum(v *NVVar, off, n int) uint16 {
	var sum uint16
	for j := 0; j < n; j++ {
		sum += s.LoadAt(v, off+j)
	}
	return sum
}

// CallIO implements Exec by running the site directly.
func (s *ExecStub) CallIO(site *IOSite) uint16 { return site.Exec(s, 0) }

// CallIOAt implements Exec by running the site directly.
func (s *ExecStub) CallIOAt(site *IOSite, idx int) uint16 { return site.Exec(s, idx) }

// IOBlock implements Exec by running the body directly.
func (s *ExecStub) IOBlock(_ *IOBlock, body func()) { body() }

// DMACopy implements Exec as a no-op (no memory model in the stub).
func (s *ExecStub) DMACopy(*DMASite, Loc, Loc, int) {}

// LEAFir implements Exec as a no-op.
func (s *ExecStub) LEAFir(_, _, _, _, _ int) {}

// LEARelu implements Exec as a no-op.
func (s *ExecStub) LEARelu(_, _ int) {}

// LEADot implements Exec as a no-op.
func (s *ExecStub) LEADot(_, _, _ int) int32 { return 0 }

// LEAMacs implements Exec.
func (s *ExecStub) LEAMacs(n int64) { s.Cycles += n }

// ReadLEA implements Exec.
func (s *ExecStub) ReadLEA(int) uint16 { return 0 }

// WriteLEA implements Exec.
func (s *ExecStub) WriteLEA(int, uint16) {}

// Op implements Exec: charges accumulate and the clock advances.
func (s *ExecStub) Op(dt time.Duration, e units.Energy) {
	s.ChargedTime += dt
	s.ChargedEnergy += e
	s.Clock += dt
}

// Now implements Exec.
func (s *ExecStub) Now() time.Duration { return s.Clock }

// Rand implements Exec.
func (s *ExecStub) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(lazyrand.New(s.RandSrc))
	}
	return s.rng
}

// Next implements Exec.
func (s *ExecStub) Next(t *Task) {
	s.Transitioned = true
	s.NextTask = t
}

// Done implements Exec.
func (s *ExecStub) Done() { s.Transitioned = true }

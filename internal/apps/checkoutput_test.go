// Ground-truth verdicts for the range-comparing output checkers: the
// engine runs CheckOutput after every sweep run, so a checker that
// accepts a corrupted image (or rejects the golden one) silently changes
// correctness statistics. Each case plants memory in a fakeCheckMem and
// asserts the checker against a verdict the test computes itself.

package apps

import (
	"math/rand"
	"testing"

	"easeio/internal/task"
)

// verdict fails the test when the app's checker disagrees with want on m.
func verdict(t *testing.T, a *task.App, m fakeCheckMem, want bool, label string) {
	t.Helper()
	if got := a.CheckOutput(m); got != want {
		t.Errorf("%s: CheckOutput=%v, want %v", label, got, want)
	}
}

func varByName(t *testing.T, a *task.App, name string) *task.NVVar {
	t.Helper()
	for _, v := range a.Vars {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("app %s has no variable %q", a.Name, name)
	return nil
}

func TestDMACheckOutputVerdicts(t *testing.T) {
	cfg := DefaultDMAConfig()
	cfg.Words = 200
	bench, err := NewDMAApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := bench.App
	dst := varByName(t, a, "dst")
	sum := varByName(t, a, "checksum")
	pattern := Pattern(cfg.Words, 0xD17A)
	var wantSum uint16
	for i := 0; i < cfg.FinishReads; i++ {
		wantSum += pattern[i]
	}
	// expect is the reference verdict: the whole destination buffer holds
	// the pattern and the checksum covers its first FinishReads words.
	expect := func(m fakeCheckMem) bool {
		for i, w := range m.words(dst) {
			if w != pattern[i] {
				return false
			}
		}
		return m.words(sum)[0] == wantSum
	}
	golden := func() fakeCheckMem {
		m := fakeCheckMem{}
		copy(m.words(dst), pattern)
		m.words(sum)[0] = wantSum
		return m
	}

	verdict(t, a, golden(), true, "golden memory")
	verdict(t, a, fakeCheckMem{}, false, "all zero")

	// A flip of any single word is rejected, including words past
	// FinishReads that the checksum does not cover.
	for i := 0; i < cfg.Words; i++ {
		m := golden()
		m.words(dst)[i] ^= 1 << (i % 16)
		verdict(t, a, m, false, "flipped dst word")
	}
	m := golden()
	m.words(sum)[0] ^= 1
	verdict(t, a, m, false, "flipped checksum")

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		m := golden()
		m.words(dst)[rng.Intn(cfg.Words)] ^= 1 + uint16(rng.Intn(0xFFFF))
		verdict(t, a, m, expect(m), "corrupted dst word")
	}
	for trial := 0; trial < 100; trial++ {
		m := fakeCheckMem{}
		for i := range m.words(dst) {
			m.words(dst)[i] = uint16(rng.Intn(1 << 16))
		}
		m.words(sum)[0] = uint16(rng.Intn(1 << 16))
		verdict(t, a, m, expect(m), "random memory")
	}
}

func TestTempCheckOutputVerdicts(t *testing.T) {
	bench, err := NewTempApp(DefaultTempConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := bench.App
	reading := varByName(t, a, "reading")
	derived := varByName(t, a, "derived")
	pair := func(r, d uint16) fakeCheckMem {
		m := fakeCheckMem{}
		m.words(reading)[0], m.words(derived)[0] = r, d
		return m
	}

	// The invariant holds in 16-bit arithmetic, wrap-around included.
	for _, r := range []uint16{0, 1, 25, 100, 7281, 0xFFFF} {
		d := r*9/5 + 32
		verdict(t, a, pair(r, d), true, "consistent pair")
		verdict(t, a, pair(r, d+1), false, "derived off by one")
		verdict(t, a, pair(r+1, d), false, "stale derived")
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		r := uint16(rng.Intn(1 << 16))
		d := r*9/5 + 32
		if trial%2 == 1 {
			d = uint16(rng.Intn(1 << 16))
		}
		verdict(t, a, pair(r, d), d == r*9/5+32, "temp memory")
	}
}

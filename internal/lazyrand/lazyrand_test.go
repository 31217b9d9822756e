package lazyrand

import (
	"math/rand"
	"testing"
)

// TestDerived pins that the fast path actually engaged against this
// toolchain's math/rand — if it silently fell back, the package would
// be correct but the reseed win (the reason it exists) would be gone.
func TestDerived(t *testing.T) {
	if !Derived() {
		t.Fatal("lazyrand fell back to math/rand: cooked-constant derivation or verification failed")
	}
}

// TestStreamIdentical compares long interleaved draw sequences against
// rand.NewSource for a spread of seeds, including the normalization
// edge cases (zero, negatives, values beyond the LCG modulus).
func TestStreamIdentical(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, 89482311, -89482311, 1<<31 - 1, 1 << 31, 1<<63 - 1, -1 << 62, 424242}
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for i := 0; i < 3*rngLen; i++ {
			switch i % 3 {
			case 0:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d (Int63): got %d want %d", seed, i, g, w)
				}
			default:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d (Uint64): got %d want %d", seed, i, g, w)
				}
			}
		}
	}
}

// TestReseed pins that reseeding an existing source in place lands on
// exactly the fresh source's stream — the per-run reuse pattern.
func TestReseed(t *testing.T) {
	s := New(7)
	for i := 0; i < 100; i++ {
		s.Uint64()
	}
	for _, seed := range []int64{7, 99, 0, -3} {
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < rngLen+50; i++ {
			if g, w := s.Uint64(), want.Uint64(); g != w {
				t.Fatalf("after reseed %d, draw %d: got %d want %d", seed, i, g, w)
			}
		}
	}
}

// TestRandNewCompatible pins the composed behavior behind the real call
// sites: rand.New on this source must produce the same Int63n/Float64
// sequences as rand.New(rand.NewSource(seed)).
func TestRandNewCompatible(t *testing.T) {
	for _, seed := range []int64{1, 12345, -8} {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(New(seed))
		for i := 0; i < 500; i++ {
			if g, w := got.Int63n(1<<40+7), want.Int63n(1<<40+7); g != w {
				t.Fatalf("seed %d draw %d Int63n: got %d want %d", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d Float64: got %g want %g", seed, i, g, w)
			}
		}
	}
}

// TestCountingSetPos pins that a Counting stream is the plain Source
// stream, that SetPos lands exactly n draws past the seed — from a fresh
// counter, within the memoized stream, and after a reseed — and that Pos
// reports the position back.
func TestCountingSetPos(t *testing.T) {
	ref := New(123)
	var want []uint64
	for i := 0; i < 50; i++ {
		want = append(want, ref.Uint64())
	}
	c := NewCounting(0)
	for _, n := range []uint64{20, 5, 40, 0} {
		c.SetPos(123, n)
		if seed, draws := c.Pos(); seed != 123 || draws != n {
			t.Fatalf("Pos = (%d, %d) after SetPos(123, %d)", seed, draws, n)
		}
		for i := n; i < 50; i++ {
			if got := c.Uint64(); got != want[i] {
				t.Fatalf("SetPos(123, %d): draw %d = %d, want %d", n, i, got, want[i])
			}
		}
		c.Seed(7) // a real reseed drops the memo
	}
	c.Seed(123)
	if got := c.Int63(); got != int64(want[0]&rngMask) {
		t.Fatalf("Int63 = %d, want the masked raw draw %d", got, want[0]&rngMask)
	}
}

// BenchmarkReseedAndDraw models the per-run pattern: reseed, draw a
// handful of values. This is the sweep hot path lazyrand exists for.
func BenchmarkReseedAndDraw(b *testing.B) {
	b.Run("lazyrand", func(b *testing.B) {
		s := New(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			for j := 0; j < 8; j++ {
				s.Uint64()
			}
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		s := rand.NewSource(1).(rand.Source64)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			for j := 0; j < 8; j++ {
				s.Uint64()
			}
		}
	})
}

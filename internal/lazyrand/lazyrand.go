// Package lazyrand provides a rand.Source64 whose output stream is
// bit-identical to math/rand.NewSource(seed) but whose Seed is O(1)
// instead of O(607·3) LCG steps.
//
// Why it exists: the simulator reseeds its supply randomness once per
// run (power.Timer.Reset), and a pooled sweep executes tens of
// thousands of short runs per second. math/rand's rngSource.Seed
// initializes all 607 lagged-Fibonacci state words eagerly (~1.8k LCG
// applications, ~µs), which profiled at a third of sweep CPU — for runs
// that typically draw only a handful of values. This source defers
// state-word initialization to first use: Seed stores the normalized
// LCG seed and clears a 607-bit "initialized" bitmap (ten words), and
// each draw materializes at most two state words on demand via an O(1)
// LCG jump (precomputed powers of the multiplier mod 2³¹−1).
//
// Equivalence is not assumed, it is checked: math/rand's additive
// constants (rngCooked) are unexported, so init derives them by solving
// the lagged-Fibonacci recurrence backwards from the observable draws
// of a known seed, then verifies long interleaved streams for several
// seeds against the real source. If any of that fails (say, a future
// Go release changes the frozen generator), the package falls back to
// delegating every Source to math/rand — always correct, merely slow.
package lazyrand

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	int32max = 1<<31 - 1 // the LCG modulus (a Mersenne prime)
	lcgA     = 48271     // the LCG multiplier
	lcgQ     = 44488     // int32max / lcgA, for Schrage's method
	lcgC     = 3399      // int32max % lcgA
)

// seedrand computes (lcgA·x) mod int32max by Schrage's method, exactly
// as math/rand does. x must be in [1, int32max−1]; so is the result.
func seedrand(x int32) int32 {
	hi := x / lcgQ
	lo := x % lcgQ
	x = lcgA*lo - lcgC*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// mulmod returns (a·b) mod int32max. Operands are below 2³¹ so the
// product fits uint64 with room to spare.
func mulmod(a, b int32) int32 {
	return int32(uint64(a) * uint64(b) % int32max)
}

// jumpPow[i] = lcgA^(21+3i) mod int32max: state word i of a freshly
// seeded rngSource is built from LCG iterates 21+3i, 22+3i, 23+3i of
// the normalized seed (iterates 1..20 are warmup discard), so one
// modular multiply jumps straight to the first of the three.
var jumpPow [rngLen]int32

// cooked[i] is math/rand's rngCooked[i], recovered at init by
// deriveCooked. Valid only when derived is true.
var cooked [rngLen]uint64

// derived reports whether cooked was recovered and verified against
// math/rand. When false every Source delegates to rand.NewSource.
var derived bool

func init() {
	p := int32(lcgA)
	for i := 0; i < 20; i++ { // p = lcgA^21 after the loop
		p = seedrand(p)
	}
	step := seedrand(seedrand(seedrand(1))) // lcgA^3
	for i := range jumpPow {
		jumpPow[i] = p
		p = mulmod(p, step)
	}
	derived = deriveCooked() && verify()
}

// normalize maps an arbitrary seed to the LCG start value in
// [1, int32max−1], exactly as rngSource.Seed does.
func normalize(seed int64) int32 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return int32(seed)
}

// seededWord computes state word i of a fresh rngSource for the
// normalized seed x0, without touching the other 606 words.
func seededWord(x0 int32, i int) int64 {
	x := mulmod(jumpPow[i], x0)
	u := uint64(x) << 40
	x = seedrand(x)
	u ^= uint64(x) << 20
	x = seedrand(x)
	u ^= uint64(x)
	u ^= cooked[i]
	return int64(u)
}

// deriveCooked recovers rngCooked from the draws of a known seed.
//
// A fresh source starts at tap=0, feed=rngLen−rngTap=334; draw n
// (1-based) reads indices f(n)=(334−n) mod 607 and t(n)=(−n) mod 607,
// stores their sum back at f(n), and returns it. Each index is fed at
// most once in the first 607 draws, so with D[n] the n-th draw and
// V[i] the initial state:
//
//	n ≤ 273:        D[n] = V[334−n] + V[607−n]   (tap not yet fed)
//	274 ≤ n ≤ 334:  D[n] = V[334−n] + D[n−273]   → V[60..0]
//	335 ≤ n ≤ 607:  D[n] = V[941−n] + D[n−273]   → V[606..334]
//
// and substituting the third line's results back into the first yields
// V[333..61]. XOR-ing each V[i] against the seed-dependent part (which
// we can compute) leaves rngCooked[i]. Addition wraps int64 in both
// directions, so subtraction recovers the summands exactly.
func deriveCooked() bool {
	const knownSeed = 1
	src, ok := rand.NewSource(knownSeed).(rand.Source64)
	if !ok {
		return false
	}
	var d [rngLen + 1]int64 // 1-based
	for n := 1; n <= rngLen; n++ {
		d[n] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for n := 274; n <= 334; n++ {
		v[334-n] = d[n] - d[n-273]
	}
	for n := 335; n <= 607; n++ {
		v[941-n] = d[n] - d[n-273]
	}
	for n := 1; n <= 273; n++ {
		v[334-n] = d[n] - v[607-n]
	}
	x := normalize(knownSeed)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	for i := range v {
		x = seedrand(x)
		u := uint64(x) << 40
		x = seedrand(x)
		u ^= uint64(x) << 20
		x = seedrand(x)
		u ^= uint64(x)
		cooked[i] = uint64(v[i]) ^ u
	}
	return true
}

// verify replays interleaved Int63/Uint64 draws for a spread of seeds
// against math/rand, long enough to wrap the lagged-Fibonacci window
// twice. Run once at init; failure flips the package to fallback mode.
func verify() bool {
	for _, seed := range []int64{0, 1, -1, 42, 1<<62 + 12345, -987654321} {
		want, ok := rand.NewSource(seed).(rand.Source64)
		if !ok {
			return false
		}
		var got Source
		got.seedFast(seed)
		for i := 0; i < 2*rngLen+100; i++ {
			if i%3 == 0 {
				if got.Int63() != want.Int63() {
					return false
				}
			} else if got.Uint64() != want.Uint64() {
				return false
			}
		}
	}
	return true
}

// Source is a rand.Source64 bit-identical to math/rand.NewSource with
// O(1) reseeding. The zero value is not ready; call Seed (or use New)
// first. Not safe for concurrent use, same as math/rand's source.
type Source struct {
	vec  [rngLen]int64
	live [(rngLen + 63) / 64]uint64 // bitmap: vec[i] is materialized
	x0   int32                      // normalized LCG seed
	tap  int32
	feed int32
	fb   rand.Source64 // fallback delegate when !derived
}

// New returns a source seeded with seed, equivalent to
// rand.NewSource(seed) draw for draw.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream of rand.NewSource(seed).
func (s *Source) Seed(seed int64) {
	if !derived {
		if s.fb == nil {
			s.fb = rand.NewSource(seed).(rand.Source64)
		} else {
			s.fb.Seed(seed)
		}
		return
	}
	s.seedFast(seed)
}

func (s *Source) seedFast(seed int64) {
	s.x0 = normalize(seed)
	s.tap = 0
	s.feed = rngLen - rngTap
	clear(s.live[:])
}

// word returns vec[i], materializing it from the seed on first touch.
func (s *Source) word(i int32) int64 {
	w, b := uint(i)/64, uint(i)%64
	if s.live[w]&(1<<b) == 0 {
		s.vec[i] = seededWord(s.x0, int(i))
		s.live[w] |= 1 << b
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	if s.fb != nil {
		return s.fb.Uint64()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Derived reports whether the fast path is active (the generator
// constants were recovered and verified at init). Exposed for tests.
func Derived() bool { return derived }

// Counting wraps a Source and counts draws, so a position in the stream
// can be checkpointed as (seed, draws) and re-established by SetPos.
// Every rand.Rand method maps to one or more Int63/Uint64 draws, each
// advancing the underlying generator by exactly one step, so the count
// pins the position exactly. The device's peripheral randomness draws
// through one.
//
// Draws of the current seed are memoized, which makes a same-seed seek
// O(1) instead of a reseed plus a replay of the prefix — the checker
// restores thousands of checkpoints into the same device, all on one
// seed, and the reseed would otherwise dominate suffix replay (it
// profiled at over half the checker's total time). The memo is bounded
// by the longest run's draw count and is dropped on a real reseed.
type Counting struct {
	// src is created on the first unmemoized draw: many simulated runs
	// never sample peripheral randomness at all. src == nil implies the
	// memo is empty (entries only ever come from src), so a fresh
	// counter is at the right position; once created, src always sits
	// at len(hist) draws past seed.
	src   *Source
	seed  int64
	draws uint64   // position in the stream
	hist  []uint64 // memoized raw draws for seed
}

// MaxDraws bounds the peripheral randomness position a decoded
// checkpoint may carry (kernel.Checkpoint.Validate): SetPos memoizes
// every draw up to the target, so an unbounded shipped position would
// allocate without limit — 2^40 draws is 8 TiB. The largest position in
// the checker's test matrix (internal/check, fleet check jobs, the wire
// captures) is 49 draws; 2^20 caps a restore's memo at 8 MiB.
const MaxDraws = 1 << 20

// NewCounting returns a counter at the start of seed's stream.
func NewCounting(seed int64) *Counting { return &Counting{seed: seed} }

// next returns the draw at the current position, from the memo when the
// position has been visited before.
func (c *Counting) next() uint64 {
	if c.draws < uint64(len(c.hist)) {
		v := c.hist[c.draws]
		c.draws++
		return v
	}
	if c.src == nil {
		c.src = New(c.seed)
	}
	v := c.src.Uint64()
	c.hist = append(c.hist, v)
	c.draws++
	return v
}

// Int63 derives the signed draw exactly like math/rand's source does
// (mask the top bit of the same raw uint64), so the stream is identical
// to calling Source.Int63 directly.
func (c *Counting) Int63() int64 { return int64(c.next() & rngMask) }

// Uint64 implements rand.Source64.
func (c *Counting) Uint64() uint64 { return c.next() }

// Seed rewinds to the start of seed's stream; the memo survives when the
// seed is unchanged.
func (c *Counting) Seed(seed int64) {
	if seed == c.seed {
		c.draws = 0
		return
	}
	c.seed, c.draws, c.hist = seed, 0, c.hist[:0]
	if c.src != nil {
		c.src.Seed(seed)
	}
}

// Pos returns the current position: the seed and the draws taken since.
func (c *Counting) Pos() (seed int64, draws uint64) { return c.seed, c.draws }

// SetPos positions the counter exactly n draws past seed, the inverse
// of Pos. Callers bound n
// (see MaxDraws): the memo grows to n entries.
func (c *Counting) SetPos(seed int64, n uint64) {
	c.Seed(seed)
	if uint64(len(c.hist)) < n && c.src == nil {
		c.src = New(c.seed)
	}
	for uint64(len(c.hist)) < n {
		c.hist = append(c.hist, c.src.Uint64())
	}
	c.draws = n
}

// Supply checkpointing. A device checkpoint must capture the supply's
// mutable state alongside memory and clocks, or a restored run would see
// a supply that has drifted ahead (a capacitor drained past the restore
// point, a timer whose random stream has advanced). Every Supply
// implements SnapshotState/RestoreState; states are opaque values that
// must be handed back to a supply of the same concrete type.

package power

import (
	"fmt"
	"math/rand"
	"time"

	"easeio/internal/lazyrand"
	"easeio/internal/units"
)

// SupplyState is an opaque snapshot of a supply's mutable state,
// produced by SnapshotState and consumed by RestoreState on a supply of
// the same concrete type.
type SupplyState interface{ supplyState() }

// countingSource wraps a lazyrand source (bit-identical to math/rand's
// default source, O(1) reseed) and counts draws, so a supply's position
// in its random stream can be checkpointed as (seed, draws) and
// re-established by reseeding and discarding the same number of draws.
// Every top-level rand.Rand call maps to one or more Int63/Uint64
// draws, and each draw advances the underlying generator by exactly one
// step, so the count pins the stream position exactly. The O(1) reseed
// matters because Timer.Reset reseeds once per simulated run: with
// math/rand's eager ~µs seeding it profiled at a third of pooled sweep
// CPU.
type countingSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: lazyrand.New(seed), seed: seed}
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.seed, c.draws = seed, 0
}

// seek reseeds and discards n draws, leaving the source exactly n draws
// past the seed.
func (c *countingSource) seek(seed int64, n uint64) {
	c.Seed(seed)
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.draws = n
}

// continuousState is the (empty) state of a Continuous supply. Boxing a
// zero-size value never allocates, so Continuous ignores prev.
type continuousState struct{}

func (continuousState) supplyState() {}

// SnapshotState implements Supply: a Continuous supply is stateless.
func (Continuous) SnapshotState(SupplyState) SupplyState { return continuousState{} }

// RestoreState implements Supply.
func (Continuous) RestoreState(s SupplyState) {
	if _, ok := s.(continuousState); !ok {
		panic(fmt.Sprintf("power: continuous restore from %T", s))
	}
}

// scheduleState is the mutable state of a Schedule: how many failures
// have fired. FailAt and Off are caller-owned configuration, not state.
type scheduleState struct{ next int }

func (scheduleState) supplyState() {}

// SnapshotState implements Supply.
func (s *Schedule) SnapshotState(prev SupplyState) SupplyState {
	p, ok := prev.(*scheduleState)
	if !ok {
		p = &scheduleState{}
	}
	p.next = s.next
	return p
}

// RestoreState implements Supply.
func (s *Schedule) RestoreState(st SupplyState) {
	ss, ok := st.(*scheduleState)
	if !ok {
		panic(fmt.Sprintf("power: schedule restore from %T", st))
	}
	s.next = ss.next
}

// timerState is the mutable state of a Timer: the next firing point and
// the random stream position.
type timerState struct {
	next  time.Duration
	seed  int64
	draws uint64
}

func (timerState) supplyState() {}

// SnapshotState implements Supply.
func (t *Timer) SnapshotState(prev SupplyState) SupplyState {
	p, ok := prev.(*timerState)
	if !ok {
		p = &timerState{}
	}
	*p = timerState{next: t.next, seed: t.src.seed, draws: t.src.draws}
	return p
}

// RestoreState implements Supply.
func (t *Timer) RestoreState(st SupplyState) {
	ts, ok := st.(*timerState)
	if !ok {
		panic(fmt.Sprintf("power: timer restore from %T", st))
	}
	t.src.seek(ts.seed, ts.draws)
	t.next = ts.next
}

// harvestedState is the mutable state of a Harvested supply: the stored
// energy, the per-run channel gain, and the dead flag.
type harvestedState struct {
	stored units.Energy
	gain   float64
	dead   bool
}

func (harvestedState) supplyState() {}

// SnapshotState implements Supply.
func (s *Harvested) SnapshotState(prev SupplyState) SupplyState {
	p, ok := prev.(*harvestedState)
	if !ok {
		p = &harvestedState{}
	}
	*p = harvestedState{stored: s.Cap.Stored(), gain: s.gain, dead: s.dead}
	return p
}

// RestoreState implements Supply.
func (s *Harvested) RestoreState(st SupplyState) {
	hs, ok := st.(*harvestedState)
	if !ok {
		panic(fmt.Sprintf("power: harvested restore from %T", st))
	}
	s.Cap.SetStored(hs.stored)
	s.gain = hs.gain
	s.dead = hs.dead
}

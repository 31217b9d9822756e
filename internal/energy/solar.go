// Synthetic solar harvesting: a deterministic day/night irradiance curve
// with passing-cloud flicker, for trace-driven experiments. Batteryless
// solar nodes (§1: "ambient energy such as solar") see exactly this
// profile: a smooth diurnal envelope with deep, seconds-scale dips.

package energy

import (
	"time"

	"easeio/internal/units"
)

// SolarConfig parameterizes the synthetic trace.
type SolarConfig struct {
	// Peak is the harvested power at solar noon under clear sky.
	Peak units.Power
	// DayLength is one full day in simulated time (experiments compress
	// it — the device does not care whether a "day" is 24 h or 24 s).
	DayLength time.Duration
	// CloudDepth in [0, 1] scales how much a passing cloud cuts power.
	CloudDepth float64
	// CloudPeriod is the typical spacing of cloud events.
	CloudPeriod time.Duration
	// Seed decorrelates cloud patterns.
	Seed uint64
}

// DefaultSolarConfig returns a compressed day: 0.5 mW peak (just above
// the benchmark workloads' draw, so mornings, evenings and cloud dips all
// fall below it), 10 s day, clouds cutting up to 90 % of power every
// ~250 ms.
func DefaultSolarConfig() SolarConfig {
	return SolarConfig{
		Peak:        500 * units.Microwatt,
		DayLength:   10 * time.Second,
		CloudDepth:  0.9,
		CloudPeriod: 250 * time.Millisecond,
		Seed:        1,
	}
}

// Solar is the synthetic harvester.
type Solar struct {
	cfg SolarConfig
}

// NewSolar returns a solar harvester with the given configuration.
func NewSolar(cfg SolarConfig) Solar {
	if cfg.Peak == 0 {
		cfg = DefaultSolarConfig()
	}
	return Solar{cfg: cfg}
}

// PowerAt implements Harvester: a clipped triangular diurnal envelope
// times a hash-driven cloud factor.
func (s Solar) PowerAt(t time.Duration) units.Power {
	day := s.cfg.DayLength
	if day <= 0 {
		return 0
	}
	phase := t % day
	// Daylight spans the middle half of the day: [day/4, 3·day/4].
	dawn, dusk := day/4, 3*day/4
	if phase < dawn || phase > dusk {
		return 0
	}
	// Triangular envelope peaking at noon.
	noon := day / 2
	var frac float64
	if phase < noon {
		frac = float64(phase-dawn) / float64(noon-dawn)
	} else {
		frac = float64(dusk-phase) / float64(dusk-noon)
	}
	p := float64(s.cfg.Peak) * frac

	// Cloud flicker: a hash per cloud-period bucket decides cover in
	// [0, CloudDepth], linearly interpolated between buckets so dips are
	// band-limited rather than square.
	if s.cfg.CloudDepth > 0 && s.cfg.CloudPeriod > 0 {
		b := uint64(t / s.cfg.CloudPeriod)
		in := float64(t%s.cfg.CloudPeriod) / float64(s.cfg.CloudPeriod)
		c0 := cloudCover(b, s.cfg.Seed, s.cfg.CloudDepth)
		c1 := cloudCover(b+1, s.cfg.Seed, s.cfg.CloudDepth)
		cover := c0*(1-in) + c1*in
		p *= 1 - cover
	}
	return units.Power(p)
}

// cloudCover maps a time bucket to a cover fraction in [0, depth].
func cloudCover(bucket, seed uint64, depth float64) float64 {
	h := bucket ^ seed
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	// Skew toward clear sky: square the uniform draw.
	u := float64(h%1_000_000) / 1_000_000
	return depth * u * u
}

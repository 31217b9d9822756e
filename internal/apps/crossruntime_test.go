package apps

import (
	"testing"

	"easeio/internal/alpaca"
	"easeio/internal/core"
	"easeio/internal/ink"
	"easeio/internal/justdo"
	"easeio/internal/kernel"
	"easeio/internal/power"
)

// TestCrossRuntimeGoldenEquivalence: under continuous power every runtime
// is just bookkeeping — the application-visible non-volatile memory must
// be bit-identical across all four, for every benchmark.
func TestCrossRuntimeGoldenEquivalence(t *testing.T) {
	builders := map[string]func() (*Bench, error){
		"dma":     func() (*Bench, error) { return NewDMAApp(DefaultDMAConfig()) },
		"temp":    func() (*Bench, error) { return NewTempApp(DefaultTempConfig()) },
		"lea":     func() (*Bench, error) { return NewLEAApp(DefaultLEAConfig()) },
		"fir":     func() (*Bench, error) { return NewFIRApp(DefaultFIRConfig()) },
		"weather": func() (*Bench, error) { return NewWeatherApp(DefaultWeatherConfig()) },
	}
	runtimes := map[string]func() kernel.Hooks{
		"alpaca": func() kernel.Hooks { return alpaca.New() },
		"ink":    func() kernel.Hooks { return ink.New() },
		"easeio": func() kernel.Hooks { return core.New() },
		"justdo": func() kernel.Hooks { return justdo.New() },
	}
	for appName, build := range builders {
		t.Run(appName, func(t *testing.T) {
			var ref map[string][]uint16
			var refRT string
			for rtName, newRT := range runtimes {
				bench, err := build()
				if err != nil {
					t.Fatal(err)
				}
				rt := newRT()
				sess := kernel.NewSession(rt, bench.App, power.Continuous{})
				if _, err := sess.Run(1); err != nil {
					t.Fatalf("%s: %v", rtName, err)
				}
				dev := sess.Device()
				got := map[string][]uint16{}
				for _, v := range bench.App.Vars {
					words := make([]uint16, v.Words)
					for i := range words {
						words[i] = kernel.ReadVar(dev, rt, v, i)
					}
					got[v.Name] = words
				}
				if ref == nil {
					ref, refRT = got, rtName
					continue
				}
				for name, words := range ref {
					for i, w := range words {
						// Sensor-derived values may legitimately differ
						// between runtimes (read at different simulated
						// times); everything else must match. Benchmarks
						// are built so only these variables are
						// time-sensitive.
						if timeSensitive(appName, name) {
							continue
						}
						if got[name][i] != w {
							t.Fatalf("%s vs %s: %s[%d] = %d vs %d",
								rtName, refRT, name, i, got[name][i], w)
						}
					}
				}
			}
		})
	}
}

// timeSensitive lists variables holding raw sensor readings, whose values
// depend on when the (runtime-specific) schedule sampled them.
func timeSensitive(app, v string) bool {
	switch app + "/" + v {
	case "temp/reading", "temp/derived", "weather/temp", "weather/humd":
		return true
	}
	return false
}

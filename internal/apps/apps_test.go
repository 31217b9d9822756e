package apps

import (
	"testing"

	"easeio/internal/core"
	"easeio/internal/frontend"
	"easeio/internal/kernel"
	"easeio/internal/lea"
	"easeio/internal/power"
	"easeio/internal/task"
)

// fakeCheckMem is a map-backed task.CheckMem: every variable reads as
// its stored words, zero when unset. Checker tests plant memory in it.
type fakeCheckMem map[*task.NVVar][]uint16

func (m fakeCheckMem) words(v *task.NVVar) []uint16 {
	w, ok := m[v]
	if !ok {
		w = make([]uint16, v.Words)
		m[v] = w
	}
	return w
}

func (m fakeCheckMem) Read(v *task.NVVar, i int) uint16 { return m.words(v)[i] }

func (m fakeCheckMem) Equal(v *task.NVVar, off int, want []uint16) bool {
	w := m.words(v)
	for i, x := range want {
		if w[off+i] != x {
			return false
		}
	}
	return true
}

func TestPatternDeterministicAndBounded(t *testing.T) {
	a := Pattern(256, 1)
	b := Pattern(256, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pattern not deterministic")
		}
	}
	c := Pattern(256, 2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical patterns")
	}
	for i, w := range a {
		v := int16(w)
		if v < -2000 || v > 2000 {
			t.Fatalf("sample %d = %d outside expected envelope", i, v)
		}
	}
}

func TestCoefficientsUnityGain(t *testing.T) {
	for _, taps := range []int{8, 16, 32} {
		coef := Coefficients(taps)
		var sum int32
		for _, c := range coef {
			sum += int32(int16(c))
		}
		// Σcoef ≈ 32767 (unity Q15 gain) within the integer-scaling slack.
		if sum < 32767/2 || sum > 32767 {
			t.Errorf("taps=%d: Σcoef = %d, want ≈ 32767", taps, sum)
		}
		// Symmetric window.
		for i := 0; i < taps/2; i++ {
			if coef[i] != coef[taps-1-i] {
				t.Errorf("taps=%d: coefficients not symmetric at %d", taps, i)
			}
		}
	}
}

func TestWordsSamplesRoundTrip(t *testing.T) {
	in := []int16{-32768, -1, 0, 1, 32767}
	got := Samples(Words(in))
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("round trip [%d] = %d", i, got[i])
		}
	}
}

func TestTable3Structure(t *testing.T) {
	// Table 3: the structural inventory of the benchmarks.
	cases := []struct {
		name      string
		build     func() (*Bench, error)
		tasks, io int
		dmas      int
	}{
		{"dma", func() (*Bench, error) { return NewDMAApp(DefaultDMAConfig()) }, 3, 0, 1},
		{"temp", func() (*Bench, error) { return NewTempApp(DefaultTempConfig()) }, 3, 1, 0},
		{"lea", func() (*Bench, error) { return NewLEAApp(DefaultLEAConfig()) }, 3, 1, 0},
		{"fir", func() (*Bench, error) { return NewFIRApp(DefaultFIRConfig()) }, 5, 2, 3},
		{"weather", func() (*Bench, error) { return NewWeatherApp(DefaultWeatherConfig()) }, 11, 6, 11},
	}
	for _, c := range cases {
		b, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := len(b.App.Tasks); got != c.tasks {
			t.Errorf("%s: %d tasks, want %d", c.name, got, c.tasks)
		}
		if got := len(b.App.Sites); got != c.io {
			t.Errorf("%s: %d I/O sites, want %d", c.name, got, c.io)
		}
		if got := len(b.App.DMAs); got != c.dmas {
			t.Errorf("%s: %d DMA sites, want %d", c.name, got, c.dmas)
		}
		for _, tk := range b.App.Tasks {
			if !tk.Meta.Analyzed {
				t.Errorf("%s: task %q not analyzed", c.name, tk.Name)
			}
		}
	}
}

func TestFIRGoldenMatchesReference(t *testing.T) {
	// The app's CheckOutput is built from FirRef; verify the underlying
	// cascade matches a direct computation for multiple frame counts.
	for _, frames := range []int{1, 3} {
		cfg := DefaultFIRConfig()
		cfg.Frames = frames
		b, err := NewFIRApp(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sig := Samples(Pattern(FIRIn, 0xF1E))
		coefs := Samples(Coefficients(FIRTaps))
		for f := 0; f < frames; f++ {
			out := lea.FirRef(sig, coefs)
			copy(sig[:FIROut], out)
		}
		// Feed the expected memory through CheckOutput.
		signal := b.App.Vars[0]
		stats := b.App.Vars[2]
		if signal.Name != "signal" || stats.Name != "stats" {
			t.Fatalf("variable layout changed: %s %s", signal.Name, stats.Name)
		}
		var acc uint16
		for i := 0; i < 48; i++ {
			acc += uint16(sig[i])
		}
		golden := func() fakeCheckMem {
			m := fakeCheckMem{}
			for i := range m.words(signal) {
				m.words(signal)[i] = uint16(sig[i])
			}
			m.words(stats)[0], m.words(stats)[1] = acc, acc>>1
			return m
		}
		if !b.App.CheckOutput(golden()) {
			t.Errorf("frames=%d: golden memory rejected by CheckOutput", frames)
		}
		// A corrupted word must be rejected.
		bad := golden()
		bad.words(signal)[10]++
		if b.App.CheckOutput(bad) {
			t.Errorf("frames=%d: corrupted memory accepted", frames)
		}
	}
}

func TestWeatherGoldenStable(t *testing.T) {
	s1, c1 := WeatherGolden()
	s2, c2 := WeatherGolden()
	if s1 != s2 || c1 != c2 {
		t.Error("golden DNN result not deterministic")
	}
	if int(c1) >= WeatherClasses {
		t.Errorf("class = %d", c1)
	}
	// Scores must not be all equal (a degenerate DNN would hide bugs).
	allEqual := true
	for k := 1; k < WeatherClasses; k++ {
		if s1[k] != s1[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Error("all class scores identical; DNN degenerate")
	}
}

func TestWeatherBufferModes(t *testing.T) {
	for _, mode := range []BufferMode{SingleBuffer, DoubleBuffer} {
		cfg := DefaultWeatherConfig()
		cfg.Buffers = mode
		b, err := NewWeatherApp(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(b.App.Tasks) != 11 {
			t.Errorf("%v: %d tasks", mode, len(b.App.Tasks))
		}
	}
	if SingleBuffer.String() != "single" || DoubleBuffer.String() != "double" {
		t.Error("buffer mode names")
	}
}

func TestBranchAppConfigs(t *testing.T) {
	for _, sem := range []task.Semantic{task.Single, task.Always} {
		cfg := DefaultBranchConfig()
		cfg.Semantics = sem
		b, err := NewBranchApp(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.App.Sites[0].Sem != sem {
			t.Errorf("semantics not applied: %v", b.App.Sites[0].Sem)
		}
	}
}

// TestBenchmarksPassLint runs the front-end's static checks over every
// benchmark application: no error-severity findings allowed.
func TestBenchmarksPassLint(t *testing.T) {
	builders := map[string]func() (*Bench, error){
		"dma":            func() (*Bench, error) { return NewDMAApp(DefaultDMAConfig()) },
		"temp":           func() (*Bench, error) { return NewTempApp(DefaultTempConfig()) },
		"lea":            func() (*Bench, error) { return NewLEAApp(DefaultLEAConfig()) },
		"fir":            func() (*Bench, error) { return NewFIRApp(DefaultFIRConfig()) },
		"fir/op":         func() (*Bench, error) { c := DefaultFIRConfig(); c.ExcludeCoef = true; return NewFIRApp(c) },
		"weather":        func() (*Bench, error) { return NewWeatherApp(DefaultWeatherConfig()) },
		"weather/op":     func() (*Bench, error) { c := DefaultWeatherConfig(); c.ExcludeWeights = true; return NewWeatherApp(c) },
		"weather/double": func() (*Bench, error) { c := DefaultWeatherConfig(); c.Buffers = DoubleBuffer; return NewWeatherApp(c) },
		"branch":         func() (*Bench, error) { return NewBranchApp(DefaultBranchConfig()) },
	}
	for name, build := range builders {
		b, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		findings, err := frontend.Lint(b.App, frontend.LintConfig{PrivBufWords: core.PrivBufWords})
		if err != nil {
			t.Fatalf("%s: lint: %v", name, err)
		}
		for _, f := range findings {
			if f.Severity == frontend.Error {
				t.Errorf("%s: %v", name, f)
			} else {
				t.Logf("%s: %v", name, f)
			}
		}
	}
}

// TestFIRVariantsCorrectUnderEaseIO: the Exclude, delay-loop-radio and
// multi-frame configurations must all stay correct under failures.
func TestFIRVariantsCorrectUnderEaseIO(t *testing.T) {
	variants := map[string]FIRConfig{
		"exclude":    func() FIRConfig { c := DefaultFIRConfig(); c.ExcludeCoef = true; return c }(),
		"delayradio": func() FIRConfig { c := DefaultFIRConfig(); c.DelayLoopRadio = true; return c }(),
		"frames3": func() FIRConfig {
			c := DefaultFIRConfig()
			c.Frames = 3
			c.DelayLoopRadio = true
			return c
		}(),
	}
	for name, cfg := range variants {
		for seed := int64(1); seed <= 60; seed++ {
			b, err := NewFIRApp(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := kernel.NewSession(core.New(), b.App, power.NewTimer(power.DefaultTimerConfig()))
			if _, err := sess.Run(seed); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			dev := sess.Device()
			if !dev.Run.Correct {
				t.Fatalf("%s seed %d: incorrect output", name, seed)
			}
		}
	}
}

// TestWeatherExcludeVariantCorrect: the EaseIO/Op. weather configuration
// (Exclude on constant weights) must stay correct — Exclude on mutable
// data would be unsafe, and lint enforces that these sources are Const.
func TestWeatherExcludeVariantCorrect(t *testing.T) {
	cfg := DefaultWeatherConfig()
	cfg.ExcludeWeights = true
	for seed := int64(1); seed <= 60; seed++ {
		b, err := NewWeatherApp(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess := kernel.NewSession(core.New(), b.App, power.NewTimer(power.DefaultTimerConfig()))
		if _, err := sess.Run(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dev := sess.Device()
		if !dev.Run.Correct {
			t.Fatalf("seed %d: incorrect output", seed)
		}
	}
}

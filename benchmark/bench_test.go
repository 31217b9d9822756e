package main

import (
	"bytes"
	"context"
	"debug/elf"
	"debug/gosym"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchDef is BENCHMARK.json as the tests read it.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchDef(t *testing.T) benchDef {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d benchDef
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	d := readBenchDef(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var listed []string
	for _, w := range d.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads: code has %v, BENCHMARK.json %v", names, listed)
	}
	check := func(kind string, defs []metricDef, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(listed) {
			t.Errorf("%s: code defines %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
		}
		for i := range min(len(defs), len(listed)) {
			if defs[i].name != listed[i].Name || defs[i].unit != listed[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i,
					defs[i].name, defs[i].unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
}

// reduced is the workload shrunk for the package tests: only its EaseIO
// jobs, sweeps with a few runs, and every check the same-depth check of
// the tiny fig6 app. Client count and fleet path stay, so every layer
// still runs.
func (w workload) reduced() workload {
	var jobs []job
	for _, j := range w.Jobs {
		if j.Runtime != "EaseIO" {
			continue
		}
		if j.Mode == "check" {
			j.App = "fig6"
		} else {
			j.Runs = max(4, j.Runs/512)
		}
		jobs = append(jobs, j)
	}
	w.Jobs = jobs
	return w
}

// runReduced runs one reduced pass set of a workload with results checked
// against direct engine calls (or the given pins). It also returns the
// directory a traced run writes its reports to.
func runReduced(t *testing.T, w workload, trace bool, pins map[string]string) (result, string) {
	t.Helper()
	dir := t.TempDir()
	res, err := runWorkload(context.Background(), options{
		w: w.reduced(), seed: 1, trace: trace, traceDir: dir, workdir: t.TempDir(),
		setups: 1, pins: pins, out: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, dir
}

// TestReducedPassEmitsEveryMetric runs every workload, untraced and traced,
// on reduced job lists and checks that each metric BENCHMARK.json names is
// reported with its unit, and that the traced run's fold leaves at most 5%
// of the CPU time to no layer.
func TestReducedPassEmitsEveryMetric(t *testing.T) {
	d := readBenchDef(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain, _ := runReduced(t, w, false, nil)
			if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d", plain.Correct, plain.Failed, plain.Attempted)
			}
			for _, m := range d.EndToEnd {
				got, ok := plain.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				if got.Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v; every end-to-end metric must be positive", m.Name, got.Value)
				}
			}
			if len(plain.Metrics) != len(d.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(plain.Metrics), len(d.EndToEnd))
			}

			traced, dir := runReduced(t, w, true, nil)
			if !traced.Correct {
				t.Fatalf("traced run failed %d of %d jobs", traced.Failed, traced.Attempted)
			}
			for _, m := range d.PerLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(traced.Metrics) != len(d.PerLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(traced.Metrics), len(d.PerLayer))
			}
			total, other := traced.Metrics["cpu.total_s"].Value, traced.Metrics["cpu.other_s"].Value
			if total <= 0 || other > 0.05*total {
				raw, err := os.ReadFile(filepath.Join(dir, "layers-"+w.Name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var rep layerReport
				if err := json.Unmarshal(raw, &rep); err != nil {
					t.Fatal(err)
				}
				t.Errorf("cpu.other_s = %v of cpu.total_s = %v; the fold must place at least 95%%; unattributed leaves: %v",
					other, total, rep.Unattributed)
			}
		})
	}
}

func TestTamperedDigestFails(t *testing.T) {
	full, err := findWorkload("sweep-compiled") // the cheapest mix
	if err != nil {
		t.Fatal(err)
	}
	w := full.reduced()
	reg, err := newRegistry(nil)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]string{}
	for _, j := range w.Jobs {
		if pins[j.key()], err = reference(context.Background(), reg, j, 1); err != nil {
			t.Fatal(err)
		}
	}
	if res, _ := runReduced(t, full, false, pins); !res.Correct || res.Failed != 0 {
		t.Fatalf("untampered pins: correct=%v failed=%d", res.Correct, res.Failed)
	}
	tampered := w.Jobs[0].key()
	pins[tampered] = strings.Repeat("0", 64)
	res, _ := runReduced(t, full, false, pins)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("tampered pin for %s: correct=%v failed=%d, want a failure", tampered, res.Correct, res.Failed)
	}
	if ratio := float64(res.Failed) / float64(res.Attempted); ratio <= 0 || ratio >= 1 {
		t.Errorf("failed ratio %v, want only the tampered spec's jobs to fail", ratio)
	}
}

//go:noinline
func spinForProfile(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var spinSink uint64

// TestDecodeProfile decodes a profile runtime/pprof writes during the test
// and finds the labeled goroutine's busy function in it.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	labeled(context.Background(), "client", func(context.Context) { spinSink = spinForProfile(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range p.samples {
		total += s.nanos
		if len(s.stack) > 0 && strings.HasSuffix(s.stack[0], ".spinForProfile") {
			spin += s.nanos
			if s.labels["role"] != "client" {
				t.Errorf("spin sample labels %v, want role=client", s.labels)
			}
		}
	}
	if total <= 0 || spin < total/2 {
		t.Fatalf("decoded %d samples, %v CPU, %v in spinForProfile; want most of it there", len(p.samples), time.Duration(total), time.Duration(spin))
	}
	folded, _ := fold(p)
	if folded["cpu.benchmark_s"] < folded["cpu.total_s"]/2 || folded["label.client_s"] < folded["cpu.total_s"]/2 {
		t.Errorf("fold %v: want the spin in cpu.benchmark_s and label.client_s", folded)
	}
}

// TestStageFunctionsExist checks every stage function name, so a rename
// fails here instead of reading 0: repository functions against their
// declarations in the source (an always-inlined one has no symbol of its
// own, yet profiles still name it as an inlined frame), and standard
// library ones against the binary's function table, which survives the
// symbol stripping go test does.
func TestStageFunctionsExist(t *testing.T) {
	repo := map[string]bool{}
	fset := token.NewFileSet()
	files, err := filepath.Glob("../internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := "easeio/internal/" + filepath.Base(filepath.Dir(path)) + "."
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
					name = "(*" + star.X.(*ast.Ident).Name + ")." + name
				} else {
					name = fd.Recv.List[0].Type.(*ast.Ident).Name + "." + name
				}
			}
			repo[pkg+name] = true
		}
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.Open(exe)
	if err != nil {
		t.Skipf("not an ELF binary: %v", err)
	}
	defer f.Close()
	pcln, text := f.Section(".gopclntab"), f.Section(".text")
	if pcln == nil || text == nil {
		t.Skip("binary has no Go function table")
	}
	data, err := pcln.Data()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := gosym.NewTable(nil, gosym.NewLineTable(data, text.Addr))
	if err != nil {
		t.Fatal(err)
	}
	bin := map[string]bool{}
	for _, fn := range tab.Funcs {
		bin[fn.Name] = true
	}

	names := append([]string(nil), gcRoots...)
	for _, st := range stages {
		names = append(names, st.funcs...)
	}
	for _, fn := range names {
		if strings.HasPrefix(fn, "easeio/") && !repo[fn] || !strings.HasPrefix(fn, "easeio/") && !bin[fn] {
			t.Errorf("function %s does not exist", fn)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"easeio/internal/kernel.(*Ctx).Charge":                  "easeio/internal/kernel",
		"sync/atomic.(*Pointer[easeio/internal/x.T]).Load":      "sync/atomic",
		"runtime.mallocgc":                                      "runtime",
		"main.(*stack).runJob":                                  "main",
		"easeio/internal/apps.NewFIRApp.func3":                  "easeio/internal/apps",
		"vendor/golang.org/x/net/http2/hpack.(*Decoder).Decode": "vendor/golang.org/x/net/http2/hpack",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	seq := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	parent := seq(100, 1) // median 102, IQR 2.5
	for _, tc := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"faster everywhere", seq(110, 1), true, 0.1, improved},
		{"within bound", seq(99, 1), true, 0.1, unchanged},
		{"slower beyond bound", seq(80, 1), true, 0.1, worse},
		{"spread wider than bound", seq(101, 1), true, 0.01, unresolved},
		{"too few pairs", seq(110, 1)[:5], true, 0.1, unchanged},
		{"lower is better", seq(90, 1), false, 0.1, improved},
	} {
		if got, _ := verdict(parent, tc.change, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestHostScaling(t *testing.T) {
	if got := hostScale(probeRef, 3*probeRef); got != 0.5 {
		t.Errorf("hostScale(ref, 3ref) = %v, want 0.5: a host twice as slow halves times", got)
	}
	// Two jobs, 1 s at scale 0.5 and 3 s at scale 1: the pass's scale is
	// their time-weighted mean, and its rate counts reference-speed seconds.
	p := newPass([]sample{{total: time.Second, scale: 0.5}, {total: 3 * time.Second, scale: 1}}, 4*time.Second)
	if p.scale != 0.875 {
		t.Errorf("pass scale %v, want 0.875", p.scale)
	}
	if got, want := jobRate(p), 2/(4*0.875); got != want {
		t.Errorf("jobs per reference second %v, want %v", got, want)
	}
	if got := wallJobRate(p); got != 0.5 {
		t.Errorf("wall-clock jobs/s %v, want 0.5", got)
	}
}

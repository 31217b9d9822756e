package frontend

import (
	"reflect"
	"testing"
	"time"

	"easeio/internal/task"
)

// buildTestApp assembles a task exercising every analysis feature:
// variable accesses before/after DMAs, WAR dependences, I/O blocks with
// nesting, and loop sites.
func buildTestApp(t *testing.T) (*task.App, map[string]any) {
	t.Helper()
	a := task.NewApp("analysis")
	x := a.NVInt("x")
	y := a.NVBuf("y", 8)
	z := a.NVInt("z")

	s1 := a.IO("s1", task.Single, true, func(task.Exec, int) uint16 { return 1 })
	s2 := a.TimelyIO("s2", 10*time.Millisecond, true, func(task.Exec, int) uint16 { return 2 })
	s3 := a.IO("s3", task.Always, false, func(task.Exec, int) uint16 { return 0 }).After(s1)
	loopSite := a.IO("loop", task.Single, true, func(task.Exec, int) uint16 { return 3 }).Loop(4)

	outer := a.Block("outer", task.Single)
	inner := a.TimelyBlock("inner", 5*time.Millisecond)

	d1 := a.DMA("d1")
	d2 := a.DMA("d2").AfterIO(s2)

	var t2 *task.Task
	t1 := a.AddTask("t1", func(e task.Exec) {
		_ = e.Load(x)      // read x (region 0)
		e.Store(x, 1)      // write after read: WAR on x
		_ = e.LoadAt(y, 2) // read y[2]
		e.IOBlock(outer, func() {
			_ = e.CallIO(s1)
			e.IOBlock(inner, func() {
				_ = e.CallIO(s2)
			})
		})
		e.CallIO(s3)
		e.DMACopy(d1, task.VarLoc(y, 0), task.VarLoc(z, 0), 1)
		e.StoreAt(y, 5, 7) // write y[5] (region 1)
		e.DMACopy(d2, task.VarLoc(z, 0), task.VarLoc(y, 0), 1)
		_ = e.Load(z) // read z (region 2)
		for i := 0; i < 4; i++ {
			_ = e.CallIOAt(loopSite, i)
		}
		e.Next(t2)
	})
	t2 = a.AddTask("t2", func(e task.Exec) {
		e.Store(z, 9) // write-only: no WAR
		e.Done()
	})
	_ = t1
	return a, map[string]any{
		"x": x, "y": y, "z": z,
		"s1": s1, "s2": s2, "s3": s3, "loop": loopSite,
		"outer": outer, "inner": inner, "d1": d1, "d2": d2,
	}
}

func TestAnalyzeStructure(t *testing.T) {
	a, refs := buildTestApp(t)
	if err := Analyze(a); err != nil {
		t.Fatal(err)
	}
	m1 := a.Tasks[0].Meta
	if !m1.Analyzed {
		t.Fatal("task 1 not analyzed")
	}

	// Sites recorded in first-encounter order.
	if len(m1.Sites) != 4 {
		t.Fatalf("sites = %d, want 4", len(m1.Sites))
	}
	if m1.Sites[0] != refs["s1"] || m1.Sites[3] != refs["loop"] {
		t.Error("site order wrong")
	}

	// Blocks and nesting.
	outer := refs["outer"].(*task.IOBlock)
	inner := refs["inner"].(*task.IOBlock)
	if len(m1.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(m1.Blocks))
	}
	if len(outer.Members) != 1 || outer.Members[0] != refs["s1"] {
		t.Errorf("outer members: %v", outer.Members)
	}
	if len(outer.SubBlocks) != 1 || outer.SubBlocks[0] != inner {
		t.Errorf("outer sub-blocks: %v", outer.SubBlocks)
	}
	if len(inner.Members) != 1 || inner.Members[0] != refs["s2"] {
		t.Errorf("inner members: %v", inner.Members)
	}

	// WAR at Alpaca's variable granularity: x (read word 0, then written)
	// and y (read y[2] in region 0, written y[5] in region 1). z is
	// written only by DMA, which the CPU-level WAR analysis cannot see.
	if len(m1.WAR) != 2 || m1.WAR[0] != refs["x"] || m1.WAR[1] != refs["y"] {
		t.Errorf("WAR = %v", varNames(m1.WAR))
	}

	// Regions: 2 DMA calls → 3 regions; call i ends region i.
	if len(m1.Regions) != 3 {
		t.Fatalf("regions = %d, want 3", len(m1.Regions))
	}
	if len(m1.DMAs) != 2 || m1.DMAs[0].Site != refs["d1"] || m1.DMAs[1].Site != refs["d2"] {
		t.Error("region boundaries wrong")
	}
	// Region 0 privatizes x (words 0..0) and y[2..2].
	r0 := m1.Regions[0]
	if !hasVar(r0, refs["x"].(*task.NVVar)) || !hasVar(r0, refs["y"].(*task.NVVar)) {
		t.Errorf("region 0 vars: %+v", r0.Vars)
	}
	for _, rv := range r0.Vars {
		if rv.Var == refs["y"] && (rv.Lo != 2 || rv.Hi != 2) {
			t.Errorf("region 0 y range = [%d,%d], want [2,2]", rv.Lo, rv.Hi)
		}
	}
	// Region 1 privatizes y[5..5]; region 2 privatizes z.
	r1, r2 := m1.Regions[1], m1.Regions[2]
	if !hasVar(r1, refs["y"].(*task.NVVar)) || hasVar(r1, refs["x"].(*task.NVVar)) {
		t.Errorf("region 1 vars: %+v", r1.Vars)
	}
	if !hasVar(r2, refs["z"].(*task.NVVar)) {
		t.Errorf("region 2 vars: %+v", r2.Vars)
	}

	// Task 2: single region, write-only z.
	m2 := a.Tasks[1].Meta
	if len(m2.Regions) != 1 || len(m2.WAR) != 0 {
		t.Errorf("t2 meta: regions=%d war=%d", len(m2.Regions), len(m2.WAR))
	}
	if len(m2.Writes) != 1 || m2.Writes[0] != refs["z"] {
		t.Errorf("t2 writes: %v", varNames(m2.Writes))
	}
}

func varNames(vs []*task.NVVar) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

// hasVar reports whether the region privatizes any range of v.
func hasVar(r *task.RegionMeta, v *task.NVVar) bool {
	for _, x := range r.Vars {
		if x.Var == v {
			return true
		}
	}
	return false
}

func TestAnalyzeIdempotent(t *testing.T) {
	a, refs := buildTestApp(t)
	if err := Analyze(a); err != nil {
		t.Fatal(err)
	}
	outer := refs["outer"].(*task.IOBlock)
	n := len(outer.Members)
	if err := Analyze(a); err != nil {
		t.Fatal(err)
	}
	if len(outer.Members) != n {
		t.Errorf("membership duplicated on re-analysis: %d vs %d", len(outer.Members), n)
	}
	if len(a.Tasks[0].Meta.Regions) != 3 {
		t.Errorf("regions duplicated: %d", len(a.Tasks[0].Meta.Regions))
	}
}

func TestAnalyzeHints(t *testing.T) {
	a := task.NewApp("hints")
	v := a.NVBuf("hidden", 4)
	a.AddTask("t", func(e task.Exec) { e.Done() }).Touches(v)
	if err := Analyze(a); err != nil {
		t.Fatal(err)
	}
	m := a.Tasks[0].Meta
	if len(m.Regions) != 1 || !hasVar(m.Regions[0], v) {
		t.Fatal("hint variable not in region")
	}
	rv := m.Regions[0].Vars[0]
	if rv.Lo != 0 || rv.Hi != 3 {
		t.Errorf("hint range = [%d,%d], want whole variable", rv.Lo, rv.Hi)
	}
	if len(m.WAR) != 1 {
		t.Error("hints must be conservative: read+write implies WAR")
	}
}

// TestHintWidensEveryRegion: in a multi-region task a hint privatizes its
// whole variable in every region, widening a range the body already
// touched rather than leaving it narrow.
func TestHintWidensEveryRegion(t *testing.T) {
	a := task.NewApp("hints2")
	v := a.NVBuf("hinted", 4)
	src := a.NVBuf("src", 2)
	dst := a.NVBuf("dst", 2)
	d := a.DMA("d")
	a.AddTask("t", func(e task.Exec) {
		_ = e.LoadAt(v, 1) // region 0 touches hinted[1] only
		e.DMACopy(d, task.VarLoc(src, 0), task.VarLoc(dst, 0), 2)
		e.Done()
	}).Touches(v)
	if err := Analyze(a); err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Tasks[0].Meta.Regions {
		want := []task.RegionVar{{Var: v, Lo: 0, Hi: 3}}
		if !reflect.DeepEqual(r.Vars, want) {
			t.Errorf("region %d vars = %+v, want the whole hinted variable", r.Index, r.Vars)
		}
	}
}

// TestStripRegions: the plan edit analyzes an unanalyzed app and empties
// every region's variable set, leaving the rest of the plan as analyzed.
func TestStripRegions(t *testing.T) {
	a, _ := buildTestApp(t)
	if err := StripRegions(a); err != nil {
		t.Fatal(err)
	}
	ref, _ := buildTestApp(t)
	if err := Analyze(ref); err != nil {
		t.Fatal(err)
	}
	for i, tk := range a.Tasks {
		m, rm := tk.Meta, ref.Tasks[i].Meta
		if !m.Analyzed || len(m.Regions) != len(rm.Regions) || len(m.DMAs) != len(rm.DMAs) ||
			len(m.Sites) != len(rm.Sites) || !reflect.DeepEqual(varNames(m.WAR), varNames(rm.WAR)) {
			t.Errorf("task %q: stripping changed more than the regions", tk.Name)
		}
		for _, r := range m.Regions {
			if len(r.Vars) != 0 {
				t.Errorf("task %q region %d still privatizes %+v", tk.Name, r.Index, r.Vars)
			}
		}
	}
}

func TestAnalyzeTransitiveDependencies(t *testing.T) {
	a := task.NewApp("deps")
	s1 := a.IO("a", task.Single, true, func(task.Exec, int) uint16 { return 0 })
	s2 := a.IO("b", task.Single, true, func(task.Exec, int) uint16 { return 0 }).After(s1)
	s3 := a.IO("c", task.Single, false, func(task.Exec, int) uint16 { return 0 }).After(s2)
	a.AddTask("t", func(e task.Exec) {
		e.CallIO(s1)
		e.CallIO(s2)
		e.CallIO(s3)
		e.Done()
	})
	if err := Analyze(a); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range s3.DependsOn {
		if d == s1 {
			found = true
		}
	}
	if !found {
		t.Error("transitive dependency c→a not closed")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	// Task that never transitions.
	a := task.NewApp("stuck")
	a.AddTask("t", func(e task.Exec) {})
	if err := Analyze(a); err == nil {
		t.Error("expected error for missing transition")
	}

	// DMA site reused within a task.
	b := task.NewApp("dupdma")
	d := b.DMA("d")
	v := b.NVBuf("v", 4)
	b.AddTask("t", func(e task.Exec) {
		e.DMACopy(d, task.VarLoc(v, 0), task.VarLoc(v, 2), 1)
		e.DMACopy(d, task.VarLoc(v, 0), task.VarLoc(v, 2), 1)
		e.Done()
	})
	if err := Analyze(b); err == nil {
		t.Error("expected error for duplicated DMA site")
	}

	// Recursive block.
	c := task.NewApp("recblock")
	blk := c.Block("b", task.Single)
	c.AddTask("t", func(e task.Exec) {
		e.IOBlock(blk, func() {
			e.IOBlock(blk, func() {})
		})
		e.Done()
	})
	if err := Analyze(c); err == nil {
		t.Error("expected error for recursive block")
	}
}

// TestAnalysisRunsSiteBodies checks that variable accesses inside I/O
// functions are recorded (the recorder executes site bodies).
func TestAnalysisRunsSiteBodies(t *testing.T) {
	a := task.NewApp("sitebody")
	v := a.NVInt("insite")
	s := a.IO("s", task.Single, true, func(e task.Exec, _ int) uint16 {
		return e.Load(v)
	})
	a.AddTask("t", func(e task.Exec) {
		e.CallIO(s)
		e.Done()
	})
	if err := Analyze(a); err != nil {
		t.Fatal(err)
	}
	m := a.Tasks[0].Meta
	if len(m.Reads) != 1 || m.Reads[0] != v {
		t.Error("read inside I/O function not recorded")
	}
}

// TestProtectDMADests: a Single DMA whose destination overlaps a range an
// earlier region privatized must have that destination privatized in its
// completion region (the Figure 6 rule) — and a destination untouched by
// earlier regions must NOT be (the common write-back pattern stays cheap).
func TestProtectDMADests(t *testing.T) {
	a := task.NewApp("protect")
	src := a.NVBuf("src", 4)
	dst := a.NVBuf("dst", 4)
	clean := a.NVBuf("clean", 4)
	d1 := a.DMA("clobbered")
	d2 := a.DMA("untouched")
	a.AddTask("t", func(e task.Exec) {
		_ = e.Load(dst) // region 0 privatizes dst[0] (read stability)
		e.DMACopy(d1, task.VarLoc(src, 0), task.VarLoc(dst, 0), 4)
		e.Compute(100)
		e.DMACopy(d2, task.VarLoc(src, 0), task.VarLoc(clean, 0), 4)
		e.Done()
	})
	if err := Analyze(a); err != nil {
		t.Fatal(err)
	}
	m := a.Tasks[0].Meta
	if len(m.Regions) != 3 {
		t.Fatalf("regions = %d", len(m.Regions))
	}
	// Region 1 (after d1) must privatize dst[0..3].
	found := false
	for _, rv := range m.Regions[1].Vars {
		if rv.Var == dst && rv.Lo == 0 && rv.Hi == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("region 1 must protect the clobber-prone DMA destination: %+v", m.Regions[1].Vars)
	}
	// Region 2 (after d2) must NOT privatize clean (nothing earlier
	// touches it).
	if hasVar(m.Regions[2], clean) {
		t.Errorf("region 2 needlessly privatizes an untouched destination: %+v", m.Regions[2].Vars)
	}
}

// TestAnalyzeThenLintRunsEachBodyOnce: the analysis run is the only
// place a task body runs in the front end — Lint reads the DMA calls it
// recorded instead of running the bodies again.
func TestAnalyzeThenLintRunsEachBodyOnce(t *testing.T) {
	a, _ := buildTestApp(t)
	runs := make([]int, len(a.Tasks))
	for _, tk := range a.Tasks {
		body, id := tk.Body, tk.ID
		tk.Body = func(e task.Exec) {
			runs[id]++
			body(e)
		}
	}
	if err := Analyze(a); err != nil {
		t.Fatal(err)
	}
	if _, err := Lint(a, LintConfig{PrivBufWords: 1}); err != nil {
		t.Fatal(err)
	}
	for i, n := range runs {
		if n != 1 {
			t.Errorf("task %q body ran %d times, want 1", a.Tasks[i].Name, n)
		}
	}
}

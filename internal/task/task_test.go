package task

import (
	"testing"
	"time"
)

func TestSemanticStrings(t *testing.T) {
	if Always.String() != "Always" || Single.String() != "Single" || Timely.String() != "Timely" {
		t.Error("semantic names wrong")
	}
	if Semantic(99).String() != "Semantic(99)" {
		t.Error("unknown semantic formatting")
	}
}

func TestDMAKindStrings(t *testing.T) {
	if DMAToNonVolatile.String() != "Single" ||
		DMANonVolatileToVolatile.String() != "Private" ||
		DMAVolatileToVolatile.String() != "Always" {
		t.Error("DMA kind names must match the paper's annotations")
	}
}

func TestBuilderBasics(t *testing.T) {
	a := NewApp("test")
	v := a.NVInt("x")
	if v.Words != 1 || v.ID != 0 {
		t.Errorf("NVInt: %+v", v)
	}
	buf := a.NVBuf("buf", 16)
	if buf.Words != 16 || buf.ID != 1 {
		t.Errorf("NVBuf: %+v", buf)
	}
	c := a.NVConst("c", []uint16{1, 2, 3})
	if !c.Const || len(c.Init) != 3 || c.Words != 3 {
		t.Errorf("NVConst: %+v", c)
	}
	buf.WithInit([]uint16{9})
	if buf.Init[0] != 9 {
		t.Error("WithInit")
	}

	site := a.IO("s", Single, true, func(Exec, int) uint16 { return 0 })
	if site.Sem != Single || !site.Returns || site.Instances != 1 {
		t.Errorf("site: %+v", site)
	}
	ts := a.TimelyIO("t", 10*time.Millisecond, false, func(Exec, int) uint16 { return 0 })
	if ts.Sem != Timely || ts.Window != 10*time.Millisecond {
		t.Errorf("timely site: %+v", ts)
	}
	ts.Loop(5)
	if ts.Instances != 5 {
		t.Error("Loop")
	}
	ts.After(site)
	if len(ts.DependsOn) != 1 || ts.DependsOn[0] != site {
		t.Error("After")
	}

	blk := a.Block("b", Single)
	if blk.Sem != Single {
		t.Errorf("block: %+v", blk)
	}
	tb := a.TimelyBlock("tb", time.Millisecond)
	if tb.Sem != Timely || tb.Window != time.Millisecond {
		t.Errorf("timely block: %+v", tb)
	}

	d := a.DMA("d").Excluded().AfterIO(site)
	if !d.Exclude || len(d.DependsOn) != 1 {
		t.Errorf("dma: %+v", d)
	}

	t1 := a.AddTask("one", func(e Exec) { e.Done() })
	if a.Entry() != t1 {
		t.Error("first task must be the entry")
	}
	t2 := a.AddTask("two", func(e Exec) { e.Done() }).Touches(v)
	if len(t2.Hints) != 1 {
		t.Error("Touches")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("valid app rejected: %v", err)
	}
}

func TestBuilderPanics(t *testing.T) {
	a := NewApp("p")
	cases := []func(){
		func() { a.NVBuf("bad", 0) },
		func() { a.IO("x", Timely, false, nil) },
		func() { a.TimelyIO("x", 0, false, nil) },
		func() { a.Block("x", Timely) },
		func() { a.TimelyBlock("x", 0) },
		func() { a.IO("ok", Always, false, func(Exec, int) uint16 { return 0 }).Loop(0) },
		func() { (&NVVar{Name: "v", Words: 1}).WithInit([]uint16{1, 2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestValidateErrors(t *testing.T) {
	empty := NewApp("empty")
	if empty.Validate() == nil {
		t.Error("app without tasks must not validate")
	}
	noBody := NewApp("nobody")
	noBody.Tasks = append(noBody.Tasks, &Task{Name: "x", Meta: &TaskMeta{}})
	if noBody.Validate() == nil {
		t.Error("task without body must not validate")
	}
	noExec := NewApp("noexec")
	noExec.AddTask("t", func(e Exec) { e.Done() })
	noExec.Sites = append(noExec.Sites, &IOSite{Name: "s"})
	if noExec.Validate() == nil {
		t.Error("site without exec must not validate")
	}
}

// TestValidateFreshnessErrors pins the freshness-bound misuse surface: a
// bound is a specification on a consumed value, so it must be positive
// and the site must return one.
func TestValidateFreshnessErrors(t *testing.T) {
	exec := func(Exec, int) uint16 { return 0 }
	cases := []struct {
		name    string
		build   func(*App)
		wantErr string
	}{
		{
			name: "negative bound",
			build: func(a *App) {
				a.IO("sense", Always, true, exec).Fresh(-time.Millisecond)
			},
			wantErr: `task: I/O site "sense" has a negative freshness bound -1ms`,
		},
		{
			name: "bound on a site that returns nothing",
			build: func(a *App) {
				a.IO("fire", Always, false, exec).Fresh(time.Millisecond)
			},
			wantErr: `task: I/O site "fire" declares a freshness bound but returns no value`,
		},
		{
			name: "valid bound",
			build: func(a *App) {
				a.IO("sense", Always, true, exec).Fresh(time.Millisecond)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewApp("fresh")
			c.build(a)
			a.AddTask("t", func(e Exec) { e.Done() })
			err := a.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid app rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("misuse accepted")
			}
			if err.Error() != c.wantErr {
				t.Errorf("error = %q,\nwant    %q", err.Error(), c.wantErr)
			}
		})
	}
}

func TestLocHelpers(t *testing.T) {
	v := &NVVar{Name: "v", Words: 4}
	l := VarLoc(v, 2)
	if l.Var != v || l.Off != 2 {
		t.Errorf("VarLoc: %+v", l)
	}
	if l.String() != "v+2" {
		t.Errorf("VarLoc string: %q", l.String())
	}
	r := RawLoc(2, 7)
	if r.Var != nil || r.RawBank != 2 || r.RawWord != 7 {
		t.Errorf("RawLoc: %+v", r)
	}
}

func TestRegionVarWords(t *testing.T) {
	rv := RegionVar{Lo: 3, Hi: 7}
	if rv.Words() != 5 {
		t.Errorf("Words = %d", rv.Words())
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"easeio/internal/frontend"
	"easeio/internal/justdo"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/task"
)

// The differential safety property behind the whole paper: for programs
// whose I/O operations are deterministic, an EaseIO execution under ANY
// power-failure schedule must leave non-volatile memory exactly as a
// continuous-power execution would. Random task graphs — variables, CPU
// read-modify-writes, I/O sites of every semantic, I/O blocks, DMA chains
// through volatile LEA-RAM, loops — are generated from a seed and executed
// under swept failure schedules; any divergence is a consistency bug in
// regional privatization, DMA classification or the flag machinery.

// genOp is one step of a generated task body.
type genOp struct {
	kind  int // 0 compute, 1 load-store RMW, 2 callIO, 3 dma, 4 block, 5 loop site
	cyc   int64
	v     *task.NVVar
	idx   int
	site  *task.IOSite
	blk   *task.IOBlock
	inner []*task.IOSite
	d     *task.DMASite
	src   task.Loc
	dst   task.Loc
	words int
}

// genApp builds a random application. All I/O sites return constants, so
// re-execution is value-identical and continuous-power memory is the
// unique correct outcome.
func genApp(seed int64) *task.App {
	rng := rand.New(rand.NewSource(seed))
	a := task.NewApp(fmt.Sprintf("rand%d", seed))

	nVars := 2 + rng.Intn(3)
	vars := make([]*task.NVVar, nVars)
	for i := range vars {
		words := 1 + rng.Intn(8)
		init := make([]uint16, words)
		for w := range init {
			init[w] = uint16(rng.Intn(1000))
		}
		vars[i] = a.NVBuf(fmt.Sprintf("v%d", i), words).WithInit(init)
	}

	nTasks := 1 + rng.Intn(3)
	bodies := make([][]genOp, nTasks)
	var siteCount, dmaCount, blkCount int

	for ti := 0; ti < nTasks; ti++ {
		nOps := 3 + rng.Intn(6)
		leaFilled := false // whether LEA-RAM holds data fetched this task
		for oi := 0; oi < nOps; oi++ {
			op := genOp{kind: rng.Intn(6)}
			switch op.kind {
			case 0: // compute
				op.cyc = int64(100 + rng.Intn(1200))
			case 1: // read-modify-write (WAR pattern)
				op.v = vars[rng.Intn(nVars)]
				op.idx = rng.Intn(op.v.Words)
			case 2, 5: // call site (5 = loop site)
				sem := task.Semantic(rng.Intn(3))
				val := uint16(rng.Intn(500))
				lat := time.Duration(100+rng.Intn(900)) * time.Microsecond
				exec := func(e task.Exec, _ int) uint16 {
					e.Op(lat, 0)
					return val
				}
				var s *task.IOSite
				name := fmt.Sprintf("s%d", siteCount)
				siteCount++
				if sem == task.Timely {
					// A very long window: deterministic sites make expiry
					// re-execution value-identical anyway, but a long
					// window also exercises the skip path.
					s = a.TimelyIO(name, time.Second, true, exec)
				} else {
					s = a.IO(name, sem, true, exec)
				}
				if op.kind == 5 {
					s.Loop(2 + rng.Intn(3))
				}
				op.site = s
				op.v = vars[rng.Intn(nVars)]
				op.idx = rng.Intn(op.v.Words)
			case 3: // DMA
				op.d = a.DMA(fmt.Sprintf("d%d", dmaCount))
				dmaCount++
				switch rng.Intn(3) {
				case 0: // NV → NV (Single)
					src := vars[rng.Intn(nVars)]
					dst := vars[rng.Intn(nVars)]
					for dst == src {
						dst = vars[rng.Intn(nVars)]
					}
					op.words = 1 + rng.Intn(min(src.Words, dst.Words))
					op.src, op.dst = task.VarLoc(src, 0), task.VarLoc(dst, 0)
				case 1: // NV → LEA (Private)
					src := vars[rng.Intn(nVars)]
					op.words = 1 + rng.Intn(src.Words)
					op.src = task.VarLoc(src, 0)
					op.dst = task.RawLoc(uint8(mem.LEARAM), 0)
					leaFilled = true
				case 2: // LEA → NV (Single) — only meaningful after a fetch
					if !leaFilled {
						op.kind = 0
						op.cyc = 300
						break
					}
					dst := vars[rng.Intn(nVars)]
					op.words = 1 + rng.Intn(dst.Words)
					op.src = task.RawLoc(uint8(mem.LEARAM), 0)
					op.dst = task.VarLoc(dst, 0)
				}
			case 4: // I/O block with 1–2 member sites
				op.blk = a.Block(fmt.Sprintf("b%d", blkCount), task.Single)
				blkCount++
				n := 1 + rng.Intn(2)
				for k := 0; k < n; k++ {
					val := uint16(rng.Intn(500))
					lat := time.Duration(100+rng.Intn(500)) * time.Microsecond
					s := a.IO(fmt.Sprintf("s%d", siteCount), task.Semantic(rng.Intn(2)), true,
						func(e task.Exec, _ int) uint16 {
							e.Op(lat, 0)
							return val
						})
					siteCount++
					op.inner = append(op.inner, s)
				}
				op.v = vars[rng.Intn(nVars)]
			}
			bodies[ti] = append(bodies[ti], op)
		}
	}

	// Materialize tasks; each transitions to the next.
	tasks := make([]*task.Task, nTasks)
	for ti := 0; ti < nTasks; ti++ {
		ops := bodies[ti]
		idx := ti
		tasks[ti] = a.AddTask(fmt.Sprintf("t%d", ti), func(e task.Exec) {
			for _, op := range ops {
				switch op.kind {
				case 0:
					e.Compute(op.cyc)
				case 1:
					v := e.LoadAt(op.v, op.idx)
					e.StoreAt(op.v, op.idx, v*3+7)
				case 2:
					e.StoreAt(op.v, op.idx, e.CallIO(op.site))
				case 5:
					for i := 0; i < op.site.Instances; i++ {
						e.StoreAt(op.v, (op.idx+i)%op.v.Words, e.CallIOAt(op.site, i))
					}
				case 3:
					e.DMACopy(op.d, op.src, op.dst, op.words)
				case 4:
					var acc uint16
					e.IOBlock(op.blk, func() {
						for _, s := range op.inner {
							acc += e.CallIO(s)
						}
					})
					e.Store(op.v, acc)
				}
			}
			if idx+1 < nTasks {
				e.Next(tasks[idx+1])
			} else {
				e.Done()
			}
		})
	}
	return a
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// snapshotVars reads every variable's committed words through the runtime.
func snapshotVars(dev *kernel.Device, rt kernel.Hooks, a *task.App) map[string][]uint16 {
	out := map[string][]uint16{}
	for _, v := range a.Vars {
		words := make([]uint16, v.Words)
		for i := range words {
			words[i] = kernel.ReadVar(dev, rt, v, i)
		}
		out[v.Name] = words
	}
	return out
}

func TestRandomizedDifferentialConsistency(t *testing.T) {
	nApps := 40
	if testing.Short() {
		nApps = 8
	}
	for appSeed := int64(1); appSeed <= int64(nApps); appSeed++ {
		appSeed := appSeed
		t.Run(fmt.Sprintf("app%d", appSeed), func(t *testing.T) {
			// Golden: continuous power.
			golden := genApp(appSeed)
			if err := frontend.Analyze(golden); err != nil {
				t.Fatalf("analyze: %v", err)
			}
			grt := New()
			gsess := kernel.NewSession(grt, golden, power.Continuous{})
			if _, err := gsess.Run(1); err != nil {
				t.Fatalf("golden run: %v", err)
			}
			gdev := gsess.Device()
			want := snapshotVars(gdev, grt, golden)
			total := gdev.Clock.OnTime()

			// Sweep single- and double-failure schedules across the run.
			step := total / 12
			if step <= 0 {
				step = time.Millisecond
			}
			runtimes := map[string]func() kernel.Hooks{
				"easeio": func() kernel.Hooks { return New() },
				"justdo": func() kernel.Hooks { return justdo.New() },
			}
			for at := step; at < total; at += step {
				for _, schedule := range [][]time.Duration{
					{at},
					{at, at + step/2},
				} {
					for rtName, newRT := range runtimes {
						app := genApp(appSeed)
						if err := frontend.Analyze(app); err != nil {
							t.Fatal(err)
						}
						rt := newRT()
						sess := kernel.NewSession(rt, app, power.NewSchedule(schedule...))
						if _, err := sess.Run(1); err != nil {
							t.Fatalf("%s schedule %v: %v", rtName, schedule, err)
						}
						dev := sess.Device()
						got := snapshotVars(dev, rt, app)
						for name, w := range want {
							for i := range w {
								if got[name][i] != w[i] {
									t.Fatalf("%s schedule %v: %s[%d] = %d, want %d (consistency violation)",
										rtName, schedule, name, i, got[name][i], w[i])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestRandomizedTimeAccounting checks the ledger invariant on random
// workloads: committed bucket time equals powered-on time exactly.
func TestRandomizedTimeAccounting(t *testing.T) {
	for appSeed := int64(50); appSeed < 60; appSeed++ {
		app := genApp(appSeed)
		if err := frontend.Analyze(app); err != nil {
			t.Fatal(err)
		}
		sess := kernel.NewSession(New(), app, power.NewTimer(power.DefaultTimerConfig()))
		if _, err := sess.Run(appSeed); err != nil {
			t.Fatal(err)
		}
		dev := sess.Device()
		var sum time.Duration
		for _, w := range dev.Run.Work {
			sum += w.T
		}
		if sum != dev.Run.OnTime {
			t.Errorf("app %d: buckets %v != on-time %v", appSeed, sum, dev.Run.OnTime)
		}
	}
}

// The checker's built-in scenario app: the paper's Figure 6 running
// example (a WAR dependency through a Single-semantics DMA copy). It is
// fully deterministic — no sensors, no seeds — so every oracle applies to
// every word, and under EaseIO with every privatization region emptied
// (frontend.StripRegions) the checker must find the WAR inconsistency the
// paper describes. That seeded-bug detection is the checker's own
// end-to-end test.

package check

import (
	"easeio/internal/apps"
	"easeio/internal/frontend"
	"easeio/internal/task"
)

// Fig6Bench builds the Figure 6 scenario:
//
//	Task1:  z = b[0]
//	        DMA_copy(a[0] → b[0])      (Single)
//	        t = b[0]; a[0] = z
//
// With a = [100] and b = [200] the continuous-power truth is z=200,
// t=100, a=200, b=100, pinned by CheckOutput.
func Fig6Bench() (*apps.Bench, error) {
	a := task.NewApp("fig6")
	va := a.NVBuf("a", 1).WithInit([]uint16{100})
	vb := a.NVBuf("b", 1).WithInit([]uint16{200})
	vz := a.NVInt("z")
	vt := a.NVInt("t")
	d := a.DMA("d")
	var fin *task.Task
	a.AddTask("task1", func(e task.Exec) {
		z := e.Load(vb) // region 1: z = b[0]
		e.Compute(500)
		e.DMACopy(d, task.VarLoc(va, 0), task.VarLoc(vb, 0), 1)
		tt := e.Load(vb) // region 2: t = b[0]
		e.Store(va, z)   // region 2: a[0] = z
		e.Store(vz, z)
		e.Store(vt, tt)
		e.Compute(4000)
		e.Next(fin)
	})
	fin = a.AddTask("fin", func(e task.Exec) { e.Done() })
	a.CheckOutput = func(m task.CheckMem) bool {
		return m.Read(vz, 0) == 200 && m.Read(vt, 0) == 100 &&
			m.Read(va, 0) == 200 && m.Read(vb, 0) == 100
	}
	if err := frontend.Analyze(a); err != nil {
		return nil, err
	}
	return &apps.Bench{App: a}, nil
}

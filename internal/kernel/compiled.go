// Compiled kernel execution: op-bodied tasks whose program was frozen
// carry a per-task kernel (task.Kernel) with every blueprint lookup
// pre-resolved. The engine runs those kernels through the tight switch
// loop below — direct runtime-hook calls with no task.Exec interface
// dispatch, a stack register file, and fused load runs through the
// runtime's LoadRun hook. The executor makes the hook calls the
// interpreted Body would make (a LoadRun stands for its run of Loads and
// must behave exactly like them), so runs are byte-identical either
// way; dev.NoCompile forces the interpreter for differential tests.

package kernel

import (
	"easeio/internal/task"
)

// initCompiled installs the program's kernel table on a freshly reset
// context. Compilation is skipped entirely when the device opts out
// (NoCompile) or the app has no frozen program or no op-bodied tasks;
// the engine then dispatches every task through its interpreted Body.
func (c *Ctx) initCompiled(app *task.App) {
	c.compiled = nil
	if c.Dev.NoCompile {
		return
	}
	p := app.Program()
	if p == nil {
		return
	}
	c.compiled = p.CompiledKernels()
}

// kernelOf returns the compiled kernel to run for t, or nil when t must
// run interpreted.
func (c *Ctx) kernelOf(t *task.Task) *task.Kernel {
	if c.compiled == nil {
		return nil
	}
	return c.compiled[t.ID]
}

// runKernel executes one compiled task attempt. The register file lives
// on the context, not the stack: the block-recursion closure below makes
// a local file escape, which would cost one heap allocation per attempt.
// Attempts never nest, so one file per context is exact — it is zeroed
// here like a closure body's fresh locals.
func (c *Ctx) runKernel(k *task.Kernel) {
	c.kregs = [task.NumRegs]uint16{}
	c.execKOps(k.Ops, &c.kregs)
}

// execKOps is the compiled dispatch loop over one (sub-)span of resolved
// ops. Block bodies recurse with the enclosing register file, exactly
// like the interpreter.
func (c *Ctx) execKOps(ops []task.KOp, regs *[task.NumRegs]uint16) {
	rt := c.RT
	for i := 0; i < len(ops); i++ {
		op := &ops[i]
		switch op.Kind {
		case task.OpCompute:
			rt.Compute(c, op.A)
		case task.OpLoad:
			regs[op.R1] = rt.Load(c, op.Var, int(op.A))
		case task.OpStore:
			rt.Store(c, op.Var, int(op.A), regs[op.R1])
		case task.OpLoadSum:
			regs[op.R1] = rt.LoadRun(c, op.Var, int(op.A), op.B)
		case task.OpMovImm:
			regs[op.R1] = uint16(op.A)
		case task.OpAddImm:
			regs[op.R1] += uint16(op.A)
		case task.OpMulImm:
			regs[op.R1] *= uint16(op.A)
		case task.OpDivImm:
			regs[op.R1] /= uint16(op.A)
		case task.OpAddReg:
			regs[op.R1] += regs[op.R2]
		case task.OpMovReg:
			regs[op.R1] = regs[op.R2]
		case task.OpCallIO:
			c.noteFresh(op.Site)
			regs[op.R1] = rt.CallIO(c, op.Site, int(op.A))
		case task.OpBlockBegin:
			body := ops[i+1 : op.B]
			rt.IOBlock(c, op.Blk, func() { c.execKOps(body, regs) })
			i = op.B
		case task.OpDMACopy:
			rt.DMACopy(c, op.DMA, op.Src, op.Dst, int(op.A))
		case task.OpNext:
			c.transitioned = true
			rt.Transition(c, op.Next)
		case task.OpDone:
			c.transitioned = true
			rt.Transition(c, nil)
		}
	}
}

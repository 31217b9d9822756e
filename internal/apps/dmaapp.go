// The uni-task DMA benchmark: Single re-execution semantics (Fig 7a,
// Table 4 column "Single (DMA)").

package apps

import (
	"easeio/internal/mem"
	"easeio/internal/periph"
	"easeio/internal/task"
)

// DMAConfig sizes the Single-semantics DMA benchmark.
type DMAConfig struct {
	// Words is the size of the NVM→NVM block copy.
	Words int
	// InitCycles, PreCycles and PostCycles shape the compute around the
	// copy; PostCycles in particular sets how much of the task remains
	// exposed to power failures after the copy completes.
	InitCycles, PreCycles, PostCycles int64
	// FinishReads is how many destination words the final task checksums.
	FinishReads int
}

// DefaultDMAConfig produces a ~17 ms DMA task under continuous power —
// long relative to the [5 ms, 20 ms] emulated energy cycles, so baseline
// runtimes re-execute the copy several times per run (the Table 4 failure
// counts), while EaseIO's re-attempts shrink to the short compute tail
// once the copy's Single semantics commit.
func DefaultDMAConfig() DMAConfig {
	return DMAConfig{
		Words:       5000,
		InitCycles:  800,
		PreCycles:   2000,
		PostCycles:  4000,
		FinishReads: 96,
	}
}

// NewDMAApp builds the Single-semantics uni-task benchmark: 3 tasks, one
// I/O operation (the DMA copy), as in Table 3.
func NewDMAApp(cfg DMAConfig) (*Bench, error) {
	a := task.NewApp("dma")
	p := periph.StandardSet(0xd3a)

	pattern := Pattern(cfg.Words, 0xD17A)
	src := a.NVConst("src", pattern)
	dst := a.NVBuf("dst", cfg.Words)
	sum := a.NVInt("checksum")

	copyOp := a.DMA("copy")

	var tDMA, tFin *task.Task
	a.AddTask("init", func(e task.Exec) {
		e.Compute(cfg.InitCycles)
		e.Next(tDMA)
	})
	tDMA = a.AddTask("dma", func(e task.Exec) {
		e.Compute(cfg.PreCycles)
		e.DMACopy(copyOp, task.VarLoc(src, 0), task.VarLoc(dst, 0), cfg.Words)
		e.Compute(cfg.PostCycles)
		e.Next(tFin)
	})
	tFin = a.AddTask("finish", func(e task.Exec) {
		e.Store(sum, e.LoadSum(dst, 0, cfg.FinishReads))
		e.Done()
	})

	var want uint16
	for i := 0; i < cfg.FinishReads; i++ {
		want += pattern[i]
	}
	a.CheckOutput = func(m task.CheckMem) bool {
		return m.Equal(dst, 0, pattern) && m.Read(sum, 0) == want
	}
	return finalize(a, p)
}

// LEARawBank is re-exported for tests that build raw locations.
const LEARawBank = uint8(mem.LEARAM)

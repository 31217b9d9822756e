// The FIR filter benchmark (§5.4.1): three DMA transfers and four LEA
// calls with a WAR dependence through non-volatile memory — the input and
// the output share the same buffer, so re-executed fetch DMAs after the
// write-back DMA read corrupted data (Fig 10, Fig 11, Fig 12).

package apps

import (
	"easeio/internal/lea"
	"easeio/internal/mem"
	"easeio/internal/periph"
	"easeio/internal/task"
)

// FIR dimensions: 256 output samples from a 32-tap filter over a
// 287-sample input, processed as four 64-output LEA blocks — "the input
// signal is divided into four samples, and four LEA calls complete the
// filtering operation in a loop".
const (
	FIRTaps   = 32
	FIROut    = 256
	FIRIn     = FIROut + FIRTaps - 1
	FIRBlocks = 4
	firBlkOut = FIROut / FIRBlocks

	// LEA-RAM layout (word offsets).
	firLEAIn   = 0
	firLEACoef = 320
	firLEAOut  = 360
)

// FIRConfig parameterizes the FIR benchmark.
type FIRConfig struct {
	// ExcludeCoef applies the paper's Exclude annotation to the
	// coefficient-fetch DMA (constant data), producing the "EaseIO/Op"
	// configuration of Figures 10, 11 and 13. It is ignored by Alpaca
	// and InK, which have no privatization to exclude.
	ExcludeCoef bool
	// DelayLoopRadio replaces the radio transmission with a CPU delay
	// loop of equal duration, the simulation technique the paper itself
	// uses for transmit operations (§5.4.1). The Figure 13 harvested
	// sweep uses it so that the workload's power draw stays within a
	// WISP-scale capacitor's per-charge budget.
	DelayLoopRadio bool
	// Frames streams the filter over the buffer this many times (the
	// output of one pass is the input of the next — an in-place cascade).
	// 0 or 1 means a single pass. The Figure 13 sweep uses several frames
	// so the workload spans many capacitor charge cycles.
	Frames int
	// StatsCycles is post-filter computation inside the filter task; it
	// widens the window in which a power failure after the write-back DMA
	// corrupts baseline runtimes.
	StatsCycles int64
	// ReportCycles is computation after the radio send (same task): the
	// window in which baselines re-transmit but EaseIO's Single flag
	// skips.
	ReportCycles int64
	// InitCycles/PrepCycles/FinishCycles shape the remaining tasks.
	InitCycles, PrepCycles, FinishCycles int64
}

// DefaultFIRConfig mirrors the evaluation setup.
func DefaultFIRConfig() FIRConfig {
	return FIRConfig{
		StatsCycles:  1600,
		ReportCycles: 5000,
		InitCycles:   500,
		PrepCycles:   900,
		FinishCycles: 300,
	}
}

// NewFIRApp builds the FIR benchmark: 5 tasks, 2 I/O functions (LEA
// filter, radio send) plus 3 DMA sites, as in Table 3.
func NewFIRApp(cfg FIRConfig) (*Bench, error) {
	a := task.NewApp("fir")
	p := periph.StandardSet(0xf17)

	input := Pattern(FIRIn, 0xF1E)
	coefs := Coefficients(FIRTaps)

	frames := cfg.Frames
	if frames < 1 {
		frames = 1
	}

	// Input and output share this buffer (the WAR hazard).
	signal := a.NVBuf("signal", FIRIn).WithInit(input)
	coef := a.NVConst("coef", coefs)
	stats := a.NVBuf("stats", 2)
	frameCtr := a.NVInt("frame")

	leaSite := a.IO("FIR_LEA", task.Always, false, func(e task.Exec, idx int) uint16 {
		e.LEAFir(firLEAIn+idx*firBlkOut, firLEACoef, firLEAOut+idx*firBlkOut,
			firBlkOut+FIRTaps-1, FIRTaps)
		return 0
	}).Loop(FIRBlocks)
	sendSite := a.IO("Send", task.Single, false, func(e task.Exec, _ int) uint16 {
		if cfg.DelayLoopRadio {
			e.Compute(2500) // simulated transmitter (delay loop, §5.4.1)
		} else {
			p.Radio.Send(e, 2)
		}
		return 0
	})

	dIn := a.DMA("fetch_in")
	dCoef := a.DMA("fetch_coef")
	if cfg.ExcludeCoef {
		dCoef.Excluded()
	}
	dOut := a.DMA("writeback")

	var tPrep, tFIR, tReport, tFin *task.Task
	a.AddTask("init", func(e task.Exec) {
		e.Compute(cfg.InitCycles)
		e.Next(tPrep)
	})
	tPrep = a.AddTask("prep", func(e task.Exec) {
		e.Compute(cfg.PrepCycles) // windowing / gain setup
		e.Next(tFIR)
	})
	// One atomic task fetches, filters and writes back: LEA-RAM is
	// volatile, so splitting these across tasks could never survive a
	// power failure (the Samoyed/Ocelot "atomic region" structure).
	tFIR = a.AddTask("filter", func(e task.Exec) {
		e.DMACopy(dIn, task.VarLoc(signal, 0), task.RawLoc(uint8(mem.LEARAM), firLEAIn), FIRIn)
		e.DMACopy(dCoef, task.VarLoc(coef, 0), task.RawLoc(uint8(mem.LEARAM), firLEACoef), FIRTaps)
		for i := 0; i < FIRBlocks; i++ {
			e.CallIOAt(leaSite, i)
		}
		e.DMACopy(dOut, task.RawLoc(uint8(mem.LEARAM), firLEAOut), task.VarLoc(signal, 0), FIROut)
		// Post-processing over the freshly written output.
		acc := e.LoadSum(signal, 0, 48)
		e.Store(stats, acc)
		e.StoreAt(stats, 1, acc>>1)
		e.Compute(cfg.StatsCycles)
		f := e.Load(frameCtr) + 1
		e.Store(frameCtr, f)
		if int(f) < frames {
			e.Next(tFIR) // stream the next frame through the same task
			return
		}
		e.Next(tReport)
	})
	tReport = a.AddTask("report", func(e task.Exec) {
		e.CallIO(sendSite)
		e.Compute(cfg.ReportCycles)
		e.Next(tFin)
	})
	tFin = a.AddTask("finish", func(e task.Exec) {
		e.Compute(cfg.FinishCycles)
		e.Done()
	})

	// Golden result: the in-place cascade over all frames.
	sig := Samples(input)
	for f := 0; f < frames; f++ {
		out := lea.FirRef(sig, Samples(coefs))
		copy(sig[:FIROut], out)
	}
	want := sig[:FIROut]
	var wantAcc uint16
	for i := 0; i < 48; i++ {
		wantAcc += uint16(want[i])
	}
	a.CheckOutput = func(m task.CheckMem) bool {
		for i := 0; i < FIROut; i++ {
			if int16(m.Read(signal, i)) != want[i] {
				return false
			}
		}
		return m.Read(stats, 0) == wantAcc && m.Read(stats, 1) == wantAcc>>1
	}
	return finalize(a, p)
}

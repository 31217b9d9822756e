// The DNN weather-classification application (§5.4.1, Figure 9): eleven
// tasks spanning sensing (an I/O block combining Timely and Always
// semantics), image capture, a five-layer DNN driven by DMA + LEA, and a
// radio transmission. The DNN's layer buffer can be single- or
// double-buffered (Table 5): with a single buffer, every layer's
// write-back DMA overwrites its own input — safe under EaseIO's regional
// privatization, broken under Alpaca and InK.

package apps

import (
	"time"

	"easeio/internal/lea"
	"easeio/internal/mem"
	"easeio/internal/periph"
	"easeio/internal/task"
)

// DNN dimensions.
const (
	WeatherImg     = 256 // 16×16 capture
	WeatherTaps    = 16  // 1×4×4 convolution kernels, flattened
	WeatherClasses = 4

	weatherL1 = WeatherImg - WeatherTaps + 1 // conv1/relu output: 241
	weatherL2 = weatherL1 - WeatherTaps + 1  // conv2 output: 226

	// LEA-RAM layout (word offsets).
	weatherLEAIn  = 0
	weatherLEAW   = 700
	weatherLEAOut = 1700
)

// BufferMode selects the DNN layer-buffer strategy of Table 5.
type BufferMode int

const (
	// SingleBuffer uses one layer buffer for input and output of every
	// layer (WAR through DMA).
	SingleBuffer BufferMode = iota
	// DoubleBuffer alternates between two layer buffers, the conventional
	// workaround the paper's Table 5 compares against.
	DoubleBuffer
)

// String names the mode as Table 5 does.
func (m BufferMode) String() string {
	if m == DoubleBuffer {
		return "double"
	}
	return "single"
}

// WeatherConfig parameterizes the weather classifier.
type WeatherConfig struct {
	// Buffers selects single- or double-buffered DNN layers.
	Buffers BufferMode
	// ExcludeWeights applies Exclude to the constant weight-fetch DMAs
	// (the EaseIO/Op configuration).
	ExcludeWeights bool
	// SenseWindow is the Timely window of the temperature reading inside
	// the sensing I/O block.
	SenseWindow time.Duration
	// DelayLoopSend replaces the radio with a CPU delay loop, the
	// simulation technique the paper uses for its transmitter (§5.4.1).
	DelayLoopSend bool
	// CalibCycles, PostCaptureCycles and LogCycles are the computation
	// that follows the sensing block, the image capture and the radio
	// send inside their tasks. They set up the paper's core trade-off: a
	// power failure in this tail makes baseline runtimes repeat the
	// expensive I/O, while EaseIO's semantics skip it.
	CalibCycles, PostCaptureCycles, LogCycles int64
}

// DefaultWeatherConfig mirrors the evaluation setup.
func DefaultWeatherConfig() WeatherConfig {
	return WeatherConfig{
		Buffers:           SingleBuffer,
		SenseWindow:       10 * time.Millisecond,
		CalibCycles:       3000,
		PostCaptureCycles: 4500,
		LogCycles:         3500,
	}
}

// weatherWeights builds the constant DNN parameters.
func weatherWeights() (wc1, wc2, wfc []uint16) {
	wc1 = Coefficients(WeatherTaps)
	wc2 = make([]uint16, WeatherTaps)
	for i, c := range Coefficients(WeatherTaps) {
		// A shifted variant so the two conv layers differ.
		wc2[i] = uint16(int16(int32(int16(c)) * 3 / 4))
	}
	wfc = make([]uint16, WeatherClasses*weatherL2)
	for k := 0; k < WeatherClasses; k++ {
		for j := 0; j < weatherL2; j++ {
			h := hash(uint64(k)<<32 | uint64(j))
			wfc[k*weatherL2+j] = uint16(int16(int32(h%2001) - 1000))
		}
	}
	return wc1, wc2, wfc
}

// WeatherGolden computes the continuous-power DNN result for the standard
// image: the per-class scores and the argmax class.
func WeatherGolden() (scores [WeatherClasses]uint16, class uint16) {
	img := Samples(Pattern(WeatherImg, 0x1333))
	wc1, wc2, wfc := weatherWeights()
	l1 := lea.ReluRef(lea.FirRef(img, Samples(wc1)))
	l2 := lea.FirRef(l1, Samples(wc2))
	best, bestV := 0, int32(-1<<31)
	for k := 0; k < WeatherClasses; k++ {
		w := Samples(wfc[k*weatherL2 : (k+1)*weatherL2])
		s := lea.DotRef(l2, w) >> 15
		if s > 32767 {
			s = 32767
		}
		if s < -32768 {
			s = -32768
		}
		scores[k] = uint16(int16(s))
		if s > bestV {
			bestV, best = s, k
		}
	}
	return scores, uint16(best)
}

// NewWeatherApp builds the 11-task weather classifier.
func NewWeatherApp(cfg WeatherConfig) (*Bench, error) {
	a := task.NewApp("weather")
	p := periph.StandardSet(0x3a7)

	imgInit := Pattern(WeatherImg, 0x1333)
	wc1Init, wc2Init, wfcInit := weatherWeights()

	img := a.NVConst("img", imgInit)
	wc1 := a.NVConst("wc1", wc1Init)
	wc2 := a.NVConst("wc2", wc2Init)
	wfc := a.NVConst("wfc", wfcInit)
	bufA := a.NVBuf("layerA", WeatherImg)
	bufB := a.NVBuf("layerB", WeatherImg)
	vtemp := a.NVInt("temp").Sensed()
	vhumd := a.NVInt("humd").Sensed()
	scores := a.NVBuf("scores", WeatherClasses)
	class := a.NVInt("class")

	// Layer buffer chain: with a single buffer every stage reads and
	// writes bufA; with double buffering the stages alternate A/B.
	in1, out1 := bufA, bufA
	in2, out2 := bufA, bufA
	in3, out3 := bufA, bufA
	in4 := bufA
	if cfg.Buffers == DoubleBuffer {
		out1 = bufB            // conv1: A → B
		in2, out2 = bufB, bufA // relu: B → A
		in3, out3 = bufA, bufB // conv2: A → B
		in4 = bufB             // fc reads B
	}

	// I/O sites.
	tempSite := a.TimelyIO("Temp", cfg.SenseWindow, true, func(e task.Exec, _ int) uint16 {
		return p.Temp.Sample(e)
	})
	humdSite := a.IO("Humd", task.Always, true, func(e task.Exec, _ int) uint16 {
		return p.Humidity.Sample(e)
	})
	capSite := a.IO("Capture", task.Single, false, func(e task.Exec, _ int) uint16 {
		p.Camera.Capture(e)
		return 0
	})
	conv1Site := a.IO("Conv1_LEA", task.Always, false, func(e task.Exec, _ int) uint16 {
		e.LEAFir(weatherLEAIn, weatherLEAW, weatherLEAOut, WeatherImg, WeatherTaps)
		return 0
	})
	conv2Site := a.IO("Conv2_LEA", task.Always, false, func(e task.Exec, _ int) uint16 {
		e.LEAFir(weatherLEAIn, weatherLEAW, weatherLEAOut, weatherL1, WeatherTaps)
		return 0
	})
	sendSite := a.IO("Send", task.Single, false, func(e task.Exec, _ int) uint16 {
		if cfg.DelayLoopSend {
			e.Compute(2750) // simulated transmitter (delay loop, §5.4.1)
		} else {
			p.Radio.Send(e, 3)
		}
		return 0
	}).After(tempSite, humdSite)

	senseBlk := a.Block("sense_blk", task.Single)

	// DMA sites.
	dPrep := a.DMA("img_to_layer")
	dIn1, dW1, dOut1 := a.DMA("conv1_in"), a.DMA("conv1_w"), a.DMA("conv1_out")
	dIn2, dOut2 := a.DMA("relu_in"), a.DMA("relu_out")
	dIn3, dW3, dOut3 := a.DMA("conv2_in"), a.DMA("conv2_w"), a.DMA("conv2_out")
	dIn4, dW4 := a.DMA("fc_in"), a.DMA("fc_w")
	if cfg.ExcludeWeights {
		dW1.Excluded()
		dW3.Excluded()
		dW4.Excluded()
	}

	lraw := func(off int) task.Loc { return task.RawLoc(uint8(mem.LEARAM), off) }

	var tSense, tCapture, tPrep, tConv1, tRelu, tConv2, tFC, tInfer, tSend, tDone *task.Task
	a.AddTask("init", func(e task.Exec) {
		e.Compute(500)
		e.Next(tSense)
	})
	tSense = a.AddTask("sense", func(e task.Exec) {
		var tv, hv uint16
		e.IOBlock(senseBlk, func() {
			tv = e.CallIO(tempSite)
			hv = e.CallIO(humdSite)
		})
		e.Compute(cfg.CalibCycles) // calibration over the fresh readings
		e.Store(vtemp, tv)
		e.Store(vhumd, hv)
		e.Next(tCapture)
	})
	tCapture = a.AddTask("capture", func(e task.Exec) {
		e.CallIO(capSite)
		e.Compute(cfg.PostCaptureCycles) // exposure check / cropping
		e.Next(tPrep)
	})
	tPrep = a.AddTask("prep", func(e task.Exec) {
		e.DMACopy(dPrep, task.VarLoc(img, 0), task.VarLoc(in1, 0), WeatherImg)
		e.Next(tConv1)
	})
	tConv1 = a.AddTask("conv1", func(e task.Exec) {
		e.DMACopy(dIn1, task.VarLoc(in1, 0), lraw(weatherLEAIn), WeatherImg)
		e.DMACopy(dW1, task.VarLoc(wc1, 0), lraw(weatherLEAW), WeatherTaps)
		e.CallIO(conv1Site)
		e.DMACopy(dOut1, lraw(weatherLEAOut), task.VarLoc(out1, 0), weatherL1)
		e.Next(tRelu)
	})
	// The standalone ReLU pass (layer 2 of the five-layer DNN) keeps the
	// data movement pattern of TAILS: fetch, transform, write back.
	tRelu = a.AddTask("relu", func(e task.Exec) {
		e.DMACopy(dIn2, task.VarLoc(in2, 0), lraw(weatherLEAIn), weatherL1)
		e.Compute(200)
		e.LEARelu(weatherLEAIn, weatherL1)
		e.DMACopy(dOut2, lraw(weatherLEAIn), task.VarLoc(out2, 0), weatherL1)
		e.Next(tConv2)
	})
	tConv2 = a.AddTask("conv2", func(e task.Exec) {
		e.DMACopy(dIn3, task.VarLoc(in3, 0), lraw(weatherLEAIn), weatherL1)
		e.DMACopy(dW3, task.VarLoc(wc2, 0), lraw(weatherLEAW), WeatherTaps)
		e.CallIO(conv2Site)
		e.DMACopy(dOut3, lraw(weatherLEAOut), task.VarLoc(out3, 0), weatherL2)
		e.Next(tFC)
	})
	tFC = a.AddTask("fc", func(e task.Exec) {
		e.DMACopy(dIn4, task.VarLoc(in4, 0), lraw(weatherLEAIn), weatherL2)
		e.DMACopy(dW4, task.VarLoc(wfc, 0), lraw(weatherLEAW), WeatherClasses*weatherL2)
		for k := 0; k < WeatherClasses; k++ {
			s := e.LEADot(weatherLEAIn, weatherLEAW+k*weatherL2, weatherL2) >> 15
			if s > 32767 {
				s = 32767
			}
			if s < -32768 {
				s = -32768
			}
			e.StoreAt(scores, k, uint16(int16(s)))
		}
		e.Next(tInfer)
	})
	tInfer = a.AddTask("infer", func(e task.Exec) {
		best, bestV := 0, int32(-1<<31)
		for k := 0; k < WeatherClasses; k++ {
			v := int32(int16(e.LoadAt(scores, k)))
			if v > bestV {
				bestV, best = v, k
			}
		}
		e.Store(class, uint16(best))
		e.Compute(300)
		e.Next(tSend)
	})
	tSend = a.AddTask("send", func(e task.Exec) {
		e.CallIO(sendSite)
		e.Compute(cfg.LogCycles) // transmission log bookkeeping
		e.Next(tDone)
	})
	tDone = a.AddTask("done", func(e task.Exec) {
		e.Compute(200)
		e.Done()
	})

	wantScores, wantClass := WeatherGolden()
	a.CheckOutput = func(m task.CheckMem) bool {
		for k := 0; k < WeatherClasses; k++ {
			if m.Read(scores, k) != wantScores[k] {
				return false
			}
		}
		return m.Read(class, 0) == wantClass
	}
	return finalize(a, p)
}

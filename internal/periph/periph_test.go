package periph

import (
	"testing"
	"time"

	"easeio/internal/task"
	"easeio/internal/units"
)

// fakeExec is the environment surface the peripheral models use: Op
// charges accumulate and advance the clock Now reads. Any other Exec
// method panics on the nil embedded interface.
type fakeExec struct {
	task.Exec
	clock         time.Duration
	chargedTime   time.Duration
	chargedEnergy units.Energy
}

func (f *fakeExec) Op(dt time.Duration, e units.Energy) {
	f.chargedTime += dt
	f.chargedEnergy += e
	f.clock += dt
}

func (f *fakeExec) Now() time.Duration { return f.clock }

func TestProcessDeterminism(t *testing.T) {
	p := Process{Base: 20, Amp: 10, Period: 100 * time.Millisecond,
		NoiseAmp: 3, NoiseQuantum: 5 * time.Millisecond, Seed: 0x1234}
	for _, at := range []time.Duration{0, time.Millisecond, 42 * time.Millisecond} {
		if p.At(at) != p.At(at) {
			t.Fatalf("process not deterministic at %v", at)
		}
	}
}

func TestProcessDrifts(t *testing.T) {
	p := Process{Base: 20, Amp: 10, Period: 100 * time.Millisecond}
	// A drifting process must take different values across a period.
	seen := map[int32]bool{}
	for at := time.Duration(0); at < 100*time.Millisecond; at += 5 * time.Millisecond {
		seen[p.At(at)] = true
	}
	if len(seen) < 5 {
		t.Errorf("only %d distinct values over a period", len(seen))
	}
	// And stay within Base ± Amp.
	for at := time.Duration(0); at < 200*time.Millisecond; at += time.Millisecond {
		v := p.At(at)
		if v < 20-10 || v > 20+10 {
			t.Fatalf("value %d outside drift envelope at %v", v, at)
		}
	}
}

func TestProcessNoiseBounded(t *testing.T) {
	p := Process{Base: 0, NoiseAmp: 4, NoiseQuantum: time.Millisecond, Seed: 9}
	for at := time.Duration(0); at < 50*time.Millisecond; at += 500 * time.Microsecond {
		v := p.At(at)
		if v < -4 || v > 4 {
			t.Fatalf("noise %d outside ±4 at %v", v, at)
		}
	}
}

func TestProcessNoiseCorrelationQuantum(t *testing.T) {
	p := Process{Base: 0, NoiseAmp: 100, NoiseQuantum: 10 * time.Millisecond, Seed: 5}
	// Two reads within one quantum see the same noise sample.
	if p.At(time.Millisecond) != p.At(2*time.Millisecond) {
		t.Error("noise changed within one quantum")
	}
}

func TestSensorSampleChargesAndReads(t *testing.T) {
	s := StandardSet(1)
	stub := &fakeExec{}
	v := s.Temp.Sample(stub)
	if stub.chargedTime != s.Temp.Latency {
		t.Errorf("charged %v, want %v", stub.chargedTime, s.Temp.Latency)
	}
	if stub.chargedEnergy != s.Temp.Energy {
		t.Errorf("charged %v, want %v", stub.chargedEnergy, s.Temp.Energy)
	}
	// Value observed at completion time, not call time.
	want := uint16(s.Temp.Proc.At(s.Temp.Latency))
	if v != want {
		t.Errorf("sample = %d, want %d", v, want)
	}
}

func TestSensorStalenessMatters(t *testing.T) {
	s := StandardSet(1)
	a := &fakeExec{}
	v1 := s.Temp.Sample(a)
	b := &fakeExec{clock: 500 * time.Millisecond}
	v2 := s.Temp.Sample(b)
	if v1 == v2 {
		t.Skip("drift coincided; acceptable but rare") // values normally differ
	}
}

func TestRadioSend(t *testing.T) {
	s := StandardSet(1)
	stub := &fakeExec{}
	s.Radio.Send(stub, 4)
	wantT := s.Radio.BaseLatency + 4*s.Radio.PerWord
	if stub.chargedTime != wantT {
		t.Errorf("send time %v, want %v", stub.chargedTime, wantT)
	}
	wantE := s.Radio.BaseEnergy + 4*s.Radio.PerWordEnergy
	if stub.chargedEnergy != wantE {
		t.Errorf("send energy %v, want %v", stub.chargedEnergy, wantE)
	}
}

func TestCameraCapture(t *testing.T) {
	s := StandardSet(1)
	stub := &fakeExec{}
	s.Camera.Capture(stub)
	if stub.chargedTime != s.Camera.Latency {
		t.Errorf("capture time %v", stub.chargedTime)
	}
}

func TestStandardSetSeeding(t *testing.T) {
	a, b := StandardSet(1), StandardSet(2)
	// Different seeds decorrelate the noise processes.
	same := true
	for at := time.Duration(0); at < 100*time.Millisecond; at += 7 * time.Millisecond {
		if a.Temp.Proc.At(at) != b.Temp.Proc.At(at) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical temperature traces")
	}
	if a.Temp.Energy <= 0 || a.Radio.BaseEnergy <= 0 || a.Camera.Energy <= 0 {
		t.Error("peripheral energies must be positive")
	}
	var _ units.Energy = a.Temp.Energy
}

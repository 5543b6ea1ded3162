package dsp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLowPassFIRPassesAndStops(t *testing.T) {
	fs := 600e3
	lp := LowPassFIR(60e3, fs, 101, Hamming)

	pass := Tone(4096, 20e3, fs, 0)
	stop := Tone(4096, 200e3, fs, 0)

	pOut := lp.Filter(pass)
	sOut := lp.Filter(stop)

	// Measure in the steady-state middle to avoid edge transients.
	mid := func(x []complex128) []complex128 { return x[1000:3000] }
	pGain := Power(mid(pOut))
	sGain := Power(mid(sOut))
	if pGain < 0.9 {
		t.Fatalf("passband gain = %g, want ~1", pGain)
	}
	if DB(sGain) > -40 {
		t.Fatalf("stopband leakage = %g dB, want < -40", DB(sGain))
	}
}

func TestBandPassFIRCentersCorrectly(t *testing.T) {
	fs := 600e3
	bp := BandPassFIR(-50e3, 30e3, fs, 129, Hamming)

	in := Tone(4096, -50e3, fs, 0)
	out := bp.Filter(in)
	if g := Power(out[1000:3000]); g < 0.9 {
		t.Fatalf("gain at -50 kHz = %g, want ~1", g)
	}

	far := Tone(4096, 100e3, fs, 0)
	out = bp.Filter(far)
	if g := DB(Power(out[1000:3000])); g > -35 {
		t.Fatalf("leakage at +100 kHz = %g dB, want < -35", g)
	}
}

// Filtering is linear: F(ax+y) = aF(x)+F(y).
func TestFIRLinearityProperty(t *testing.T) {
	fir := LowPassFIR(100e3, 600e3, 31, Hann)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64 + r.Intn(128)
		a := complex(r.NormFloat64(), r.NormFloat64())
		x := make([]complex128, n)
		y := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		mix := make([]complex128, n)
		for i := range mix {
			mix[i] = a*x[i] + y[i]
		}
		fm := fir.Filter(mix)
		fx := fir.Filter(x)
		fy := fir.Filter(y)
		for i := range fm {
			if !cAlmostEqual(fm[i], a*fx[i]+fy[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFIRPanicsOnBadCutoff(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cutoff beyond Nyquist should panic")
		}
	}()
	LowPassFIR(400e3, 600e3, 33, Hann)
}

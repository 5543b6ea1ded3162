package dsp

import (
	"math/rand"
	"testing"
)

func TestPSDLocatesTone(t *testing.T) {
	fs := 600e3
	freq := 50e3
	x := Tone(8192, freq, fs, 0)
	psd := PSD(x, 256, Hann)
	freqs := PSDFrequencies(256, fs)
	peak := PeakIndex(psd)
	got := freqs[peak]
	binW := fs / 256
	if got < freq-binW || got > freq+binW {
		t.Fatalf("PSD peak at %g Hz, want within one bin of %g", got, freq)
	}
}

func TestPSDTotalPowerMatchesSignalPower(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]complex128, 16384)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	sigP := Power(x)
	psd := PSD(x, 512, Rectangular)
	var total float64
	for _, p := range psd {
		total += p
	}
	// With rectangular window and the chosen normalization the PSD bins sum
	// to the mean sample power.
	if ratio := total / sigP; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("PSD total/signal power = %g, want ~1", ratio)
	}
}

func TestBandPower(t *testing.T) {
	fs := 600e3
	x := Tone(8192, -50e3, fs, 0)
	psd := PSD(x, 256, Hann)
	in := BandPower(psd, fs, -60e3, -40e3)
	out := BandPower(psd, fs, 40e3, 60e3)
	if in < 0.5 {
		t.Fatalf("in-band power = %g, want most of the unit tone", in)
	}
	if out > 0.01*in {
		t.Fatalf("out-of-band power = %g, want << in-band %g", out, in)
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	fs := 1000.0
	n := 128
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// Bin 10 of an n-point FFT is frequency 10*fs/n.
	g := Goertzel(x, 10*fs/float64(n), fs)
	y := Clone(x)
	FFT(y)
	if !cAlmostEqual(g, y[10], 1e-6) {
		t.Fatalf("Goertzel = %v, FFT bin = %v", g, y[10])
	}
}

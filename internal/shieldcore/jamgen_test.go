package shieldcore

import (
	"math"
	"slices"
	"testing"

	"heartshield/internal/dsp"
	"heartshield/internal/modem"
	"heartshield/internal/stats"
)

func TestJamGeneratorUnitPower(t *testing.T) {
	for _, shape := range []JamShape{ShapedJam, FlatJam} {
		g := NewJamGenerator(shape, modem.DefaultFSK, stats.NewRNG(1))
		x := g.Generate(make([]complex128, 50000))
		p := dsp.Power(x)
		if math.Abs(p-1) > 0.05 {
			t.Fatalf("%v jam power = %g, want ~1", shape, p)
		}
	}
}

func TestJamGeneratorFreshRandomness(t *testing.T) {
	g := NewJamGenerator(ShapedJam, modem.DefaultFSK, stats.NewRNG(2))
	a := g.Generate(make([]complex128, 1024))
	b := g.Generate(make([]complex128, 1024))
	// Normalized correlation between independent jams must be tiny.
	num := dsp.Dot(a, b)
	rho := (real(num)*real(num) + imag(num)*imag(num)) / (dsp.Energy(a) * dsp.Energy(b))
	if rho > 0.05 {
		t.Fatalf("successive jams correlate: ρ² = %g", rho)
	}
}

func TestShapedProfileMatchesFSK(t *testing.T) {
	// Fig. 5: the shaped jam concentrates power where the FSK tones are.
	g := NewJamGenerator(ShapedJam, modem.DefaultFSK, stats.NewRNG(3))
	x := g.Generate(make([]complex128, 1<<16))
	psd := dsp.PSD(x, 256, dsp.Hann)
	fs := modem.DefaultFSK.SampleRate
	nearTones := dsp.BandPower(psd, fs, -75e3, -25e3) + dsp.BandPower(psd, fs, 25e3, 75e3)
	total := dsp.BandPower(psd, fs, -fs/2, fs/2)
	if frac := nearTones / total; frac < 0.7 {
		t.Fatalf("shaped jam tone-band fraction = %g, want > 0.7", frac)
	}
}

func TestFlatProfileUniformInChannel(t *testing.T) {
	g := NewJamGenerator(FlatJam, modem.DefaultFSK, stats.NewRNG(4))
	x := g.Generate(make([]complex128, 1<<16))
	psd := dsp.PSD(x, 256, dsp.Hann)
	fs := modem.DefaultFSK.SampleRate
	// Compare power in two disjoint in-channel bands: a flat profile puts
	// (nearly) equal power in equal bandwidths.
	a := dsp.BandPower(psd, fs, -140e3, -70e3)
	b := dsp.BandPower(psd, fs, 10e3, 80e3)
	if ratio := a / b; ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("flat jam band ratio = %g, want ~1", ratio)
	}
	// And almost nothing outside the 300 kHz channel.
	out := dsp.BandPower(psd, fs, 170e3, fs/2)
	if out > 0.05*(a+b) {
		t.Fatalf("flat jam out-of-channel power = %g", out)
	}
}

func TestShapedBeatsFlatInToneBands(t *testing.T) {
	// The whole point of shaping (§6a): for the same total power, the
	// shaped jam puts several dB more energy into the decision-relevant
	// tone bands.
	fs := modem.DefaultFSK.SampleRate
	toneBand := func(shape JamShape, seed int64) float64 {
		g := NewJamGenerator(shape, modem.DefaultFSK, stats.NewRNG(seed))
		x := g.Generate(make([]complex128, 1<<16))
		psd := dsp.PSD(x, 256, dsp.Hann)
		return dsp.BandPower(psd, fs, -62e3, -38e3) + dsp.BandPower(psd, fs, 38e3, 62e3)
	}
	shaped := toneBand(ShapedJam, 5)
	flat := toneBand(FlatJam, 6)
	if gain := dsp.DB(shaped / flat); gain < 3 {
		t.Fatalf("shaped-vs-flat tone-band gain = %g dB, want > 3", gain)
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	g := NewJamGenerator(ShapedJam, modem.DefaultFSK, stats.NewRNG(7))
	if out := g.Generate(nil); len(out) != 0 {
		t.Fatal("Generate(nil) should be empty")
	}
	if out := g.Generate(make([]complex128, 10)); len(out) != 10 {
		t.Fatalf("Generate into 10 samples: length %d", len(out))
	}
	// A partial last block draws a whole one: its samples are the head of
	// the whole block the same stream yields, and the stream goes on where
	// that block leaves it.
	a := NewJamGenerator(ShapedJam, modem.DefaultFSK, stats.NewRNG(8))
	b := NewJamGenerator(ShapedJam, modem.DefaultFSK, stats.NewRNG(8))
	for _, n := range []int{300, 10} {
		x := a.Generate(make([]complex128, n))
		y := b.Generate(make([]complex128, (n+jamFFTSize-1)/jamFFTSize*jamFFTSize))
		if !slices.Equal(x, y[:n]) {
			t.Fatalf("Generate into %d samples differs from the head of whole blocks", n)
		}
	}
	if g.Shape() != ShapedJam {
		t.Fatal("Shape accessor")
	}
	if len(g.Profile()) != jamFFTSize {
		t.Fatal("Profile length")
	}
}

func TestJamShapeString(t *testing.T) {
	if ShapedJam.String() != "shaped" || FlatJam.String() != "flat" {
		t.Fatal("JamShape names")
	}
}

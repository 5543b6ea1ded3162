package modem

import (
	"math"
	"testing"
	"testing/quick"

	"heartshield/internal/dsp"
	"heartshield/internal/phy"
	"heartshield/internal/stats"
)

func testFrame() *phy.Frame {
	f := &phy.Frame{Command: phy.CmdInterrogate, Payload: []byte("ecg-segment-0001")}
	copy(f.Serial[:], "PZK600123H")
	return f
}

func TestFSKModulateUnitPower(t *testing.T) {
	m := NewFSK(DefaultFSK)
	x := m.Modulate(stats.NewRNG(1).Bits(500))
	if p := dsp.Power(x); math.Abs(p-1) > 1e-9 {
		t.Fatalf("modulated power = %g, want 1 (constant envelope)", p)
	}
}

func TestFSKCleanRoundTripProperty(t *testing.T) {
	m := NewFSK(DefaultFSK)
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		bits := g.Bits(64 + g.Intn(200))
		x := m.Modulate(bits)
		got := m.DemodBits(x, len(bits), 0)
		errs, n := phy.CountBitErrors(got, bits)
		return errs == 0 && n == len(bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFSKToneOrthogonality(t *testing.T) {
	// The two tone correlators must be orthogonal over a symbol: a pure
	// bit-0 symbol must produce (near) zero output in the bit-1 correlator.
	m := NewFSK(DefaultFSK)
	x := m.Modulate([]byte{0})
	c := DefaultFSK
	hi := dsp.Goertzel(x, c.Deviation, c.SampleRate)
	lo := dsp.Goertzel(x, -c.Deviation, c.SampleRate)
	if magSq(hi) > 0.01*magSq(lo) {
		t.Fatalf("tone leakage: |hi|²=%g vs |lo|²=%g", magSq(hi), magSq(lo))
	}
}

func TestFSKSpectrumConcentratedAtTones(t *testing.T) {
	// Fig. 4 of the paper: FSK energy is concentrated around ±50 kHz.
	m := NewFSK(DefaultFSK)
	bits := stats.NewRNG(2).Bits(4000)
	x := m.Modulate(bits)
	psd := dsp.PSD(x, 256, dsp.Hann)
	fs := DefaultFSK.SampleRate
	nearTones := dsp.BandPower(psd, fs, -75e3, -25e3) + dsp.BandPower(psd, fs, 25e3, 75e3)
	total := dsp.BandPower(psd, fs, -fs/2, fs/2)
	if frac := nearTones / total; frac < 0.8 {
		t.Fatalf("tone-band energy fraction = %g, want > 0.8", frac)
	}
}

func TestFSKSyncFindsOffset(t *testing.T) {
	m := NewFSK(DefaultFSK)
	f := testFrame()
	sig := m.ModulateFrame(f)
	g := stats.NewRNG(3)
	offset := 1234
	x := make([]complex128, offset+len(sig)+500)
	g.ComplexNormalVec(x, 1e-4) // -40 dB noise floor
	dsp.AddTo(x[offset:], sig)
	sr, ok := m.Sync(x, 0.5)
	if !ok {
		t.Fatal("sync failed on a clean frame")
	}
	if sr.Start != offset {
		t.Fatalf("sync start = %d, want %d", sr.Start, offset)
	}
	if sr.Metric < 0.9 {
		t.Fatalf("sync metric = %g, want ~1", sr.Metric)
	}
}

func TestFSKCFOEstimateAndCorrection(t *testing.T) {
	m := NewFSK(DefaultFSK)
	f := testFrame()
	sig := m.ModulateFrame(f)
	for _, cfo := range []float64{-2000, -500, 800, 2500} {
		x := dsp.Clone(sig)
		dsp.Mix(x, cfo, DefaultFSK.SampleRate, 0.7)
		got := m.EstimateCFO(x, 0)
		if math.Abs(got-cfo) > 150 {
			t.Fatalf("CFO estimate = %g, want %g ± 150", got, cfo)
		}
		rx := m.ReceiveFrameAt(x, 0)
		if rx.Frame == nil {
			t.Fatalf("frame with %g Hz CFO did not decode: %v", cfo, rx.Err)
		}
	}
}

func TestFSKReceiveFrameEndToEnd(t *testing.T) {
	m := NewFSK(DefaultFSK)
	f := testFrame()
	sig := m.ModulateFrame(f)
	g := stats.NewRNG(4)
	x := make([]complex128, 800+len(sig)+300)
	g.ComplexNormalVec(x, 1e-4)
	dsp.AddTo(x[800:], sig)
	dsp.Mix(x, 900, DefaultFSK.SampleRate, 0) // CFO

	rx, ok := m.ReceiveFrame(x, 0.5)
	if !ok {
		t.Fatal("no frame found")
	}
	if rx.Frame == nil {
		t.Fatalf("frame failed to parse: %v", rx.Err)
	}
	if rx.Frame.Command != f.Command || rx.Frame.Serial != f.Serial {
		t.Fatalf("decoded frame mismatch: %+v", rx.Frame)
	}
	if string(rx.Frame.Payload) != string(f.Payload) {
		t.Fatalf("payload mismatch: %q", rx.Frame.Payload)
	}
}

func TestFSKReceiveFrameRejectsNoise(t *testing.T) {
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(5)
	x := g.ComplexNormalVec(make([]complex128, 20000), 1)
	if _, ok := m.ReceiveFrame(x, 0.5); ok {
		t.Fatal("sync fired on pure noise")
	}
}

func TestFSKBERUnderAWGNFollowsTheory(t *testing.T) {
	// Noncoherent orthogonal BFSK: Pb = 0.5·exp(-Eb/2N0). Check we are
	// within a factor of ~2 of theory at a moderate SNR.
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(6)
	sps := DefaultFSK.SamplesPerSymbol()
	ebn0DB := 7.0
	ebn0 := dsp.FromDB(ebn0DB)
	// Unit signal power; per-sample noise variance so that
	// Eb/N0 = sps·P_sig/σ².
	sigma2 := float64(sps) / ebn0
	want := 0.5 * math.Exp(-ebn0/2)

	var errs, total int
	for trial := 0; trial < 20; trial++ {
		bits := g.Bits(1000)
		x := m.Modulate(bits)
		noise := g.ComplexNormalVec(make([]complex128, len(x)), sigma2)
		dsp.AddTo(x, noise)
		got := m.DemodBits(x, len(bits), 0)
		e, n := phy.CountBitErrors(got, bits)
		errs += e
		total += n
	}
	ber := float64(errs) / float64(total)
	if ber < want/2 || ber > want*2 {
		t.Fatalf("BER at Eb/N0=%g dB: got %g, theory %g", ebn0DB, ber, want)
	}
}

func TestFSKBERUnderHeavyJammingIsHalf(t *testing.T) {
	// With jamming 20 dB above the signal, the demodulator must be reduced
	// to guessing: BER ≈ 0.5 (the paper's confidentiality goal).
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(7)
	bits := g.Bits(5000)
	x := m.Modulate(bits)
	jam := g.ComplexNormalVec(make([]complex128, len(x)), dsp.FromDB(20))
	dsp.AddTo(x, jam)
	got := m.DemodBits(x, len(bits), 0)
	e, n := phy.CountBitErrors(got, bits)
	ber := float64(e) / float64(n)
	if ber < 0.4 || ber > 0.6 {
		t.Fatalf("BER under 20 dB jamming = %g, want ≈ 0.5", ber)
	}
}

func TestFSKDemodTruncatedInput(t *testing.T) {
	m := NewFSK(DefaultFSK)
	bits := []byte{1, 0, 1, 1}
	x := m.Modulate(bits)
	got := m.DemodBits(x[:len(x)-1], len(bits), 0) // one sample short
	if len(got) != 3 {
		t.Fatalf("truncated demod returned %d bits, want 3", len(got))
	}
	if len(m.DemodBits(nil, 4, 0)) != 0 {
		t.Fatal("demod of empty input should return no bits")
	}
}

func TestFSKConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   FSKConfig
		panic bool
	}{
		{"default", DefaultFSK, false},
		{"modulation index 2 at 25 kbaud", FSKConfig{SampleRate: 600e3, SymbolRate: 25e3, Deviation: 25e3}, false},
		{"modulation index 1", FSKConfig{SampleRate: 600e3, SymbolRate: 50e3, Deviation: 25e3}, false},
		{"non-integer samples per symbol", FSKConfig{SampleRate: 600e3, SymbolRate: 70e3, Deviation: 50e3}, true},
		{"non-integer modulation index", FSKConfig{SampleRate: 600e3, SymbolRate: 50e3, Deviation: 30e3}, true},
		{"zero deviation", FSKConfig{SampleRate: 600e3, SymbolRate: 50e3, Deviation: 0}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := recover() != nil; got != c.panic {
					t.Fatalf("NewFSK(%+v) panicked = %v, want %v", c.cfg, got, c.panic)
				}
			}()
			NewFSK(c.cfg)
		})
	}
}

func TestFSKDurationHelpers(t *testing.T) {
	c := DefaultFSK
	if c.SamplesForBits(10) != 120 {
		t.Fatalf("SamplesForBits(10) = %d, want 120", c.SamplesForBits(10))
	}
	if c.SamplesForDuration(1e-3) != 600 {
		t.Fatalf("SamplesForDuration(1ms) = %d, want 600", c.SamplesForDuration(1e-3))
	}
	if d := c.Duration(600); math.Abs(d-1e-3) > 1e-12 {
		t.Fatalf("Duration(600) = %g, want 1ms", d)
	}
}

func TestGMSKRoundTrip(t *testing.T) {
	g := NewGMSK(DefaultGMSK)
	rng := stats.NewRNG(8)
	bits := rng.Bits(200)
	x := g.Modulate(bits)
	if p := dsp.Power(x); math.Abs(p-1) > 1e-9 {
		t.Fatalf("GMSK power = %g, want 1", p)
	}
	got := g.DemodBits(x, len(bits))
	e, n := phy.CountBitErrors(got[1:], bits[1:]) // first bit has filter edge effects
	if n == 0 || float64(e)/float64(n) > 0.02 {
		t.Fatalf("GMSK round-trip BER = %d/%d", e, n)
	}
}

func TestGMSKSpectrumNarrowerThanFSK(t *testing.T) {
	// GMSK cross-traffic occupies a narrow band around DC, clearly distinct
	// from the IMD's ±50 kHz tones; this is what lets tests distinguish the
	// two waveforms.
	g := NewGMSK(DefaultGMSK)
	bits := stats.NewRNG(9).Bits(2000)
	x := g.Modulate(bits)
	psd := dsp.PSD(x, 256, dsp.Hann)
	fs := DefaultGMSK.SampleRate
	center := dsp.BandPower(psd, fs, -15e3, 15e3)
	total := dsp.BandPower(psd, fs, -fs/2, fs/2)
	if frac := center / total; frac < 0.95 {
		t.Fatalf("GMSK center-band fraction = %g, want > 0.95", frac)
	}
}

func TestGMSKModulateEmpty(t *testing.T) {
	g := NewGMSK(DefaultGMSK)
	if out := g.Modulate(nil); out != nil {
		t.Fatal("empty input should produce empty output")
	}
}

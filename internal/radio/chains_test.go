package radio

import (
	"math"
	"testing"

	"heartshield/internal/dsp"
	"heartshield/internal/stats"
)

func unitTone(n int) []complex128 {
	return dsp.Tone(n, 10e3, 600e3, 0)
}

// send transmits iq into a fresh buffer.
func send(tx *TXChain, iq []complex128) []complex128 {
	return tx.Transmit(make([]complex128, len(iq)), iq)
}

func TestTXChainPowerScaling(t *testing.T) {
	tx := &TXChain{PowerDBm: -16, SampleRate: 600e3}
	out := send(tx, unitTone(1000))
	if got := RSSIdBm(out); math.Abs(got-(-16)) > 0.1 {
		t.Fatalf("TX power = %g dBm, want -16", got)
	}
}

func TestTXChainDoesNotModifyInput(t *testing.T) {
	tx := &TXChain{PowerDBm: 0, SampleRate: 600e3}
	in := unitTone(100)
	orig := dsp.Clone(in)
	send(tx, in)
	for i := range in {
		if in[i] != orig[i] {
			t.Fatal("Transmit modified its input")
		}
	}
}

func TestTXChainTransmitAtRestoresPower(t *testing.T) {
	tx := &TXChain{PowerDBm: -16, SampleRate: 600e3}
	in := unitTone(500)
	out := tx.TransmitAt(make([]complex128, len(in)), in, 4)
	if got := RSSIdBm(out); math.Abs(got-4) > 0.1 {
		t.Fatalf("override power = %g dBm, want 4", got)
	}
	if tx.PowerDBm != -16 {
		t.Fatalf("PowerDBm = %g after TransmitAt, want -16", tx.PowerDBm)
	}
}

func TestTXChainCFORotates(t *testing.T) {
	tx := &TXChain{PowerDBm: 0, CFOHz: 5e3, SampleRate: 600e3}
	out := send(tx, unitTone(4096))
	// The 10 kHz tone should now appear at 15 kHz.
	p := dsp.TonePower(out, 15e3, 600e3)
	if p < 0.8 {
		t.Fatalf("power at shifted frequency = %g, want ~1", p)
	}
}

func TestTXChainQuantizationIsSmall(t *testing.T) {
	tx14 := &TXChain{PowerDBm: 0, DACBits: 14, SampleRate: 600e3}
	in := unitTone(2000)
	ideal := &TXChain{PowerDBm: 0, SampleRate: 600e3}
	a := send(tx14, in)
	b := send(ideal, in)
	var errP float64
	for i := range a {
		d := a[i] - b[i]
		errP += real(d)*real(d) + imag(d)*imag(d)
	}
	errP /= float64(len(a))
	if snr := dsp.DB(dsp.Power(b) / errP); snr < 70 {
		t.Fatalf("14-bit DAC SNR = %g dB, want > 70", snr)
	}
}

func TestRXChainNoiseFloor(t *testing.T) {
	rx := &RXChain{
		NoiseFloorDBm: -112,
		ChannelBW:     300e3,
		SampleRate:    600e3,
		RNG:           stats.NewRNG(1),
	}
	silent := make([]complex128, 50000)
	out := rx.Process(silent)
	// Per-sample noise power should be the floor spread over 2x bandwidth.
	want := dsp.FromDBm(-112) * 2
	got := dsp.Power(out)
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("noise power = %g, want %g", got, want)
	}
}

func TestRXChainPreservesStrongSignal(t *testing.T) {
	rx := &RXChain{
		NoiseFloorDBm: -112,
		ChannelBW:     300e3,
		SampleRate:    600e3,
		OverloadDBm:   -16,
		RNG:           stats.NewRNG(2),
	}
	tx := &TXChain{PowerDBm: -60, SampleRate: 600e3}
	in := send(tx, unitTone(10000))
	out := rx.Process(in)
	if got := RSSIdBm(out); math.Abs(got-(-60)) > 0.5 {
		t.Fatalf("through-chain power = %g dBm, want ~-60", got)
	}
}

func TestRXChainOverloadDegradesSNDR(t *testing.T) {
	mkRx := func() *RXChain {
		return &RXChain{
			NoiseFloorDBm: -112,
			ChannelBW:     300e3,
			SampleRate:    600e3,
			OverloadDBm:   -16,
			RNG:           stats.NewRNG(3),
		}
	}
	sndr := func(powerDBm float64) float64 {
		tx := &TXChain{PowerDBm: powerDBm, SampleRate: 600e3}
		in := send(tx, unitTone(20000))
		out := mkRx().Process(dsp.Clone(in))
		// Distortion = out - in; measure signal-to-distortion.
		var d float64
		for i := range out {
			e := out[i] - in[i]
			d += real(e)*real(e) + imag(e)*imag(e)
		}
		d /= float64(len(out))
		return dsp.DB(dsp.Power(in) / d)
	}
	below := sndr(-30) // 14 dB below overload: clean
	at := sndr(-16)    // at overload: margin-limited
	above := sndr(-6)  // 10 dB over: heavily distorted
	if below < 40 {
		t.Fatalf("SNDR below overload = %g dB, want > 40", below)
	}
	if at > below-15 {
		t.Fatalf("SNDR at overload = %g dB, want well below clean %g", at, below)
	}
	if above > 6 {
		t.Fatalf("SNDR 10 dB over overload = %g dB, want < 6", above)
	}
}

func TestRXChainOverloadDisabledWhenZero(t *testing.T) {
	rx := &RXChain{
		NoiseFloorDBm: -112,
		ChannelBW:     300e3,
		SampleRate:    600e3,
		RNG:           stats.NewRNG(4),
	}
	tx := &TXChain{PowerDBm: 10, SampleRate: 600e3}
	in := send(tx, unitTone(5000))
	out := rx.Process(dsp.Clone(in))
	var d float64
	for i := range out {
		e := out[i] - in[i]
		d += real(e)*real(e) + imag(e)*imag(e)
	}
	d /= float64(len(out))
	if sndr := dsp.DB(dsp.Power(in) / d); sndr < 60 {
		t.Fatalf("SNDR with overload disabled = %g dB, want clean", sndr)
	}
}

func TestRXChainCFO(t *testing.T) {
	rx := &RXChain{
		NoiseFloorDBm: -150, // negligible
		ChannelBW:     300e3,
		SampleRate:    600e3,
		CFOHz:         3e3,
		RNG:           stats.NewRNG(5),
	}
	in := dsp.Tone(4096, 10e3, 600e3, 0)
	out := rx.Process(in)
	// RX applies -CFO: tone moves from 10 kHz to 7 kHz.
	if p := dsp.TonePower(out, 7e3, 600e3); p < 0.8 {
		t.Fatalf("power at 7 kHz = %g, want ~1", p)
	}
}

func TestNoiseFloorDBm(t *testing.T) {
	// 300 kHz + 7 dB NF: -174 + 54.77 + 7 ≈ -112.2.
	got := NoiseFloorDBm(300e3, 7)
	if math.Abs(got-(-112.2)) > 0.1 {
		t.Fatalf("NoiseFloorDBm = %g, want ≈ -112.2", got)
	}
}

func TestRSSIdBm(t *testing.T) {
	tx := &TXChain{PowerDBm: -40, SampleRate: 600e3}
	out := send(tx, unitTone(1000))
	if got := RSSIdBm(out); math.Abs(got-(-40)) > 0.1 {
		t.Fatalf("RSSI = %g, want -40", got)
	}
}

// Process works in place — the receive-path buffer-reuse contract: it
// returns its input buffer, and draws the same noise stream as on a copy.
func TestProcessIsInPlace(t *testing.T) {
	mk := func(seed int64) *RXChain {
		return &RXChain{
			NoiseFloorDBm: -100, ChannelBW: 300e3, SampleRate: 600e3,
			OverloadDBm: -20, RNG: stats.NewRNG(seed),
		}
	}
	iq := unitTone(2048)
	a := mk(7).Process(dsp.Clone(iq))
	inPlace := dsp.Clone(iq)
	b := mk(7).Process(inPlace)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: in place %v != on a copy %v", i, b[i], a[i])
		}
	}
	if &b[0] != &inPlace[0] {
		t.Fatal("Process must return its input buffer")
	}
}

func TestProcessDoesNotAllocate(t *testing.T) {
	rx := &RXChain{
		NoiseFloorDBm: -100, ChannelBW: 300e3, SampleRate: 600e3,
		RNG: stats.NewRNG(9),
	}
	buf := unitTone(2048)
	allocs := testing.AllocsPerRun(50, func() {
		rx.Process(buf)
	})
	if allocs != 0 {
		t.Fatalf("Process allocates %.1f times per call, want 0", allocs)
	}
}

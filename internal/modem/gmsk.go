package modem

import (
	"math"
)

// GMSKConfig describes a GMSK modulator — the modulation of the Vaisala
// RS92-style radiosonde used as legitimate meteorological cross-traffic in
// the coexistence experiment (Table 2 of the paper).
type GMSKConfig struct {
	SampleRate float64 // Hz
	SymbolRate float64 // baud
	BT         float64 // Gaussian filter bandwidth-time product (0.5 typical)
}

// DefaultGMSK matches the simulation's 600 kHz channel sampling with a
// 4.8 kbaud radiosonde-like data rate.
var DefaultGMSK = GMSKConfig{
	SampleRate: 600e3,
	SymbolRate: 4800,
	BT:         0.5,
}

// GMSK is a Gaussian minimum-shift-keying modem.
type GMSK struct {
	sps   int
	pulse []float64 // Gaussian frequency pulse, normalized to sum π/2 per symbol
}

// NewGMSK builds a GMSK modem.
func NewGMSK(cfg GMSKConfig) *GMSK {
	sps := int(cfg.SampleRate/cfg.SymbolRate + 0.5)
	if sps < 2 {
		panic("modem: GMSK needs at least 2 samples per symbol")
	}
	g := &GMSK{sps: sps}
	g.pulse = gaussianPulse(cfg.BT, sps, 3)
	return g
}

// gaussianPulse returns the sampled Gaussian frequency pulse spanning
// span symbols, normalized so its sum is 1 (one symbol's full phase
// contribution).
func gaussianPulse(bt float64, sps, span int) []float64 {
	n := span * sps
	h := make([]float64, n)
	// Standard GMSK Gaussian: sigma_t = sqrt(ln2)/(2π·B), B = BT·Rs.
	sigma := math.Sqrt(math.Ln2) / (2 * math.Pi * bt)
	var sum float64
	for i := range h {
		t := (float64(i) - float64(n-1)/2) / float64(sps) // in symbols
		h[i] = math.Exp(-t * t / (2 * sigma * sigma))
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return h
}

// Modulate produces unit-power GMSK baseband IQ for bits (one byte per
// bit). The modulation index is 0.5 (MSK).
func (g *GMSK) Modulate(bits []byte) []complex128 {
	if len(bits) == 0 {
		return nil
	}
	// NRZ impulse train filtered by the Gaussian pulse gives the
	// instantaneous frequency; integrate for phase.
	n := len(bits) * g.sps
	freq := make([]float64, n+len(g.pulse))
	for k, b := range bits {
		v := -1.0
		if b&1 == 1 {
			v = 1.0
		}
		for i, p := range g.pulse {
			freq[k*g.sps+i] += v * p
		}
	}
	out := make([]complex128, n)
	phase := 0.0
	for i := 0; i < n; i++ {
		sin, cos := math.Sincos(phase)
		out[i] = complex(cos, sin)
		phase += math.Pi / 2 * freq[i] // h=0.5 → ±π/2 per symbol
	}
	return out
}

// DemodBits recovers bits with a differential (lag-sps) phase detector,
// assuming symbol alignment at sample 0. The detector accounts for the
// Gaussian pulse's group delay (half the pulse span). It is not an optimal
// receiver but suffices for validating the modulator and the cross-traffic
// path.
func (g *GMSK) DemodBits(x []complex128, nbits int) []byte {
	// The pulse for symbol k is centered at k·sps + delay; compare the
	// phase one half-symbol either side of that center.
	delay := (len(g.pulse) - 1) / 2
	half := g.sps / 2
	avail := (len(x) - delay - half - 1) / g.sps
	if nbits > avail {
		nbits = avail
	}
	if nbits <= 0 {
		return nil
	}
	bits := make([]byte, nbits)
	for k := 0; k < nbits; k++ {
		center := k*g.sps + delay
		a := x[center-half]
		b := x[center+half]
		d := b * complex(real(a), -imag(a))
		if math.Atan2(imag(d), real(d)) > 0 {
			bits[k] = 1
		}
	}
	return bits
}

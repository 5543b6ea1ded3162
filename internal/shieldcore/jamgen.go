// Package shieldcore implements the paper's contribution: the shield, a
// wearable jammer-cum-receiver that (a) jams every transmission of the
// protected IMD while decoding it through its own jamming via an antidote
// signal (full-duplex without antenna separation, §5), (b) shapes its
// jamming to the IMD's FSK profile for maximum efficiency per watt (§6),
// (c) detects and jams unauthorized commands addressed to the IMD (§7),
// and (d) raises an alarm for high-powered adversaries it cannot stop.
package shieldcore

import (
	"math"
	"sync"

	"heartshield/internal/dsp"
	"heartshield/internal/modem"
	"heartshield/internal/stats"
)

// JamShape selects the spectral profile of the jamming signal.
type JamShape int

const (
	// ShapedJam matches the jamming PSD to the IMD's FSK profile
	// (Fig. 5, "shaped power profile") so the power lands on the
	// frequencies that matter for decoding.
	ShapedJam JamShape = iota
	// FlatJam spreads the power uniformly across the 300 kHz channel
	// (Fig. 5, "constant power profile") — the baseline an adversary can
	// partially filter out.
	FlatJam
)

// String names the shape.
func (s JamShape) String() string {
	if s == FlatJam {
		return "flat"
	}
	return "shaped"
}

// jamFFTSize is the block size used for spectral shaping: 256 bins over
// 600 kHz gives ~2.3 kHz resolution, plenty for a 300 kHz channel.
const jamFFTSize = 256

// jamFFT is the shared transform plan for jam synthesis; plans are
// read-only and safe for concurrent use.
var jamFFT = dsp.NewFFTPlan(jamFFTSize)

// JamGenerator produces random jamming signals with a chosen spectral
// profile and unit mean power. The randomness makes the jam a one-time pad
// over the air (Shannon): only the shield, which knows the exact samples,
// can subtract it.
type JamGenerator struct {
	shape   JamShape
	profile []float64 // per-bin variance, natural FFT order, sums to nfft
	// binAmp[k] is the per-real-dimension amplitude drawn per spectral bin
	// with the inverse transform's 1/N folded in, so synthesis can use the
	// unnormalized inverse FFT and skip a scaling pass per block.
	binAmp []float64
	rng    *stats.RNG
}

// NewJamGenerator builds a generator for the given shape. The IMD profile
// is derived from the modem's own modulation: the shield modulates a long
// reference bit sequence with the IMD's FSK parameters and measures its
// PSD — exactly the "shape the noise to the IMD modulation" procedure of
// §6(a). The template is a function of the FSK config alone (the
// reference bits come from a fixed internal seed) and is cached, so a
// scenario build or a SetJamShape swap does not re-measure it.
func NewJamGenerator(shape JamShape, fskCfg modem.FSKConfig, rng *stats.RNG) *JamGenerator {
	g := &JamGenerator{shape: shape, rng: rng}
	switch shape {
	case FlatJam:
		g.profile = flatProfile(fskCfg.SampleRate)
	default:
		g.profile = fskProfile(fskCfg)
	}
	g.binAmp = make([]float64, len(g.profile))
	for k, v := range g.profile {
		// The bin amplitude for unit output power is sqrt(N·var); the raw
		// (unnormalized) inverse transform omits the 1/N, so the drawn
		// variance is N·var/N² = var/N, i.e. amplitude sqrt(var/(2N)) per
		// real dimension.
		g.binAmp[k] = math.Sqrt(v / (2 * float64(jamFFTSize)))
	}
	return g
}

// Shape returns the generator's spectral profile selection.
func (g *JamGenerator) Shape() JamShape { return g.shape }

// Profile returns the per-bin variance template in natural FFT order
// (shared slice; do not modify).
func (g *JamGenerator) Profile() []float64 { return g.profile }

// fskProfileSeed seeds the reference bit sequence the shaped template is
// measured from. It is a fixed constant: the template describes the IMD's
// modulation, not a per-scenario random quantity, and a deterministic
// derivation is what makes the cache below valid for every scenario.
const fskProfileSeed = 0x51d

// fskProfileCache memoizes the measured template per FSK config; a shaped
// generator is built for every scenario, and the 8192-bit reference
// modulation + PSD is far too expensive to redo there.
var fskProfileCache sync.Map // modem.FSKConfig -> []float64

// fskProfile measures the PSD of a reference FSK transmission and converts
// it into a per-bin variance template normalized to mean 1.
func fskProfile(cfg modem.FSKConfig) []float64 {
	if p, ok := fskProfileCache.Load(cfg); ok {
		return p.([]float64)
	}
	m := modem.NewFSK(cfg)
	ref := m.Modulate(stats.NewRNG(fskProfileSeed).Bits(8192))
	psd := dsp.PSD(ref, jamFFTSize, dsp.Hann) // centered order
	dsp.FFTShiftFloat(psd)                    // back to natural order
	p := normalizeProfile(psd)
	fskProfileCache.Store(cfg, p)
	return p
}

// flatProfile is uniform across the 300 kHz channel centered at DC and
// zero outside (the jam must stay inside its MICS channel).
func flatProfile(fs float64) []float64 {
	p := make([]float64, jamFFTSize)
	freqs := dsp.BinFrequencies(jamFFTSize, fs)
	for i, f := range freqs {
		if f >= -150e3 && f <= 150e3 {
			p[i] = 1
		}
	}
	return normalizeProfile(p)
}

// normalizeProfile scales the template so the generated time-domain signal
// has unit mean power (bins sum to nfft).
func normalizeProfile(p []float64) []float64 {
	var sum float64
	for _, v := range p {
		sum += v
	}
	out := make([]float64, len(p))
	if sum == 0 {
		return out
	}
	scale := float64(len(p)) / sum
	for i, v := range p {
		out[i] = v * scale
	}
	return out
}

// Generate fills dst with fresh random jamming with the generator's
// spectral profile and unit mean power, and returns it. Each call produces
// an independent signal: per block, every FFT bin gets an independent
// complex Gaussian with the template variance, and the IFFT yields the
// time-domain jam (§6(a) of the paper, verbatim). Whole blocks are
// synthesized in dst; a last partial block is synthesized whole on the
// stack and its head copied, so it draws what a whole block would.
func (g *JamGenerator) Generate(dst []complex128) []complex128 {
	// z holds one block's draws, real and imaginary part per bin in turn.
	var z [2 * jamFFTSize]float64
	var tail [jamFFTSize]complex128
	for off := 0; off < len(dst); off += jamFFTSize {
		block := tail[:]
		if off+jamFFTSize <= len(dst) {
			block = dst[off : off+jamFFTSize]
		}
		g.rng.FillNormal(z[:])
		for k, a := range g.binAmp {
			block[k] = complex(a*z[2*k], a*z[2*k+1])
		}
		jamFFT.InverseRaw(block)
		if off+jamFFTSize > len(dst) {
			copy(dst[off:], block)
		}
	}
	return dst
}

// Package radio models the software-radio transmit and receive chains of
// every device in the simulation: power scaling and DAC quantization on
// transmit; thermal noise, carrier frequency offset, ADC quantization, and
// front-end overload on receive. These are the USRP2/RFX400 stand-ins for
// the paper's prototype — the impairments they introduce (finite antidote
// cancellation, saturation under high-power adversaries) bound the same
// quantities the paper measures (G in Fig. 7, Pthresh in Table 1).
package radio

import (
	"math"

	"heartshield/internal/dsp"
	"heartshield/internal/stats"
)

// TXChain converts unit-power baseband IQ into an over-the-air burst at
// the configured transmit power, applying DAC quantization and the
// transmitter's carrier frequency offset.
type TXChain struct {
	// PowerDBm is the transmit power a unit-power input is scaled to.
	PowerDBm float64
	// DACBits is the DAC resolution; 0 disables quantization.
	DACBits int
	// CFOHz is this transmitter's carrier offset from nominal.
	CFOHz float64
	// SampleRate is the baseband sample rate in Hz.
	SampleRate float64
}

// Transmit writes iq scaled to PowerDBm (assuming unit-power input),
// quantized, and rotated by the chain's CFO into dst, which must hold
// len(iq) samples, and returns dst. Every sample of dst is written before
// any is read, so dst may be a recycled buffer or iq itself. Transmitters
// pass a Medium.Samples buffer, so their bursts live in the sample arena.
func (t *TXChain) Transmit(dst, iq []complex128) []complex128 {
	amp := math.Sqrt(dsp.FromDBm(t.PowerDBm))
	// Copy and scale in one pass — this runs once per burst over
	// window-length buffers, so the saved sweep is measurable.
	out := dst[:len(iq)]
	camp := complex(amp, 0)
	for i, v := range iq {
		out[i] = v * camp
	}
	if t.DACBits > 0 {
		quantize(out, amp*1.25, t.DACBits)
	}
	if t.CFOHz != 0 {
		dsp.Mix(out, t.CFOHz, t.SampleRate, 0)
	}
	return out
}

// TransmitAt is Transmit with an explicit power override in dBm, used when
// a device changes power per burst (e.g. the shield's calibrated jamming
// level or an adversary's power sweep).
func (t *TXChain) TransmitAt(dst, iq []complex128, powerDBm float64) []complex128 {
	saved := t.PowerDBm
	t.PowerDBm = powerDBm
	defer func() { t.PowerDBm = saved }()
	return t.Transmit(dst, iq)
}

// quantize rounds I and Q to a bits-wide uniform quantizer with full scale
// fullScale, clipping anything beyond.
func quantize(x []complex128, fullScale float64, bits int) {
	levels := float64(int64(1) << uint(bits-1))
	step := fullScale / levels
	// Dividing by step costs a hardware divide per component; multiplying
	// by its reciprocal is ~4x cheaper and lands on the same code except
	// when the product sits within an ulp of a code boundary — continuous
	// signals cross that set with probability zero.
	inv := 1 / step
	q := func(v float64) float64 {
		if v > fullScale {
			v = fullScale
		} else if v < -fullScale {
			v = -fullScale
		}
		// Floor(x+0.5) is the hardware-intrinsic round-half-up; it differs
		// from round-half-away only on exact half-codes, which continuous
		// signals hit with probability zero.
		return math.Floor(v*inv+0.5) * step
	}
	for i, v := range x {
		x[i] = complex(q(real(v)), q(imag(v)))
	}
}

// RXChain models a receiver front end. Process adds thermal noise for the
// configured noise floor, applies the receiver's carrier offset, models
// front-end overload for strong inputs, and quantizes with the ADC.
type RXChain struct {
	// NoiseFloorDBm is the integrated thermal noise over ChannelBW.
	NoiseFloorDBm float64
	// ChannelBW is the bandwidth the noise floor is quoted over (Hz).
	ChannelBW float64
	// SampleRate is the baseband sample rate (Hz); noise is spread over it.
	SampleRate float64
	// CFOHz is the receiver's carrier offset from nominal.
	CFOHz float64
	// ADCBits is the ADC resolution; 0 disables quantization.
	ADCBits int
	// OverloadDBm is the input power at which the front end saturates.
	// Inputs above it suffer rapidly growing distortion. Zero disables
	// overload modelling (treated as +inf).
	OverloadDBm float64
	// OverloadMarginDB is the signal-to-distortion ratio right at the
	// overload point; it shrinks ~2 dB per dB of additional input power.
	OverloadMarginDB float64
	// RNG drives the noise; it must be non-nil.
	RNG *stats.RNG
}

// DefaultOverloadMarginDB is used when OverloadMarginDB is zero.
const DefaultOverloadMarginDB = 12

// Process applies the front end to iq in place and returns it:
// CFO rotation, thermal noise, overload distortion, and ADC quantization.
// Receivers pass the window Medium.Observe handed them, which belongs to
// the trial, so nothing is copied.
func (r *RXChain) Process(iq []complex128) []complex128 {
	out := iq
	if r.CFOHz != 0 {
		dsp.Mix(out, -r.CFOHz, r.SampleRate, 0)
	}
	inPower := dsp.Power(out)

	// Thermal noise: the floor is quoted over ChannelBW but the sample
	// stream spans SampleRate, so scale the per-sample variance.
	bwScale := 1.0
	if r.ChannelBW > 0 && r.SampleRate > 0 {
		bwScale = r.SampleRate / r.ChannelBW
	}
	noiseVar := dsp.FromDBm(r.NoiseFloorDBm) * bwScale
	r.RNG.AddComplexNormal(out, noiseVar)

	// Front-end overload: above OverloadDBm the effective
	// signal-to-noise-and-distortion ratio collapses. Model the
	// intermodulation/AGC products as additional Gaussian distortion whose
	// power grows 3 dB per dB of excess drive (2 dB margin loss + 1 dB
	// input growth), plus hard clipping of the ADC.
	if r.OverloadDBm != 0 && inPower > 0 {
		inDBm := dsp.DBm(inPower)
		excess := inDBm - r.OverloadDBm
		if excess > 0 {
			margin := r.OverloadMarginDB
			if margin == 0 {
				margin = DefaultOverloadMarginDB
			}
			sndrDB := margin - 2*excess
			if sndrDB < 1 {
				sndrDB = 1
			}
			distVar := inPower / dsp.FromDB(sndrDB)
			r.RNG.AddComplexNormal(out, distVar)
			clip := math.Sqrt(dsp.FromDBm(r.OverloadDBm + 6))
			for i, v := range out {
				out[i] = complex(clamp(real(v), clip), clamp(imag(v), clip))
			}
		}
	}

	if r.ADCBits > 0 {
		fs := math.Sqrt(dsp.FromDBm(r.OverloadDBm + 6))
		if r.OverloadDBm == 0 {
			fs = 4 * math.Sqrt(inPower+noiseVar)
		}
		quantize(out, fs, r.ADCBits)
	}
	return out
}

func clamp(v, lim float64) float64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// RSSIdBm returns the mean power of iq expressed in dBm (assuming the
// simulation's sqrt-milliwatt amplitude convention).
func RSSIdBm(iq []complex128) float64 {
	return dsp.DBm(dsp.Power(iq))
}

// NoiseFloorDBm computes the thermal noise floor for a bandwidth and noise
// figure: -174 dBm/Hz + 10·log10(BW) + NF.
func NoiseFloorDBm(bandwidthHz, noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(bandwidthHz) + noiseFigureDB
}

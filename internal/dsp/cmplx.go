// Package dsp provides the baseband digital signal processing primitives
// used throughout the shield simulator: complex vector math, FFT, window
// functions, FIR filtering, tone detection, and power spectral density
// estimation.
//
// All signals are complex baseband IQ sample slices ([]complex128) at an
// explicit sample rate. The package is allocation-conscious: functions that
// are on hot paths accept destination slices where it matters.
package dsp

import "math"

// Scale multiplies every sample of x by the real factor a, in place,
// and returns x for chaining.
func Scale(x []complex128, a float64) []complex128 {
	c := complex(a, 0)
	for i := range x {
		x[i] *= c
	}
	return x
}

// ScaleC multiplies every sample of x by the complex factor a, in place.
func ScaleC(x []complex128, a complex128) []complex128 {
	for i := range x {
		x[i] *= a
	}
	return x
}

// AddTo adds src into dst element-wise: dst[i] += src[i]. The slices may be
// different lengths; only the overlapping prefix is summed. It returns the
// number of samples added.
func AddTo(dst, src []complex128) int {
	n := min(len(dst), len(src))
	for i := 0; i < n; i++ {
		dst[i] += src[i]
	}
	return n
}

// AddScaled adds a*src into dst element-wise over the overlapping prefix.
func AddScaled(dst, src []complex128, a complex128) int {
	n := min(len(dst), len(src))
	for i := 0; i < n; i++ {
		dst[i] += a * src[i]
	}
	return n
}

// Dot returns the complex inner product sum(x[i] * conj(y[i])) over the
// overlapping prefix of x and y.
func Dot(x, y []complex128) complex128 {
	n := min(len(x), len(y))
	var acc complex128
	for i := 0; i < n; i++ {
		yc := y[i]
		acc += x[i] * complex(real(yc), -imag(yc))
	}
	return acc
}

// Energy returns the total energy of x: sum(|x[i]|^2).
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		re, im := real(v), imag(v)
		e += re*re + im*im
	}
	return e
}

// Power returns the mean sample power of x: Energy(x)/len(x).
// It returns 0 for an empty slice.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// Clone returns a copy of x.
func Clone(x []complex128) []complex128 {
	y := make([]complex128, len(x))
	copy(y, x)
	return y
}

// mixRenormEvery bounds the phasor recurrence used by Mix and Tone: the
// running phasor is re-anchored to an exact Sincos every this many samples,
// so rounding error in the complex products never accumulates past ~1e-13
// regardless of block length.
const mixRenormEvery = 256

// Mix multiplies x by a complex exponential of frequency freqHz (sample rate
// fs, initial phase phase radians), in place, and returns the phase after the
// last sample so callers can continue a phase-continuous mix across blocks.
//
// The oscillator is a phasor recurrence — one complex multiply per sample
// instead of a Sincos call — re-anchored to an exact Sincos every
// mixRenormEvery samples so amplitude and phase error stay at the rounding
// floor. This is the TX/RX carrier-offset hot path: every burst placed on
// the medium by a CFO-bearing chain runs through it.
func Mix(x []complex128, freqHz, fs, phase float64) float64 {
	if len(x) == 0 {
		return phase
	}
	step := 2 * math.Pi * freqHz / fs
	ss, cs := math.Sincos(step)
	rot := complex(cs, ss)
	for blk := 0; blk < len(x); blk += mixRenormEvery {
		s, c := math.Sincos(phase + float64(blk)*step)
		ph := complex(c, s)
		end := blk + mixRenormEvery
		if end > len(x) {
			end = len(x)
		}
		for i := blk; i < end; i++ {
			x[i] *= ph
			ph *= rot
		}
	}
	// Keep the phase bounded so long streams do not lose precision.
	return math.Mod(phase+float64(len(x))*step, 2*math.Pi)
}

// Tone synthesizes n samples of a unit-amplitude complex exponential at
// freqHz with sample rate fs and initial phase phase, using the same
// re-anchored phasor recurrence as Mix.
func Tone(n int, freqHz, fs, phase float64) []complex128 {
	x := make([]complex128, n)
	step := 2 * math.Pi * freqHz / fs
	ss, cs := math.Sincos(step)
	rot := complex(cs, ss)
	for blk := 0; blk < n; blk += mixRenormEvery {
		s, c := math.Sincos(phase + float64(blk)*step)
		ph := complex(c, s)
		end := blk + mixRenormEvery
		if end > n {
			end = n
		}
		for i := blk; i < end; i++ {
			x[i] = ph
			ph *= rot
		}
	}
	return x
}

// DB converts a linear power ratio to decibels. Non-positive ratios map to
// -inf, which keeps downstream comparisons well-defined.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// DBm converts a power in milliwatts to dBm.
func DBm(milliwatt float64) float64 { return DB(milliwatt) }

// FromDBm converts dBm to milliwatts.
func FromDBm(dbm float64) float64 { return FromDB(dbm) }

package dsp

import "math"

// PSD estimates the power spectral density of x with Welch's method:
// the signal is split into segments of length nfft (a power of two) with 50%
// overlap, windowed, transformed, and the squared magnitudes averaged. The
// result has nfft bins in centered order (negative frequencies first) and is
// normalized so that the bins sum to the mean sample power of x (exactly so
// for a rectangular window, approximately for tapered windows).
func PSD(x []complex128, nfft int, w Window) []float64 {
	if !IsPowerOfTwo(nfft) {
		panic("dsp: PSD nfft must be a power of two")
	}
	if len(x) < nfft {
		// Zero-pad a single segment.
		seg := make([]complex128, nfft)
		copy(seg, x)
		x = seg
	}
	win := w.Coefficients(nfft)
	norm := w.NoiseGain(nfft)
	psd := make([]float64, nfft)
	segs := 0
	buf := make([]complex128, nfft)
	hop := nfft / 2
	plan := NewFFTPlan(nfft) // resolved once, shared across segments
	for start := 0; start+nfft <= len(x); start += hop {
		for i := 0; i < nfft; i++ {
			buf[i] = x[start+i] * complex(win[i], 0)
		}
		plan.Forward(buf)
		for i, v := range buf {
			re, im := real(v), imag(v)
			psd[i] += re*re + im*im
		}
		segs++
	}
	scale := 1 / (float64(segs) * float64(nfft) * float64(nfft) * norm)
	for i := range psd {
		psd[i] *= scale
	}
	FFTShiftFloat(psd)
	return psd
}

// PSDFrequencies returns the centered bin frequencies matching PSD output.
func PSDFrequencies(nfft int, fs float64) []float64 {
	f := BinFrequencies(nfft, fs)
	FFTShiftFloat(f)
	return f
}

// BandPower integrates a centered PSD over [loHz, hiHz] and returns the
// total power in that band.
func BandPower(psd []float64, fs, loHz, hiHz float64) float64 {
	n := len(psd)
	freqs := PSDFrequencies(n, fs)
	var p float64
	for i, f := range freqs {
		if f >= loHz && f <= hiHz {
			p += psd[i]
		}
	}
	return p
}

// PeakIndex returns the index of the maximum value in v, or -1 if v is
// empty.
func PeakIndex(v []float64) int {
	best := -1
	bestV := math.Inf(-1)
	for i, x := range v {
		if x > bestV {
			bestV = x
			best = i
		}
	}
	return best
}

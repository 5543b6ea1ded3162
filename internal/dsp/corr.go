package dsp

import "math"

// CrossCorrelate returns c[k] = sum_n x[n+k] * conj(ref[n]) for
// k = 0 .. len(x)-len(ref), in the direct O(N·m) form. len(ref) must be
// <= len(x) and > 0; otherwise it returns nil.
func CrossCorrelate(x, ref []complex128) []complex128 {
	m := len(ref)
	if m == 0 || m > len(x) {
		return nil
	}
	out := make([]complex128, len(x)-m+1)
	for k := range out {
		var acc complex128
		seg := x[k : k+m]
		for n := 0; n < m; n++ {
			r := ref[n]
			acc += seg[n] * complex(real(r), -imag(r))
		}
		out[k] = acc
	}
	return out
}

// NormalizedCorrelation returns |<x_seg, ref>|^2 / (E(x_seg) * E(ref)) at
// each lag: a value in [0,1] that is 1 when the segment is a scaled rotated
// copy of ref. This is the standard scale-invariant sync metric in its
// direct form; the modem's Sync combines it over short segments of its
// reference.
func NormalizedCorrelation(x, ref []complex128) []float64 {
	m := len(ref)
	if m == 0 || m > len(x) {
		return nil
	}
	refE := Energy(ref)
	if refE == 0 {
		return nil
	}
	out := make([]float64, len(x)-m+1)
	// Running segment energy.
	var segE float64
	for i := 0; i < m; i++ {
		v := x[i]
		segE += real(v)*real(v) + imag(v)*imag(v)
	}
	for k := range out {
		seg := x[k : k+m]
		var acc complex128
		for n := 0; n < m; n++ {
			r := ref[n]
			acc += seg[n] * complex(real(r), -imag(r))
		}
		den := segE * refE
		if den > 0 {
			re, im := real(acc), imag(acc)
			out[k] = (re*re + im*im) / den
		}
		if k+m < len(x) {
			old := x[k]
			nw := x[k+m]
			segE += real(nw)*real(nw) + imag(nw)*imag(nw) - (real(old)*real(old) + imag(old)*imag(old))
			if segE < 0 {
				segE = 0
			}
		}
	}
	return out
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

// PeakAbove returns the first index at which v exceeds threshold, or -1.
func PeakAbove(v []float64, threshold float64) int {
	for i, x := range v {
		if x > threshold {
			return i
		}
	}
	return -1
}

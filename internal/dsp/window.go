package dsp

import "math"

// Window identifies a tapering window function.
type Window int

const (
	// Rectangular is the all-ones window.
	Rectangular Window = iota
	// Hann is the raised-cosine window.
	Hann
	// Hamming is the Hamming window.
	Hamming
	// Blackman is the three-term Blackman window.
	Blackman
)

// String returns the window's conventional name.
func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	default:
		return "unknown"
	}
}

// Coefficients returns the n window coefficients for w using the symmetric
// (filter-design) convention.
func (w Window) Coefficients(n int) []float64 {
	c := make([]float64, n)
	if n == 1 {
		c[0] = 1
		return c
	}
	den := float64(n - 1)
	for i := range c {
		t := float64(i) / den
		switch w {
		case Rectangular:
			c[i] = 1
		case Hann:
			c[i] = 0.5 - 0.5*math.Cos(2*math.Pi*t)
		case Hamming:
			c[i] = 0.54 - 0.46*math.Cos(2*math.Pi*t)
		case Blackman:
			c[i] = 0.42 - 0.5*math.Cos(2*math.Pi*t) + 0.08*math.Cos(4*math.Pi*t)
		default:
			c[i] = 1
		}
	}
	return c
}

// CoherentGain returns the mean of the window coefficients (amplitude
// normalization factor for spectral estimates).
func (w Window) CoherentGain(n int) float64 {
	c := w.Coefficients(n)
	var s float64
	for _, v := range c {
		s += v
	}
	return s / float64(n)
}

// NoiseGain returns the mean squared window coefficient (power
// normalization factor for PSD estimates).
func (w Window) NoiseGain(n int) float64 {
	c := w.Coefficients(n)
	var s float64
	for _, v := range c {
		s += v * v
	}
	return s / float64(n)
}

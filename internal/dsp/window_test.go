package dsp

import (
	"math"
	"testing"
)

func TestWindowNames(t *testing.T) {
	cases := map[Window]string{
		Rectangular: "rectangular",
		Hann:        "hann",
		Hamming:     "hamming",
		Blackman:    "blackman",
		Window(99):  "unknown",
	}
	for w, want := range cases {
		if got := w.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", w, got, want)
		}
	}
}

func TestWindowEndpoints(t *testing.T) {
	// Hann and Blackman go to ~0 at the edges; Hamming to 0.08;
	// rectangular stays 1.
	n := 65
	if c := Hann.Coefficients(n); math.Abs(c[0]) > 1e-12 || math.Abs(c[n-1]) > 1e-12 {
		t.Fatalf("Hann endpoints = %g, %g", c[0], c[n-1])
	}
	if c := Hamming.Coefficients(n); math.Abs(c[0]-0.08) > 1e-9 {
		t.Fatalf("Hamming endpoint = %g, want 0.08", c[0])
	}
	if c := Rectangular.Coefficients(n); c[0] != 1 || c[n/2] != 1 {
		t.Fatal("rectangular window must be all ones")
	}
}

func TestWindowSymmetry(t *testing.T) {
	for _, w := range []Window{Hann, Hamming, Blackman} {
		c := w.Coefficients(64)
		for i := range c {
			j := len(c) - 1 - i
			if math.Abs(c[i]-c[j]) > 1e-12 {
				t.Fatalf("%v asymmetric at %d: %g vs %g", w, i, c[i], c[j])
			}
		}
	}
}

func TestWindowPeakAtCenter(t *testing.T) {
	for _, w := range []Window{Hann, Hamming, Blackman} {
		c := w.Coefficients(65)
		if math.Abs(c[32]-1) > 1e-9 {
			t.Fatalf("%v center = %g, want 1", w, c[32])
		}
	}
}

func TestWindowGains(t *testing.T) {
	// Hann: coherent gain 0.5, noise gain 0.375 (asymptotically).
	if g := Hann.CoherentGain(4096); math.Abs(g-0.5) > 0.01 {
		t.Fatalf("Hann coherent gain = %g, want ≈ 0.5", g)
	}
	if g := Hann.NoiseGain(4096); math.Abs(g-0.375) > 0.01 {
		t.Fatalf("Hann noise gain = %g, want ≈ 0.375", g)
	}
	if g := Rectangular.CoherentGain(100); g != 1 {
		t.Fatalf("rectangular coherent gain = %g", g)
	}
}

func TestWindowLengthOne(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		c := w.Coefficients(1)
		if len(c) != 1 || c[0] != 1 {
			t.Fatalf("%v length-1 window = %v", w, c)
		}
	}
}

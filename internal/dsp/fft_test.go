package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func cAlmostEqual(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of a delta at n=0 is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if !cAlmostEqual(v, 1, 1e-12) {
			t.Fatalf("delta FFT bin %d = %v, want 1", i, v)
		}
	}

	// FFT of a pure exponential at bin k has all its energy in bin k.
	n := 64
	k := 5
	y := Tone(n, float64(k)*1000.0/float64(n), 1000.0, 0)
	FFT(y)
	for i, v := range y {
		mag := cmplx.Abs(v)
		if i == k {
			if !almostEqual(mag, float64(n), 1e-9*float64(n)) {
				t.Fatalf("bin %d magnitude = %g, want %d", i, mag, n)
			}
		} else if mag > 1e-9*float64(n) {
			t.Fatalf("bin %d magnitude = %g, want ~0", i, mag)
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		orig := Clone(x)
		FFT(x)
		IFFT(x)
		for i := range x {
			if !cAlmostEqual(x[i], orig[i], 1e-9) {
				t.Fatalf("n=%d: round trip sample %d = %v, want %v", n, i, x[i], orig[i])
			}
		}
	}
}

// Parseval: energy is preserved (up to the 1/N convention) by the FFT.
func TestFFTParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (1 + r.Intn(9)) // 2..1024
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		timeE := Energy(x)
		FFT(x)
		freqE := Energy(x) / float64(n)
		return almostEqual(timeE, freqE, 1e-6*(1+timeE))
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Linearity: FFT(a*x + y) == a*FFT(x) + FFT(y).
func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (1 + r.Intn(7))
		a := complex(r.NormFloat64(), r.NormFloat64())
		x := make([]complex128, n)
		y := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		FFT(sum)
		FFT(x)
		FFT(y)
		for i := range sum {
			if !cAlmostEqual(sum[i], a*x[i]+y[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of length 6 should panic")
		}
	}()
	FFT(make([]complex128, 6))
}

func TestBinFrequencies(t *testing.T) {
	f := BinFrequencies(4, 1000)
	want := []float64{0, 250, -500, -250}
	for i := range f {
		if !almostEqual(f[i], want[i], 1e-12) {
			t.Fatalf("bin %d freq = %g, want %g", i, f[i], want[i])
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1023: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPowerOfTwo(in); got != want {
			t.Fatalf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestFFTPlanMatchesFFT checks the cached-plan transform against the
// one-shot FFT/IFFT across sizes.
func TestFFTPlanMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		p := NewFFTPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := Clone(x)
		FFT(want)
		got := Clone(x)
		p.Forward(got)
		if e := maxAbsDiff(got, want); e > 1e-9 {
			t.Fatalf("n=%d: plan forward differs from FFT by %g", n, e)
		}
		p.Inverse(got)
		if e := maxAbsDiff(got, x); e > 1e-9 {
			t.Fatalf("n=%d: plan round-trip error %g", n, e)
		}
	}
}

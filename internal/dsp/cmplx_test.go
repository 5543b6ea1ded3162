package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPowerAndEnergy(t *testing.T) {
	x := []complex128{1, 1i, -1, -1i}
	if e := Energy(x); !almostEqual(e, 4, 1e-12) {
		t.Fatalf("Energy = %g, want 4", e)
	}
	if p := Power(x); !almostEqual(p, 1, 1e-12) {
		t.Fatalf("Power = %g, want 1", p)
	}
	if p := Power(nil); p != 0 {
		t.Fatalf("Power(nil) = %g, want 0", p)
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-40, -3, 0, 3, 20, 32} {
		if got := DB(FromDB(db)); !almostEqual(got, db, 1e-9) {
			t.Fatalf("DB(FromDB(%g)) = %g", db, got)
		}
	}
	if !math.IsInf(DB(0), -1) {
		t.Fatal("DB(0) should be -inf")
	}
	if !math.IsInf(DB(-1), -1) {
		t.Fatal("DB(-1) should be -inf")
	}
}

func TestMixShiftsFrequency(t *testing.T) {
	fs := 1000.0
	n := 256
	x := Tone(n, 100, fs, 0)
	Mix(x, 50, fs, 0) // now at 150 Hz
	p150 := TonePower(x, 150, fs)
	p100 := TonePower(x, 100, fs)
	if p150 < 0.9 {
		t.Fatalf("power at 150 Hz after mix = %g, want ~1", p150)
	}
	if p100 > 0.05 {
		t.Fatalf("residual power at 100 Hz after mix = %g, want ~0", p100)
	}
}

func TestMixPhaseContinuity(t *testing.T) {
	fs := 1000.0
	freq := 123.0
	whole := Tone(512, 0, fs, 0) // DC signal of ones
	for i := range whole {
		whole[i] = 1
	}
	ref := Clone(whole)
	Mix(ref, freq, fs, 0)

	// Mix in two blocks, carrying the phase.
	blockA := whole[:200]
	blockB := whole[200:]
	a := make([]complex128, len(blockA))
	b := make([]complex128, len(blockB))
	for i := range a {
		a[i] = 1
	}
	for i := range b {
		b[i] = 1
	}
	ph := Mix(a, freq, fs, 0)
	Mix(b, freq, fs, ph)
	for i := range a {
		if !cAlmostEqual(a[i], ref[i], 1e-9) {
			t.Fatalf("block A sample %d mismatch", i)
		}
	}
	for i := range b {
		if !cAlmostEqual(b[i], ref[200+i], 1e-9) {
			t.Fatalf("block B sample %d mismatch: %v vs %v", i, b[i], ref[200+i])
		}
	}
}

func TestDotConjugateSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		x := make([]complex128, n)
		y := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		// <x,y> == conj(<y,x>)
		a := Dot(x, y)
		b := Dot(y, x)
		return cAlmostEqual(a, cmplx.Conj(b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddScaled(t *testing.T) {
	dst := []complex128{1, 2, 3}
	src := []complex128{1, 1}
	n := AddScaled(dst, src, 2)
	if n != 2 {
		t.Fatalf("AddScaled added %d samples, want 2", n)
	}
	if dst[0] != 3 || dst[1] != 4 || dst[2] != 3 {
		t.Fatalf("AddScaled result = %v", dst)
	}
}

// The phasor-recurrence Mix must agree with the per-sample Sincos
// reference to the rounding floor across block lengths that straddle the
// renorm anchors, including long blocks where naive recurrence error
// would otherwise accumulate.
func TestMixMatchesSincosReference(t *testing.T) {
	fs := 600e3
	for _, n := range []int{1, 255, 256, 257, 1000, 12000, 70000} {
		for _, freq := range []float64{50, -123.456, 45e3, -150e3} {
			x := make([]complex128, n)
			ref := make([]complex128, n)
			for i := range x {
				x[i] = complex(1, 0.5)
				ref[i] = x[i]
			}
			phase := 0.7
			Mix(x, freq, fs, phase)
			step := 2 * math.Pi * freq / fs
			for i := range ref {
				s, c := math.Sincos(phase + float64(i)*step)
				ref[i] *= complex(c, s)
			}
			for i := range x {
				if !cAlmostEqual(x[i], ref[i], 1e-10) {
					t.Fatalf("n=%d freq=%g: sample %d = %v, reference %v", n, freq, i, x[i], ref[i])
				}
			}
		}
	}
}

// Tone must stay unit-magnitude everywhere (the recurrence is re-anchored
// before amplitude drift becomes visible).
func TestTonePhasorUnitMagnitude(t *testing.T) {
	x := Tone(50000, 12345, 600e3, 0.3)
	for i, v := range x {
		if m := math.Hypot(real(v), imag(v)); math.Abs(m-1) > 1e-12 {
			t.Fatalf("sample %d magnitude = %g, want 1", i, m)
		}
	}
}

func BenchmarkMix12k(b *testing.B) {
	x := make([]complex128, 12000)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mix(x, 45e3, 600e3, 0)
	}
}

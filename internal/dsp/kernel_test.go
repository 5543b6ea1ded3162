package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"heartshield/internal/stats"
)

// Property tests for the DSP kernel contract (DESIGN.md "DSP kernel
// architecture"): every fast kernel must match its naive reference to
// 1e-9 at the awkward sizes — length 1, non-power-of-two inputs, tap
// counts exceeding the input and the FFT block — and must be 0-alloc
// warm through its plan. These tests are the admission gate for any
// future kernel change.

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for m := 0; m < n; m++ {
			acc += x[m] * cmplx.Exp(complex(0, sign*2*math.Pi*float64(k*m)/float64(n)))
		}
		y[k] = acc
	}
	return y
}

func randComplexRNG(rng *stats.RNG, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTPlanMatchesNaiveDFT(t *testing.T) {
	rng := stats.NewRNG(41)
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096} {
		x := randComplexRNG(rng, n)
		want := naiveDFT(x, false)
		got := append([]complex128(nil), x...)
		p := NewFFTPlan(n)
		p.Forward(got)
		tol := 1e-9 * float64(n)
		if d := maxAbsDiff(got, want); d > tol {
			t.Fatalf("n=%d: forward differs from naive DFT by %g (tol %g)", n, d, tol)
		}
		wantInv := naiveDFT(x, true)
		gotInv := append([]complex128(nil), x...)
		p.InverseRaw(gotInv)
		if d := maxAbsDiff(gotInv, wantInv); d > tol {
			t.Fatalf("n=%d: raw inverse differs from naive inverse DFT by %g (tol %g)", n, d, tol)
		}
		// Inverse must be InverseRaw scaled by 1/n, and round-trip to x.
		rt := append([]complex128(nil), x...)
		p.Forward(rt)
		p.Inverse(rt)
		if d := maxAbsDiff(rt, x); d > 1e-9*float64(n) {
			t.Fatalf("n=%d: IFFT(FFT(x)) differs from x by %g", n, d)
		}
	}
}

func TestOneShotFFTMatchesPlan(t *testing.T) {
	rng := stats.NewRNG(42)
	x := randComplexRNG(rng, 256)
	a := append([]complex128(nil), x...)
	b := append([]complex128(nil), x...)
	FFT(a)
	NewFFTPlan(256).Forward(b)
	if d := maxAbsDiff(a, b); d != 0 {
		t.Fatalf("one-shot FFT and plan disagree by %g; they must share a kernel", d)
	}
	IFFT(a)
	if d := maxAbsDiff(a, x); d > 1e-9*256 {
		t.Fatalf("one-shot round trip differs from input by %g", d)
	}
}

func TestRFFTMatchesComplexFFT(t *testing.T) {
	rng := stats.NewRNG(43)
	for _, n := range []int{2, 4, 8, 16, 64, 256, 1024, 2048} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Normal(0, 1)
		}
		// Reference: complexify and run the full FFT.
		cx := make([]complex128, n)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		FFT(cx)
		p := NewRFFTPlan(n)
		if p.Size() != n || p.Bins() != n/2+1 {
			t.Fatalf("n=%d: Size/Bins = %d/%d", n, p.Size(), p.Bins())
		}
		got := p.Forward(make([]complex128, p.Bins()), x)
		tol := 1e-9 * float64(n)
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(got[k] - cx[k]); d > tol {
				t.Fatalf("n=%d bin %d: RFFT = %v, complex FFT = %v (diff %g)", n, k, got[k], cx[k], d)
			}
		}
		// Round trip.
		back := p.Inverse(make([]float64, n), got)
		for i := range x {
			if d := math.Abs(back[i] - x[i]); d > tol {
				t.Fatalf("n=%d sample %d: inverse round trip differs by %g", n, i, d)
			}
		}
	}
}

func TestRFFTPanicsOnOddLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRFFTPlan(6) should panic: not a power of two")
		}
	}()
	NewRFFTPlan(6)
}

func TestFIRPlanMatchesDirect(t *testing.T) {
	rng := stats.NewRNG(44)
	// Awkward shapes on purpose: length-1 inputs, non-power-of-two
	// lengths, taps longer than the input, and (via FIRPlan's 4m block
	// rule) every block-boundary alignment.
	cases := []struct{ n, m int }{
		{1, 1}, {1, 5}, {2, 3}, {3, 7}, {17, 4}, {40, 129},
		{100, 31}, {257, 48}, {1000, 101}, {1023, 129}, {4096, 257},
		{5, 64}, {129, 129},
	}
	for _, tc := range cases {
		taps := randComplexRNG(rng, tc.m)
		x := randComplexRNG(rng, tc.n)
		ref := NewFIR(taps).filterDirect(x)
		p := NewFIRPlan(taps)
		got := p.Filter(nil, x)
		tol := 1e-9 * float64(tc.m)
		if d := maxAbsDiff(got, ref); d > tol {
			t.Fatalf("n=%d m=%d: overlap-save differs from direct by %g (tol %g)", tc.n, tc.m, d, tol)
		}
		// Reusing a destination must give identical output.
		dst := make([]complex128, tc.n)
		p.Filter(dst, x)
		if d := maxAbsDiff(dst, got); d != 0 {
			t.Fatalf("n=%d m=%d: reused-dst output differs", tc.n, tc.m)
		}
	}
}

func TestFIRPlanRealMatchesComplex(t *testing.T) {
	rng := stats.NewRNG(45)
	taps := make([]float64, 101)
	ctaps := make([]complex128, len(taps))
	for i := range taps {
		taps[i] = rng.Normal(0, 1)
		ctaps[i] = complex(taps[i], 0)
	}
	x := randComplexRNG(rng, 777)
	a := NewFIRPlanReal(taps).Filter(nil, x)
	b := NewFIRPlan(ctaps).Filter(nil, x)
	if d := maxAbsDiff(a, b); d > 1e-9*float64(len(taps)) {
		t.Fatalf("real-taps plan differs from complex-taps plan by %g", d)
	}
}

func TestFIRFilterUsesPlanForLongFilters(t *testing.T) {
	// FIR.Filter must agree with the direct reference regardless of
	// which algorithm it picks.
	rng := stats.NewRNG(46)
	for _, m := range []int{3, 47, 48, 129} {
		taps := randComplexRNG(rng, m)
		x := randComplexRNG(rng, 1500)
		f := NewFIR(taps)
		got := f.Filter(x)
		ref := f.filterDirect(x)
		if d := maxAbsDiff(got, ref); d > 1e-9*float64(m) {
			t.Fatalf("m=%d: Filter differs from direct reference by %g", m, d)
		}
	}
}

func TestFFTPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race; concurrency is covered by TestPlansConcurrentSharedUse")
	}
	p := NewFFTPlan(256)
	buf := make([]complex128, 256)
	p.Forward(buf) // warm the pool
	if n := testing.AllocsPerRun(100, func() {
		p.Forward(buf)
		p.InverseRaw(buf)
	}); n != 0 {
		t.Fatalf("warm FFTPlan transforms allocate %v times per run, want 0", n)
	}
}

func TestRFFTPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race; concurrency is covered by TestPlansConcurrentSharedUse")
	}
	p := NewRFFTPlan(1024)
	x := make([]float64, 1024)
	spec := make([]complex128, p.Bins())
	p.Forward(spec, x)
	if n := testing.AllocsPerRun(100, func() {
		p.Forward(spec, x)
		p.Inverse(x, spec)
	}); n != 0 {
		t.Fatalf("warm RFFTPlan transforms allocate %v times per run, want 0", n)
	}
}

func TestFIRPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race; concurrency is covered by TestPlansConcurrentSharedUse")
	}
	rng := stats.NewRNG(47)
	p := NewFIRPlan(randComplexRNG(rng, 129))
	x := randComplexRNG(rng, 4096)
	dst := make([]complex128, len(x))
	p.Filter(dst, x)
	if n := testing.AllocsPerRun(100, func() {
		p.Filter(dst, x)
	}); n != 0 {
		t.Fatalf("warm FIRPlan.Filter allocates %v times per run, want 0", n)
	}
}

// TestPlansConcurrentSharedUse proves the concurrency half of the plan
// contract: one process-wide plan of each kind used from many
// goroutines at once (the fleet harness runs sessions in parallel over
// the same cached plans), every result identical to the serial one.
// This is the test the race leg of `make race` is for.
func TestPlansConcurrentSharedUse(t *testing.T) {
	rng := stats.NewRNG(51)
	const n = 1024
	fp := NewFFTPlan(n)
	rp := NewRFFTPlan(n)
	taps := randComplexRNG(rng, 129)
	pp := NewFIRPlan(taps)

	cx := randComplexRNG(rng, n)
	rx := make([]float64, n)
	for i := range rx {
		rx[i] = rng.Normal(0, 1)
	}
	fx := randComplexRNG(rng, 3000)

	wantC := append([]complex128(nil), cx...)
	fp.Forward(wantC)
	wantR := rp.Forward(make([]complex128, rp.Bins()), rx)
	wantF := pp.Filter(nil, fx)

	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for iter := 0; iter < 50; iter++ {
				a := append([]complex128(nil), cx...)
				fp.Forward(a)
				if d := maxAbsDiff(a, wantC); d != 0 {
					done <- fmt.Errorf("concurrent FFT differs by %g", d)
					return
				}
				b := rp.Forward(make([]complex128, rp.Bins()), rx)
				if d := maxAbsDiff(b, wantR); d != 0 {
					done <- fmt.Errorf("concurrent RFFT differs by %g", d)
					return
				}
				c := pp.Filter(nil, fx)
				if d := maxAbsDiff(c, wantF); d != 0 {
					done <- fmt.Errorf("concurrent FIR differs by %g", d)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// Kernel microbenchmarks at the sizes the simulation actually runs:
// 256-point blocks (jam synthesis, PSD segments), 1024 (FIR overlap-save
// blocks for the adversary's 129-tap band-pass), and the end-to-end
// 129-tap filter over a response-window-sized input.

func benchFFTForward(b *testing.B, n int) {
	p := NewFFTPlan(n)
	buf := make([]complex128, n)
	rng := stats.NewRNG(48)
	for i := range buf {
		buf[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(buf)
	}
}

func BenchmarkFFTForward256(b *testing.B)  { benchFFTForward(b, 256) }
func BenchmarkFFTForward1024(b *testing.B) { benchFFTForward(b, 1024) }
func BenchmarkFFTForward8192(b *testing.B) { benchFFTForward(b, 8192) }

func BenchmarkFFTInverseRaw256(b *testing.B) {
	p := NewFFTPlan(256)
	buf := make([]complex128, 256)
	b.SetBytes(16 * 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InverseRaw(buf)
	}
}

func BenchmarkRFFTForward1024(b *testing.B) {
	p := NewRFFTPlan(1024)
	x := make([]float64, 1024)
	rng := stats.NewRNG(49)
	for i := range x {
		x[i] = rng.Normal(0, 1)
	}
	spec := make([]complex128, p.Bins())
	b.SetBytes(8 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(spec, x)
	}
}

func BenchmarkFIRPlan129Taps(b *testing.B) {
	rng := stats.NewRNG(50)
	p := NewFIRPlan(randComplexRNG(rng, 129))
	x := randComplexRNG(rng, 13140)
	dst := make([]complex128, len(x))
	b.SetBytes(int64(16 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Filter(dst, x)
	}
}

func BenchmarkFIRDirect129Taps(b *testing.B) {
	rng := stats.NewRNG(50)
	f := NewFIR(randComplexRNG(rng, 129))
	x := randComplexRNG(rng, 13140)
	b.SetBytes(int64(16 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.filterDirect(x)
	}
}

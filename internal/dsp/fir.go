package dsp

import (
	"fmt"
	"math"
	"sync"
)

// FIR is a finite-impulse-response filter with real or complex taps.
// Long filters are applied by FFT overlap-save through a lazily built
// FIRPlan; short ones use the direct dot-product form. Both produce the
// same "same"-aligned output (the property tests pin them together to
// 1e-9), so callers never choose an algorithm.
type FIR struct {
	taps []complex128
	// realTaps is the designed real prototype when the filter came from
	// NewFIRReal/LowPassFIR; it lets the lazy plan build its tap
	// spectrum through the half-size real-input transform.
	realTaps []float64
	planOnce sync.Once
	plan     *FIRPlan
}

// NewFIR wraps taps in a FIR filter. The taps slice is not copied and
// must not be modified after construction (the overlap-save plan caches
// the tap spectrum on first use).
func NewFIR(taps []complex128) *FIR {
	if len(taps) == 0 {
		panic("dsp: FIR requires at least one tap")
	}
	return &FIR{taps: taps}
}

// NewFIRReal builds a FIR filter from real-valued taps.
func NewFIRReal(taps []float64) *FIR {
	c := make([]complex128, len(taps))
	for i, t := range taps {
		c[i] = complex(t, 0)
	}
	f := NewFIR(c)
	f.realTaps = taps
	return f
}

// firPlanMinTaps is the tap count above which Filter switches from the
// direct O(N·m) loop to the overlap-save plan: below it the FFTs cost
// more than they save at the block sizes NewFIRPlan picks.
const firPlanMinTaps = 48

// Filter convolves x with the filter taps and returns the "same"-length
// output aligned so that output[i] corresponds to input[i] with the filter's
// group delay removed (for symmetric filters). Edges are zero-padded.
func (f *FIR) Filter(x []complex128) []complex128 {
	m := len(f.taps)
	if m >= firPlanMinTaps && len(x) >= 2*m {
		f.planOnce.Do(func() {
			if f.realTaps != nil {
				f.plan = NewFIRPlanReal(f.realTaps)
			} else {
				f.plan = NewFIRPlan(f.taps)
			}
		})
		return f.plan.Filter(nil, x)
	}
	return f.filterDirect(x)
}

// filterDirect is the O(N·m) dot-product form — the reference the
// overlap-save plan is property-tested against.
func (f *FIR) filterDirect(x []complex128) []complex128 {
	n := len(x)
	m := len(f.taps)
	y := make([]complex128, n)
	delay := (m - 1) / 2
	for i := 0; i < n; i++ {
		var acc complex128
		// y[i] = sum_k taps[k] * x[i + delay - k]
		base := i + delay
		kLo := 0
		if base-(n-1) > 0 {
			kLo = base - (n - 1)
		}
		kHi := m - 1
		if base < kHi {
			kHi = base
		}
		for k := kLo; k <= kHi; k++ {
			acc += f.taps[k] * x[base-k]
		}
		y[i] = acc
	}
	return y
}

// FIRPlan applies a fixed set of FIR taps by FFT overlap-save: the tap
// spectrum is computed once at plan build, and each Filter call runs one
// forward and one inverse transform per block of blockLen-tapLen+1
// output samples, turning O(N·m) filtering into O(N log B). Output
// alignment matches FIR.Filter exactly ("same" length, group delay
// removed, zero-padded edges).
//
// Buffer ownership: Filter writes into the caller's dst (allocating only
// when dst is nil) and retains no reference to dst or x; per-call block
// scratch comes from an internal sync.Pool, so filtering into a reused
// dst is 0-alloc warm (see TestFIRPlanAllocs). The plan is read-only
// after construction and safe for concurrent use.
type FIRPlan struct {
	m     int // tap count
	delay int // group-delay shift of the "same" alignment, (m-1)/2
	block int // FFT size B
	step  int // valid output samples per block, B-m+1
	fft   *FFTPlan
	// spec is the tap spectrum with the inverse transform's 1/B folded
	// in, so blocks use InverseRaw and skip a scaling pass.
	spec []complex128
	work sync.Pool // *[]complex128 of length block
}

// NewFIRPlan builds an overlap-save plan for the given taps. The taps
// are consumed at construction (their spectrum is cached); the slice is
// not retained.
func NewFIRPlan(taps []complex128) *FIRPlan {
	p := newFIRPlanShell(len(taps))
	buf := make([]complex128, p.block)
	copy(buf, taps)
	p.fft.Forward(buf)
	Scale(buf, 1/float64(p.block))
	p.spec = buf
	return p
}

// NewFIRPlanReal builds an overlap-save plan from real-valued taps,
// computing the tap spectrum through the half-size real-input transform
// and mirroring the Hermitian half onto the full block.
func NewFIRPlanReal(taps []float64) *FIRPlan {
	p := newFIRPlanShell(len(taps))
	b := p.block
	pad := make([]float64, b)
	copy(pad, taps)
	spec := make([]complex128, b)
	rp := NewRFFTPlan(b)
	rp.Forward(spec[:rp.Bins()], pad)
	inv := 1 / float64(b)
	for k := 0; k <= b/2; k++ {
		spec[k] = complex(real(spec[k])*inv, imag(spec[k])*inv)
	}
	for k := b/2 + 1; k < b; k++ {
		c := spec[b-k]
		spec[k] = complex(real(c), -imag(c))
	}
	p.spec = spec
	return p
}

func newFIRPlanShell(m int) *FIRPlan {
	if m == 0 {
		panic("dsp: FIR plan requires at least one tap")
	}
	block := NextPowerOfTwo(4 * m)
	if block < 64 {
		block = 64
	}
	p := &FIRPlan{
		m:     m,
		delay: (m - 1) / 2,
		block: block,
		step:  block - m + 1,
		fft:   NewFFTPlan(block),
	}
	p.work.New = func() any {
		b := make([]complex128, block)
		return &b
	}
	return p
}

// Filter convolves x with the planned taps into dst and returns it, with
// FIR.Filter's "same" alignment. If dst is nil a new slice is allocated;
// otherwise len(dst) must equal len(x). dst must not alias x — each
// block reads input the previous block's output positions overlap.
func (p *FIRPlan) Filter(dst, x []complex128) []complex128 {
	n := len(x)
	if dst == nil {
		dst = make([]complex128, n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("dsp: FIR plan output length %d != input length %d", len(dst), n))
	}
	if n == 0 {
		return dst
	}
	wp := p.work.Get().(*[]complex128)
	buf := *wp
	m, b := p.m, p.block
	// Walk the full-convolution coordinate c: conv[c] = sum_k taps[k]*x[c-k],
	// dst[i] = conv[i+delay]. Each block loads x[c0-(m-1) .. c0-(m-1)+B-1]
	// (zero-padded outside x) and yields conv[c0 .. c0+step-1] at buf[m-1..].
	for c0 := p.delay; c0 < n+p.delay; c0 += p.step {
		lo := c0 - (m - 1)
		for q := 0; q < b; q++ {
			xi := lo + q
			if xi >= 0 && xi < n {
				buf[q] = x[xi]
			} else {
				buf[q] = 0
			}
		}
		p.fft.Forward(buf)
		for q, h := range p.spec {
			buf[q] *= h
		}
		p.fft.InverseRaw(buf)
		out := p.step
		if c0+out > n+p.delay {
			out = n + p.delay - c0
		}
		copy(dst[c0-p.delay:c0-p.delay+out], buf[m-1:m-1+out])
	}
	p.work.Put(wp)
	return dst
}

// LowPassFIR designs a windowed-sinc low-pass filter with the given cutoff
// frequency (Hz), sample rate fs (Hz), tap count (odd preferred), and window.
// The passband gain is normalized to unity at DC.
func LowPassFIR(cutoffHz, fs float64, taps int, w Window) *FIR {
	if cutoffHz <= 0 || cutoffHz >= fs/2 {
		panic(fmt.Sprintf("dsp: low-pass cutoff %g Hz out of range (0, %g)", cutoffHz, fs/2))
	}
	if taps < 3 {
		panic("dsp: low-pass filter needs at least 3 taps")
	}
	h := make([]float64, taps)
	fc := cutoffHz / fs // normalized cutoff (cycles per sample)
	mid := float64(taps-1) / 2
	win := w.Coefficients(taps)
	var sum float64
	for i := range h {
		t := float64(i) - mid
		var v float64
		if t == 0 {
			v = 2 * fc
		} else {
			v = math.Sin(2*math.Pi*fc*t) / (math.Pi * t)
		}
		v *= win[i]
		h[i] = v
		sum += v
	}
	// Normalize DC gain to 1.
	for i := range h {
		h[i] /= sum
	}
	return NewFIRReal(h)
}

// BandPassFIR designs a complex band-pass filter centered at centerHz with
// the given one-sided half bandwidth (Hz): the passband is
// [centerHz-halfBandHz, centerHz+halfBandHz]. It is built by heterodyning a
// low-pass prototype, so it works for negative center frequencies too.
func BandPassFIR(centerHz, halfBandHz, fs float64, taps int, w Window) *FIR {
	lp := LowPassFIR(halfBandHz, fs, taps, w)
	c := make([]complex128, taps)
	step := 2 * math.Pi * centerHz / fs
	mid := float64(taps-1) / 2
	for i := range c {
		s, cos := math.Sincos(step * (float64(i) - mid))
		c[i] = lp.taps[i] * complex(cos, s)
	}
	return NewFIR(c)
}

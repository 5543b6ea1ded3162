package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// The FFT kernel is a Stockham autosort radix-4 (+ radix-2 tail)
// decimation-in-frequency transform. Compared to the radix-2
// bit-reversal kernel it replaces (PR 1-8), it removes the permutation
// pass entirely — every stage reads one buffer and writes the other in
// sequential order — and the radix-4 butterfly does the work of two
// radix-2 stages with half the twiddle multiplies. Twiddles are stored
// per stage as contiguous (w, w², w³) triples in exactly the order the
// butterfly loop consumes them, so a stage streams through its table
// once per transform with unit stride (the "cache-blocked" layout from
// DESIGN.md §DSP kernel architecture).

// FFT computes the in-place unnormalized fast Fourier transform of x:
// X[k] = sum_n x[n] e^{-j 2π kn/N}. len(x) must be a power of two (0 and
// 1 are allowed and leave x unchanged). It delegates to a process-wide
// cached FFTPlan for the size, so repeated one-shot calls pay no
// per-call trigonometry.
func FFT(x []complex128) {
	if len(x) <= 1 {
		return
	}
	NewFFTPlan(len(x)).Forward(x)
}

// IFFT computes the in-place inverse FFT with 1/N normalization, so that
// IFFT(FFT(x)) == x up to rounding.
func IFFT(x []complex128) {
	if len(x) <= 1 {
		return
	}
	NewFFTPlan(len(x)).Inverse(x)
}

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n (n must be > 0).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// fftStage holds one Stockham radix-4 pass: m butterfly groups of stride
// s, with forward and inverse twiddle triples (w^j, w^2j, w^3j) laid out
// contiguously in consumption order.
type fftStage struct {
	m, s int
	twF  []complex128
	twI  []complex128
}

// FFTPlan caches the per-stage twiddle tables and a ping-pong work
// buffer pool for a fixed power-of-two transform size. A plan is
// read-only after construction and safe for concurrent use; per-call
// scratch comes from an internal sync.Pool, so transforms are 0-alloc
// warm (see TestFFTPlanAllocs).
//
// Buffer ownership: Forward/Inverse/InverseRaw operate in place on the
// caller's buffer and retain no reference to it. NewFFTPlan returns a
// plan from a process-wide cache keyed by size — callers may hold plans
// forever and share them freely; the twiddle tables behind two plans of
// the same size are the same memory.
//
// Table-based twiddles keep worst-case butterfly error at a few ULPs
// (no multiplicative recurrence), which is what the ≤1e-9 equivalence
// bound of the kernel property tests assumes.
type FFTPlan struct {
	n      int
	stages []fftStage
	hasR2  bool // trailing radix-2 stage for odd log2(n)
	work   sync.Pool
}

// planCache is the process-wide plan registry. Transform sizes in this
// codebase form a small fixed set (modem block sizes, jam synthesis
// blocks, PSD segment lengths), so the cache never grows past a handful
// of entries and plans live for the life of the process.
var planCache sync.Map // int -> *FFTPlan

// NewFFTPlan returns the shared plan for n-point transforms, building it
// on first use. n must be a power of two (1 is allowed and degenerates
// to the identity).
func NewFFTPlan(n int) *FFTPlan {
	if v, ok := planCache.Load(n); ok {
		return v.(*FFTPlan)
	}
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("dsp: FFT plan length %d is not a power of two", n))
	}
	v, _ := planCache.LoadOrStore(n, newFFTPlan(n))
	return v.(*FFTPlan)
}

func newFFTPlan(n int) *FFTPlan {
	p := &FFTPlan{n: n}
	p.work.New = func() any {
		b := make([]complex128, n)
		return &b
	}
	if n <= 1 {
		return p
	}
	for cn, cs := n, 1; cn >= 4; cn, cs = cn>>2, cs<<2 {
		m := cn / 4
		st := fftStage{m: m, s: cs, twF: make([]complex128, 3*m), twI: make([]complex128, 3*m)}
		for j := 0; j < m; j++ {
			for t := 1; t <= 3; t++ {
				s, c := math.Sincos(-2 * math.Pi * float64(t*j) / float64(cn))
				st.twF[3*j+t-1] = complex(c, s)
				st.twI[3*j+t-1] = complex(c, -s)
			}
		}
		p.stages = append(p.stages, st)
		if cn>>2 == 2 {
			p.hasR2 = true
		}
	}
	if n == 2 {
		p.hasR2 = true
	}
	return p
}

// Forward computes the in-place unnormalized FFT of x, whose length must
// be the plan's.
func (p *FFTPlan) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the in-place inverse FFT of x with 1/N normalization.
func (p *FFTPlan) Inverse(x []complex128) {
	p.transform(x, true)
	if p.n > 1 {
		Scale(x, 1/float64(p.n))
	}
}

// InverseRaw computes the in-place inverse FFT without the 1/N
// normalization, for callers (overlap-save correlation and filtering,
// jam synthesis) that fold the normalization into a precomputed spectrum
// instead of paying a scaling pass per transform.
func (p *FFTPlan) InverseRaw(x []complex128) { p.transform(x, true) }

func (p *FFTPlan) transform(x []complex128, inv bool) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("dsp: FFT plan size %d given buffer of length %d", n, len(x)))
	}
	if n <= 1 {
		return
	}
	wp := p.work.Get().(*[]complex128)
	src, dst := x, *wp
	for i := range p.stages {
		st := &p.stages[i]
		if inv {
			stageR4Inv(dst, src, st)
		} else {
			stageR4Fwd(dst, src, st)
		}
		src, dst = dst, src
	}
	if p.hasR2 {
		s := n / 2
		for q := 0; q < s; q++ {
			a, b := src[q], src[q+s]
			dst[q] = a + b
			dst[q+s] = a - b
		}
		src, dst = dst, src
	}
	if &src[0] != &x[0] {
		copy(x, src)
	}
	p.work.Put(wp)
}

// stageR4Fwd runs one forward radix-4 Stockham pass from src into dst.
// The s==1 first stage is specialized: its inner loop is unit-stride in
// both buffers and the twiddle triple is re-read per group.
func stageR4Fwd(dst, src []complex128, st *fftStage) {
	m, s := st.m, st.s
	tw := st.twF
	if s == 1 {
		for j := 0; j < m; j++ {
			a, b, c, d := src[j], src[j+m], src[j+2*m], src[j+3*m]
			apc, amc := a+c, a-c
			bpd := b + d
			bmd := b - d
			jb := complex(-imag(bmd), real(bmd)) // i*(b-d)
			dst[4*j] = apc + bpd
			dst[4*j+1] = (amc - jb) * tw[3*j]
			dst[4*j+2] = (apc - bpd) * tw[3*j+1]
			dst[4*j+3] = (amc + jb) * tw[3*j+2]
		}
		return
	}
	for j := 0; j < m; j++ {
		w1, w2, w3 := tw[3*j], tw[3*j+1], tw[3*j+2]
		i0 := s * j
		i1 := s * (j + m)
		i2 := s * (j + 2*m)
		i3 := s * (j + 3*m)
		o0 := s * 4 * j
		for q := 0; q < s; q++ {
			a, b, c, d := src[i0+q], src[i1+q], src[i2+q], src[i3+q]
			apc, amc := a+c, a-c
			bpd := b + d
			bmd := b - d
			jb := complex(-imag(bmd), real(bmd))
			dst[o0+q] = apc + bpd
			dst[o0+s+q] = (amc - jb) * w1
			dst[o0+2*s+q] = (apc - bpd) * w2
			dst[o0+3*s+q] = (amc + jb) * w3
		}
	}
}

// stageR4Inv is stageR4Fwd with conjugate twiddles and the sign of the
// i*(b-d) rotation flipped — the radix-4 DIF butterfly of the inverse
// transform.
func stageR4Inv(dst, src []complex128, st *fftStage) {
	m, s := st.m, st.s
	tw := st.twI
	if s == 1 {
		for j := 0; j < m; j++ {
			a, b, c, d := src[j], src[j+m], src[j+2*m], src[j+3*m]
			apc, amc := a+c, a-c
			bpd := b + d
			bmd := b - d
			jb := complex(-imag(bmd), real(bmd))
			dst[4*j] = apc + bpd
			dst[4*j+1] = (amc + jb) * tw[3*j]
			dst[4*j+2] = (apc - bpd) * tw[3*j+1]
			dst[4*j+3] = (amc - jb) * tw[3*j+2]
		}
		return
	}
	for j := 0; j < m; j++ {
		w1, w2, w3 := tw[3*j], tw[3*j+1], tw[3*j+2]
		i0 := s * j
		i1 := s * (j + m)
		i2 := s * (j + 2*m)
		i3 := s * (j + 3*m)
		o0 := s * 4 * j
		for q := 0; q < s; q++ {
			a, b, c, d := src[i0+q], src[i1+q], src[i2+q], src[i3+q]
			apc, amc := a+c, a-c
			bpd := b + d
			bmd := b - d
			jb := complex(-imag(bmd), real(bmd))
			dst[o0+q] = apc + bpd
			dst[o0+s+q] = (amc + jb) * w1
			dst[o0+2*s+q] = (apc - bpd) * w2
			dst[o0+3*s+q] = (amc - jb) * w3
		}
	}
}

// FFTShiftFloat reorders real-valued FFT bins (e.g. a PSD) in place so the
// zero-frequency bin is centered. It requires an even length.
func FFTShiftFloat(x []float64) {
	n := len(x)
	if n%2 != 0 {
		panic("dsp: FFTShiftFloat requires even length")
	}
	h := n / 2
	for i := 0; i < h; i++ {
		x[i], x[i+h] = x[i+h], x[i]
	}
}

// BinFrequencies returns the center frequency in Hz of each FFT bin for an
// n-point transform at sample rate fs, in natural FFT order
// (0, fs/n, ..., -fs/n).
func BinFrequencies(n int, fs float64) []float64 {
	f := make([]float64, n)
	for k := range f {
		if k <= n/2-1 || n == 1 {
			f[k] = float64(k) * fs / float64(n)
		} else {
			f[k] = float64(k-n) * fs / float64(n)
		}
	}
	return f
}

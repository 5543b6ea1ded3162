package stats

import "math"

// randSource is a devirtualized replica of math/rand's default generator:
// the additive lagged-Fibonacci source behind rand.NewSource plus the
// ziggurat normal sampler behind rand.(*Rand).NormFloat64. It produces
// streams bit-identical to rand.New(rand.NewSource(seed)) for every method
// the simulator uses — the stream-equality tests in randsource_test.go
// pin that contract per method and per seed.
//
// Why a replica instead of *rand.Rand: the receiver noise path draws two
// normals per observed sample, ~100k draws per protected exchange, and
// rand.Rand routes every draw through a Source64 interface call that the
// compiler cannot devirtualize or inline; concrete types let the draw
// inline into the ziggurat fast path. Draw sequences are physics here —
// every figure golden depends on them — so speed must never change the
// stream: any change to this file has to keep the equality tests green.
//
// State layout. math/rand keeps a 607-word register vec and two indices
// that step downward with a wrap test each; draw n computes
// vec[f] += vec[(f+273) mod 607] and returns it. Here the register is
// stored reversed, w[k] = vec[606-k], so draws run upward from a cursor
// and the recurrence becomes w[k] += w[k+334] for k < 273 and
// w[k] += w[k-273] for k ≥ 273. In each 607-draw round the first form
// reads words not yet advanced this round and the second reads words
// already advanced, which is exactly what two forward loops over the
// whole register compute — so refill advances all 607 lags at once,
// branch-free, and every draw between refills is a load and an increment.
// Seeding pre-advances 273..606 (math/rand's first 334 draws) and starts
// the cursor at 273.
//
// The rngCooked/kn/wn/fn tables in randsource_tables.go are generated from
// the Go toolchain's own math/rand sources (see gen_randsource_tables.go).
type randSource struct {
	cur int // next word of w to hand out; rngLen means refill first
	w   [rngLen]int64
}

//go:generate go run gen_randsource_tables.go

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = (1 << 63) - 1
	int32max = (1 << 31) - 1
	// lehmerA is the multiplier of math/rand's Lehmer seeding sequence
	// x_{n+1} = lehmerA·x_n mod int32max.
	lehmerA = 48271
	// zigguratR is the ziggurat tail cutoff for the standard normal
	// (math/rand's rn).
	zigguratR = 3.442619855899
)

// wn64 is an exact float64 widening of the float32 ziggurat strip-width
// table, precomputed so the NormFloat64 fast path avoids a per-draw
// conversion. Widening float32 to float64 is exact, so using wn64 in the
// fast-path product keeps the result bit-identical to math/rand's
// float64(j) * float64(wn[i]).
var wn64 [128]float64

// seedPow[i] holds lehmerA^(21+3i), lehmerA^(22+3i) and lehmerA^(23+3i)
// mod int32max: the powers that map a seed straight to the three Lehmer
// terms math/rand folds into register word i (see seed).
var seedPow [rngLen][3]uint64

// wedges[i] bounds exp(-x²/2) over the wedge of strip i (1..127), the
// range of |x| in [knTab[i]·wn, 2³¹·wn] that falls through the fast path
// to the wedge test (see wedgeAccept). With c the midpoint of that range,
// h = |x| - c and w = -h(c + h/2), exp(-x²/2) = f·eʷ for f = exp(-c²/2),
// and eʷ is within w⁵eʷ/120 of its degree-4 Taylor polynomial; tol is
// f times that remainder at the widest |h|, plus 2⁻²². The 2⁻²² covers
// the rounding of float32(math.Exp(-x²/2)) (at most 2⁻²⁵ below 1) and
// the float64 evaluation of the polynomial, with room to spare.
var wedges [128]struct{ c, f, tol float64 }

func init() {
	for i := range wnTab {
		wn64[i] = float64(wnTab[i])
	}
	for i := 1; i < len(wedges); i++ {
		lo, hi := float64(knTab[i])*wn64[i], (1<<31)*wn64[i]
		c, hw := (lo+hi)/2, (hi-lo)/2
		f := math.Exp(-c * c / 2)
		w := hw * (c + hw/2)
		wedges[i].c, wedges[i].f = c, f
		wedges[i].tol = f*math.Pow(w, 5)/120*math.Exp(w) + 0x1p-22
	}
	p := uint64(1)
	for n := 1; n <= 20+3*rngLen; n++ {
		p = mulMod31(p, lehmerA)
		if n > 20 {
			seedPow[(n-21)/3][(n-21)%3] = p
		}
	}
}

// mulMod31 returns a·b mod 2³¹−1 for a, b < 2³¹ without dividing: the
// modulus is a Mersenne number, so 2³¹ ≡ 1 and two folds of the high bits
// onto the low bits reduce the 62-bit product to [0, 2³¹−1]. Only a
// multiple of the modulus reduces to 2³¹−1 itself, and seeding never
// forms one (its terms are powers of a unit times a nonzero residue).
func mulMod31(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	return p&int32max + p>>31
}

// seed resets s in place to the stream of rand.NewSource(seed).
//
// math/rand fills register word i from the Lehmer terms x_{21+3i},
// x_{22+3i} and x_{23+3i} of x_{n+1} = 48271·x_n mod (2³¹−1), walking
// the 1,841-step chain one dependent division at a time. The closed form
// x_n = 48271ⁿ·x₀ mod (2³¹−1) makes every word independent of the
// others: three multiplies by precomputed powers and two Mersenne folds
// each.
func (s *randSource) seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x0 := uint64(seed)
	for i := range seedPow {
		p := &seedPow[i]
		u := int64(mulMod31(p[0], x0))<<40 ^ int64(mulMod31(p[1], x0))<<20 ^ int64(mulMod31(p[2], x0))
		s.w[rngLen-1-i] = u ^ rngCookedTab[i]
	}
	s.advanceUpper()
	s.cur = rngTap
}

// refill advances every lag one round (the next 607 draws) and rewinds
// the cursor. It is kept out of line so that next, which calls it once
// per 607 draws, stays small enough to inline into every draw.
//
//go:noinline
func (s *randSource) refill() {
	lo, hi := s.w[:rngTap], s.w[rngLen-rngTap:]
	for k := range lo {
		lo[k] += hi[k]
	}
	s.advanceUpper()
	s.cur = 0
}

// advanceUpper advances words rngTap..rngLen-1, each from the word rngTap
// below it — already advanced this round.
func (s *randSource) advanceUpper() {
	hi, lo := s.w[rngTap:], s.w[:rngLen-rngTap]
	for k := range hi {
		hi[k] += lo[k]
	}
}

// next returns the next raw 64-bit register word (before masking).
func (s *randSource) next() int64 {
	if s.cur == rngLen {
		s.refill()
	}
	x := s.w[s.cur]
	s.cur++
	return x
}

// Int63 returns a uniform int64 in [0, 1<<63).
func (s *randSource) Int63() int64 { return s.next() & rngMask }

// Uint32 matches rand.(*Rand).Uint32.
func (s *randSource) Uint32() uint32 { return uint32(s.Int63() >> 31) }

// Int31 matches rand.(*Rand).Int31.
func (s *randSource) Int31() int32 { return int32(s.Int63() >> 32) }

// Float64 returns a uniform sample in [0,1), preserving math/rand's
// historical Int63-over-2^63 value stream (including the retry on 1.0).
func (s *randSource) Float64() float64 {
again:
	f := float64(s.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// Int31n matches rand.(*Rand).Int31n: masked draw for powers of two,
// modulo with rejection otherwise.
func (s *randSource) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return s.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.Int31()
	for v > max {
		v = s.Int31()
	}
	return v % n
}

// Int63n matches rand.(*Rand).Int63n.
func (s *randSource) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// Intn matches rand.(*Rand).Intn, including the Int31n/Int63n width split.
func (s *randSource) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.Int31n(int32(n)))
	}
	return int(s.Int63n(int64(n)))
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// NormFloat64 is math/rand's ziggurat sampler. About 97.2% of normals
// take the fast path — one register word, one table compare, one
// multiply; the strip-overlap wedge test (2.7% of normals) and the
// base-strip tail (0.06%) fall through to normSlow so the fast path stays
// small and branch-predictable. One normal costs 1.041 register words on
// average (measured over 16M draws).
func (s *randSource) NormFloat64() float64 {
	for {
		// j = int32(Uint32()), possibly negative; the sign picks the
		// half-axis. Uint32 is bits 31..62 of the register word.
		j := int32(uint32(uint64(s.next()) >> 31))
		i := j & 0x7F
		x := float64(j) * wn64[i]
		if absInt32(j) < knTab[i] {
			return x
		}
		if s.normSlow(j, i, &x) {
			return x
		}
	}
}

// normFill overwrites dst with the next len(dst) NormFloat64 draws. It
// walks the register in runs: a run is the words left before the next
// refill, cut to the draws still wanted, and every word of it is one
// fast-path normal, so the loop tests neither the refill nor the end of
// dst per word. A word that falls off the fast path ends the run; that
// normal finishes through normSlow and, if the wedge rejects it,
// NormFloat64, both of which draw through s.
func (s *randSource) normFill(dst []float64) {
outer:
	for len(dst) > 0 {
		if s.cur == rngLen {
			s.refill()
		}
		run := s.w[s.cur:]
		if len(run) > len(dst) {
			run = run[:len(dst)]
		}
		out := dst[:len(run)]
		for n, v := range run {
			j := int32(uint32(uint64(v) >> 31))
			i := j & 0x7F
			x := float64(j) * wn64[i]
			if absInt32(j) < knTab[i] {
				out[n] = x
				continue
			}
			s.cur += n + 1
			if !s.normSlow(j, i, &x) {
				x = s.NormFloat64()
			}
			out[n] = x
			dst = dst[n+1:]
			continue outer
		}
		s.cur += len(run)
		dst = dst[len(run):]
	}
}

// normSlow handles the ziggurat strip-overlap and base-strip tail cases,
// writing the accepted sample through out. It reports whether a sample
// was accepted; on false the caller redraws.
func (s *randSource) normSlow(j, i int32, out *float64) bool {
	x := *out
	if i == 0 {
		for {
			x = -math.Log(s.Float64()) * (1.0 / zigguratR)
			y := -math.Log(s.Float64())
			if y+y >= x*x {
				break
			}
		}
		if j > 0 {
			*out = zigguratR + x
		} else {
			*out = -zigguratR - x
		}
		return true
	}
	if wedgeAccept(i, x, s.Float64()) {
		*out = x
		return true
	}
	return false
}

// wedgeAccept is the wedge test of strip i (1..127) for the candidate x
// and the uniform draw u. It decides exactly what math/rand's
//
//	fnTab[i]+float32(u)*(fnTab[i-1]-fnTab[i]) < float32(math.Exp(-.5*x*x))
//
// decides, but calls math.Exp only when the float32 left side lies within
// the strip's tol of the polynomial bound: outside that band the bound and
// the rounded exponential are on the same side of it (see wedges).
func wedgeAccept(i int32, x, u float64) bool {
	l := fnTab[i] + float32(u)*(fnTab[i-1]-fnTab[i])
	wd := &wedges[i]
	h := math.Abs(x) - wd.c
	w := -h * (wd.c + h/2)
	d := float64(l) - wd.f*(1+w*(1+w*(1.0/2+w*(1.0/6+w*(1.0/24)))))
	if d < -wd.tol {
		return true
	}
	if d > wd.tol {
		return false
	}
	return l < float32(math.Exp(-.5*x*x))
}

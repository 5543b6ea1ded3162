package stats

import (
	"math"
	"math/rand"
	"testing"
)

// The tests in this file are the contract for randsource.go: every method
// must reproduce math/rand's draw stream bit for bit, per seed. Figure
// goldens depend on these streams, so a red test here means golden drift.

var equalitySeeds = []int64{0, 1, 2, 9, -5, 42, 12345, 1<<31 - 1, 1 << 31, -(1 << 40), math.MaxInt64, math.MinInt64}

func TestRandSourceInt63Stream(t *testing.T) {
	for _, seed := range equalitySeeds {
		ref := rand.New(rand.NewSource(seed))
		got := newRandSource(seed)
		for i := 0; i < 5000; i++ {
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, g, w)
			}
		}
	}
}

func TestRandSourceFloat64Stream(t *testing.T) {
	for _, seed := range equalitySeeds {
		ref := rand.New(rand.NewSource(seed))
		got := newRandSource(seed)
		for i := 0; i < 5000; i++ {
			g, w := got.Float64(), ref.Float64()
			if g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, g, w)
			}
		}
	}
}

func TestRandSourceIntnStream(t *testing.T) {
	// Mix of power-of-two (mask path), odd (rejection path), and wide
	// (Int63n path) arguments, interleaved so rejection retries land on
	// the same underlying draws.
	ns := []int{1, 2, 3, 7, 256, 1000, 1 << 20, 1<<31 - 1, 1 << 31, 1<<62 + 3}
	for _, seed := range equalitySeeds {
		ref := rand.New(rand.NewSource(seed))
		got := newRandSource(seed)
		for i := 0; i < 2000; i++ {
			n := ns[i%len(ns)]
			if g, w := got.Intn(n), ref.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", seed, i, n, g, w)
			}
		}
	}
}

func TestRandSourceNormFloat64Stream(t *testing.T) {
	// Long runs so the ziggurat wedge (~2.7% of draws) and base-strip
	// tail (~0.06%) paths are both exercised many times.
	for _, seed := range equalitySeeds {
		ref := rand.New(rand.NewSource(seed))
		got := newRandSource(seed)
		n := 20000
		if seed == 9 || seed == 1 {
			n = 500000
		}
		for i := 0; i < n; i++ {
			g, w := got.NormFloat64(), ref.NormFloat64()
			if g != w {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, want %v", seed, i, g, w)
			}
		}
	}
}

func TestRandSourceInterleavedStream(t *testing.T) {
	// Interleave every method so state advances identically across
	// method boundaries, not just within homogeneous runs.
	for _, seed := range equalitySeeds {
		ref := rand.New(rand.NewSource(seed))
		got := newRandSource(seed)
		for i := 0; i < 3000; i++ {
			switch i % 5 {
			case 0:
				if g, w := got.NormFloat64(), ref.NormFloat64(); g != w {
					t.Fatalf("seed %d step %d: NormFloat64 = %v, want %v", seed, i, g, w)
				}
			case 1:
				if g, w := got.Float64(), ref.Float64(); g != w {
					t.Fatalf("seed %d step %d: Float64 = %v, want %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.Intn(256), ref.Intn(256); g != w {
					t.Fatalf("seed %d step %d: Intn(256) = %d, want %d", seed, i, g, w)
				}
			case 3:
				if g, w := got.Int63(), ref.Int63(); g != w {
					t.Fatalf("seed %d step %d: Int63 = %d, want %d", seed, i, g, w)
				}
			case 4:
				if g, w := got.Uint32(), ref.Uint32(); g != w {
					t.Fatalf("seed %d step %d: Uint32 = %d, want %d", seed, i, g, w)
				}
			}
		}
	}
}

func TestRNGMatchesMathRand(t *testing.T) {
	// End-to-end: the public RNG distribution methods against the same
	// formulas computed over a *rand.Rand, covering the exact call mix
	// the simulator uses.
	for _, seed := range equalitySeeds {
		ref := rand.New(rand.NewSource(seed))
		g := NewRNG(seed)
		for i := 0; i < 2000; i++ {
			switch i % 4 {
			case 0:
				want := 3.5 + 0.25*ref.NormFloat64()
				if got := g.Normal(3.5, 0.25); got != want {
					t.Fatalf("seed %d step %d: Normal = %v, want %v", seed, i, got, want)
				}
			case 1:
				s := math.Sqrt(2.0 / 2)
				want := complex(s*ref.NormFloat64(), s*ref.NormFloat64())
				if got := g.ComplexNormal(2.0); got != want {
					t.Fatalf("seed %d step %d: ComplexNormal = %v, want %v", seed, i, got, want)
				}
			case 2:
				want := math.Pow(10, (0.0+7.2*ref.NormFloat64())/10)
				if got := g.LogNormalDB(7.2); got != want {
					t.Fatalf("seed %d step %d: LogNormalDB = %v, want %v", seed, i, got, want)
				}
			case 3:
				want := ref.Float64() < 0.3
				if got := g.Bernoulli(0.3); got != want {
					t.Fatalf("seed %d step %d: Bernoulli = %v, want %v", seed, i, got, want)
				}
			}
		}
	}
}

func TestRandSourceAddComplexNormalStream(t *testing.T) {
	// The batched noise path must consume exactly the same draws as
	// per-sample ComplexNormal calls.
	ref := rand.New(rand.NewSource(77))
	g := NewRNG(77)
	dst := make([]complex128, 4096)
	g.AddComplexNormal(dst, 1.7)
	s := math.Sqrt(1.7 / 2)
	for i, v := range dst {
		want := complex(s*ref.NormFloat64(), s*ref.NormFloat64())
		if v != want {
			t.Fatalf("sample %d: %v, want %v", i, v, want)
		}
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	s := newRandSource(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.NormFloat64()
	}
	_ = sink
}

func BenchmarkNormFloat64Stdlib(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}

func BenchmarkAddComplexNormal4096(b *testing.B) {
	g := NewRNG(1)
	dst := make([]complex128, 4096)
	b.SetBytes(4096 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddComplexNormal(dst, 1.0)
	}
}

// exactWedge is math/rand's wedge test, the decision wedgeAccept must
// reproduce.
func exactWedge(i int32, x, u float64) bool {
	return fnTab[i]+float32(u)*(fnTab[i-1]-fnTab[i]) < float32(math.Exp(-.5*x*x))
}

// The squeeze may decide the wedge test from its polynomial bound only
// where that cannot differ from the exact test; right at the bound it
// must fall back to math.Exp. For every strip and a grid of x across its
// wedge (both signs), this drives the float32 left side through every
// value it can take within 8 ulps of float32(math.Exp(-x²/2)), on both
// sides of it.
func TestWedgeSqueezeAtTheBound(t *testing.T) {
	const grid, ulps = 64, 8
	decided, accepted := 0, 0
	for i := int32(1); i < 128; i++ {
		lo, hi := float64(knTab[i])*wn64[i], (1<<31)*wn64[i]
		base, span := fnTab[i], fnTab[i-1]-fnTab[i]
		left := func(f float32) float32 { return base + f*span }
		// first returns the least float32 draw in [0, 1) whose left side
		// is at least v (1 if there is none): positive floats order as
		// their bit patterns, so this is a binary search over the bits.
		first := func(v float32) float32 {
			lo, hi := uint32(0), math.Float32bits(1)
			for lo < hi {
				mid := lo + (hi-lo)/2
				if left(math.Float32frombits(mid)) >= v {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			return math.Float32frombits(lo)
		}
		for g := 0; g <= grid; g++ {
			x := lo + (hi-lo)*float64(g)/grid
			if g%2 == 1 {
				x = -x
			}
			r := float32(math.Exp(-.5 * x * x))
			v := r
			for k := 0; k < ulps; k++ {
				v = math.Nextafter32(v, 0)
			}
			for k := -ulps; k <= ulps; k, v = k+1, math.Nextafter32(v, 2) {
				f := first(v)
				if f >= 1 || left(f) != v {
					continue // no draw puts the left side on v
				}
				u := float64(f)
				want := exactWedge(i, x, u)
				if got := wedgeAccept(i, x, u); got != want {
					t.Fatalf("strip %d, x = %v, u = %v (left side %v, bound %v): squeezed test %v, exact %v",
						i, x, u, v, r, got, want)
				}
				decided++
				if want {
					accepted++
				}
			}
		}
	}
	if accepted == 0 || accepted == decided {
		t.Fatalf("%d of %d boundary draws accepted: the walk missed one side of the bound", accepted, decided)
	}
	t.Logf("%d boundary draws decided, %d accepted", decided, accepted)
}

// Over long streams every sampler path runs many times: 2²⁷ normals hold
// about 3.8M wedge tests, some 180 of them settled by math.Exp, and 80k
// tail draws. Each seed's stream alternates fills of varying length,
// whose runs end anywhere relative to a refill, with single NormFloat64
// calls.
func TestNormalsMatchMathRandLong(t *testing.T) {
	const seeds, perSeed = 16, 1 << 23
	buf := make([]float64, 1024)
	for seed := int64(0); seed < seeds; seed++ {
		ref := rand.New(rand.NewSource(seed * 7919))
		s := newRandSource(seed * 7919)
		for n, k := 0, 0; n < perSeed; k++ {
			fill := buf[:(k*389)%len(buf)+1]
			s.normFill(fill)
			for j, v := range fill {
				if want := ref.NormFloat64(); v != want {
					t.Fatalf("seed %d normal %d (normFill): %v, want %v", seed*7919, n+j, v, want)
				}
			}
			n += len(fill)
			for j := 0; j < len(fill); j++ {
				if v, want := s.NormFloat64(), ref.NormFloat64(); v != want {
					t.Fatalf("seed %d normal %d (NormFloat64): %v, want %v", seed*7919, n+j, v, want)
				}
			}
			n += len(fill)
		}
	}
}

// FuzzWedgeSqueeze checks the squeezed wedge test against the exact one
// for a register word (the candidate normal) and a uniform word (the
// wedge's Float64 draw). A register word whose normal never reaches a
// wedge decides nothing and passes.
func FuzzWedgeSqueeze(f *testing.F) {
	// Seed the corpus with wedge words from a real stream, each with a
	// uniform word that puts the left side just below the bound.
	s := newRandSource(1)
	for added := 0; added < 16; {
		word := uint64(s.next())
		j := int32(uint32(word >> 31))
		i := j & 0x7F
		if i == 0 || absInt32(j) < knTab[i] {
			continue
		}
		x := float64(j) * wn64[i]
		r := float64(float32(math.Exp(-.5 * x * x)))
		u := (r - float64(fnTab[i])) / float64(fnTab[i-1]-fnTab[i])
		f.Add(word, uint64(min(max(u, 0), 0.999)*(1<<63)))
		added++
	}
	f.Fuzz(func(t *testing.T, word, uword uint64) {
		j := int32(uint32(word >> 31))
		i := j & 0x7F
		if i == 0 || absInt32(j) < knTab[i] {
			return
		}
		x := float64(j) * wn64[i]
		u := float64(int64(uword&rngMask)) / (1 << 63)
		if u == 1 {
			return // Float64 draws again
		}
		if got, want := wedgeAccept(i, x, u), exactWedge(i, x, u); got != want {
			t.Fatalf("strip %d, x = %v, u = %v: squeezed test %v, exact %v", i, x, u, got, want)
		}
	})
}

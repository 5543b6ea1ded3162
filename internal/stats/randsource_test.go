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

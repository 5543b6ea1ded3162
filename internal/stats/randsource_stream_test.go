package stats

import (
	"math"
	"math/rand"
	"testing"
)

// These tests extend the randsource_test.go contract to the block-refilled
// state: seeding through the closed form, reseeding in place at every
// cursor position around a refill, and the batched Gaussian fills.

// newRandSource returns a source whose stream matches
// rand.New(rand.NewSource(seed)) exactly.
func newRandSource(seed int64) *randSource {
	s := new(randSource)
	s.seed(seed)
	return s
}

// streamMethods draws one value through each randSource method and the
// math/rand method it replicates.
var streamMethods = []struct {
	name string
	draw func(s *randSource, ref *rand.Rand) (got, want any)
}{
	{"Int63", func(s *randSource, ref *rand.Rand) (any, any) { return s.Int63(), ref.Int63() }},
	{"Uint32", func(s *randSource, ref *rand.Rand) (any, any) { return s.Uint32(), ref.Uint32() }},
	{"Int31", func(s *randSource, ref *rand.Rand) (any, any) { return s.Int31(), ref.Int31() }},
	{"Float64", func(s *randSource, ref *rand.Rand) (any, any) { return s.Float64(), ref.Float64() }},
	{"Int31n", func(s *randSource, ref *rand.Rand) (any, any) { return s.Int31n(1000), ref.Int31n(1000) }},
	{"Int63n", func(s *randSource, ref *rand.Rand) (any, any) { return s.Int63n(1<<40 + 3), ref.Int63n(1<<40 + 3) }},
	{"Intn", func(s *randSource, ref *rand.Rand) (any, any) { return s.Intn(7), ref.Intn(7) }},
	{"NormFloat64", func(s *randSource, ref *rand.Rand) (any, any) { return s.NormFloat64(), ref.NormFloat64() }},
	{"normFill", func(s *randSource, ref *rand.Rand) (any, any) {
		var z [3]float64
		s.normFill(z[:])
		return z, [3]float64{ref.NormFloat64(), ref.NormFloat64(), ref.NormFloat64()}
	}},
}

// Reseeding in place must erase every trace of the previous stream,
// wherever its cursor stood: before the first refill, at and around the
// refill boundary, and several rounds in.
func TestRandSourceReseedInPlace(t *testing.T) {
	consumed := []int{0, 1, 272, 273, 606, 607, 608, 5000}
	for _, seed := range equalitySeeds {
		for _, n := range consumed {
			for _, m := range streamMethods {
				s := newRandSource(seed ^ 0x5eed)
				for i := 0; i < n; i++ {
					s.Int63()
				}
				s.seed(seed)
				ref := rand.New(rand.NewSource(seed))
				for i := 0; i < 700; i++ {
					if got, want := m.draw(s, ref); got != want {
						t.Fatalf("seed %d reseeded after %d words: %s draw %d = %v, want %v", seed, n, m.name, i, got, want)
					}
				}
			}
		}
	}
}

// RNG.Reseed must land on NewRNG's stream and report the new seed, so
// SplitN keys off the latest reseed.
func TestRNGReseedMatchesNewRNG(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		g.Normal(0, 1)
	}
	g.Reseed(42)
	if g.Seed() != 42 {
		t.Fatalf("Seed() after Reseed(42) = %d", g.Seed())
	}
	fresh := NewRNG(42)
	for i := 0; i < 2000; i++ {
		if a, b := g.Float64(), fresh.Float64(); a != b {
			t.Fatalf("draw %d: reseeded %v, fresh %v", i, a, b)
		}
	}
	if a, b := g.SplitN(5).Int63(), fresh.SplitN(5).Int63(); a != b {
		t.Fatalf("SplitN(5) after Reseed: %d, want %d", a, b)
	}
}

// The closed-form seeding must reproduce math/rand's Schrage chain for
// every seed: a broad sweep plus the edges of the seed reduction (zero,
// multiples of 2³¹−1 that reduce to zero, negatives, the int64 extremes).
// 1,300 draws cover the 334 pre-advanced words, a full refill, and part
// of the next round, so every seeded word reaches the output.
func TestRandSourceClosedFormSeedSweep(t *testing.T) {
	seeds := []int64{0, int32max, -int32max, 2 * int32max, 1000 * int32max, -7 * int32max,
		int32max - 1, int32max + 1, -1, -2, 89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for i := int64(0); i < 4000; i++ {
		seeds = append(seeds, i, -i-1)
	}
	z := uint64(0x243f6a8885a308d3)
	for len(seeds) < 10_000 {
		z = mix64(z + 0x9e3779b97f4a7c15)
		seeds = append(seeds, int64(z))
	}
	ref := rand.NewSource(0)
	s := new(randSource)
	for _, seed := range seeds {
		ref.Seed(seed)
		s.seed(seed)
		for i := 0; i < 1300; i++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, got, want)
			}
		}
	}
}

// The batched fills must consume exactly the draws their per-call forms
// would — across stack-chunk boundaries and register refills — and leave
// the stream where those calls would.
func TestBatchedFillsMatchPerCall(t *testing.T) {
	const sigma2 = 1.7
	s := math.Sqrt(sigma2 / 2)
	for _, seed := range []int64{1, 9, 77} {
		for _, n := range []int{0, 1, 255, 256, 257, 4097} {
			g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
			z := make([]float64, n)
			g.FillNormal(z)
			for i, v := range z {
				if want := ref.NormFloat64(); v != want {
					t.Fatalf("seed %d FillNormal(%d) [%d] = %v, want %v", seed, n, i, v, want)
				}
			}

			c := make([]complex128, n)
			g.FillComplexNormal(c, sigma2)
			for i, v := range c {
				if want := complex(s*ref.NormFloat64(), s*ref.NormFloat64()); v != want {
					t.Fatalf("seed %d FillComplexNormal(%d) [%d] = %v, want %v", seed, n, i, v, want)
				}
			}

			for i := range c {
				c[i] = complex(float64(i), -float64(i))
			}
			g.AddComplexNormal(c, sigma2)
			for i, v := range c {
				want := complex(float64(i), -float64(i)) + complex(s*ref.NormFloat64(), s*ref.NormFloat64())
				if v != want {
					t.Fatalf("seed %d AddComplexNormal(%d) [%d] = %v, want %v", seed, n, i, v, want)
				}
			}

			if a, b := g.Int63(), ref.Int63(); a != b {
				t.Fatalf("seed %d n %d: stream after fills %d, want %d", seed, n, a, b)
			}
		}
	}
}

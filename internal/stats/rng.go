// Package stats provides the randomness and descriptive-statistics
// machinery used by the simulator and its experiment harness: seeded RNG
// plumbing, Gaussian/complex-Gaussian/log-normal sampling, streaming
// moments, empirical CDFs, and histograms.
package stats

import "math"

// RNG is a seeded random source with the distributions the simulator needs.
// It draws from a devirtualized replica of math/rand (see randsource.go)
// whose streams are bit-identical to rand.New(rand.NewSource(seed)), so
// every experiment is reproducible from its seed and historical goldens
// stay valid.
type RNG struct {
	r randSource
	// seed is the value this RNG was last seeded with; SplitN keys its
	// derivations off it so they are independent of how much of the
	// stream has been consumed.
	seed int64
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.Reseed(seed)
	return g
}

// Reseed restarts g in place on seed's stream: afterwards it draws exactly
// what NewRNG(seed) would, without allocating. Scenario reseeds use it to
// recycle every RNG they own, so whoever holds g sees the new stream.
func (g *RNG) Reseed(seed int64) {
	g.r.seed(seed)
	g.seed = seed
}

// Seed returns the seed g was constructed from or, after a Reseed, the
// latest reseed.
func (g *RNG) Seed() int64 { return g.seed }

// Split derives an independent RNG from this one, for handing to parallel
// or per-device sub-simulations without correlating their streams. It
// advances this RNG's stream by one draw, so the derivation depends on the
// stream position; use SplitN for a position-independent keyed derivation.
// child.Reseed(g.Int63()) is its in-place form.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// SplitN derives the i-th keyed child of this RNG. Unlike Split it does
// not consume any state: SplitN(i) depends only on the seed and i, so
// trial i of an experiment draws the same stream no matter how many trials
// ran before it, on which worker, or in what order. It reads only the
// seed, so it is safe to call concurrently while no one reseeds g.
func (g *RNG) SplitN(i int) *RNG {
	return NewRNG(TrialSeed(g.seed, i))
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche mixer whose
// output is equidistributed over uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TrialSeed derives the seed for trial i of a base stream by keyed mixing
// rather than stream iteration: TrialSeed(seed, i) is a pure function of
// (seed, i), so per-trial streams can be reconstructed in any order and
// from any worker. For a fixed seed, distinct trial indices map to
// distinct mixer inputs (the trial term is injective), and the avalanche
// mixing makes the resulting math/rand streams statistically independent
// (see the prefix-disjointness property test). Across different base
// seeds the linear form is not injective — independence there is
// statistical, which is why base seeds themselves come from DeriveSeed
// labels or TrialSeed point indices rather than adjacent integers.
func TrialSeed(seed int64, trial int) int64 {
	z := mix64(uint64(seed)*0x9e3779b97f4a7c15 + (uint64(int64(trial))+1)*0xd1b54a32d192ed03)
	return int64(z & (1<<63 - 1))
}

// DeriveSeed derives an independent stream seed from a base seed and a
// string label (FNV-1a over the label, finalized through the same mixer as
// TrialSeed). Experiments use it to key their scenario seeds by name
// instead of hand-picked numeric offsets, so two experiments can never
// silently collide onto the same stream.
func DeriveSeed(seed int64, label string) int64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime
	}
	z := mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ h)
	return int64(z & (1<<63 - 1))
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// ComplexNormal returns a circularly-symmetric complex Gaussian sample with
// total variance sigma2 (variance sigma2/2 per real dimension). This is the
// CN(0, σ²) distribution used for thermal noise and the random jamming
// signal.
func (g *RNG) ComplexNormal(sigma2 float64) complex128 {
	s := math.Sqrt(sigma2 / 2)
	return complex(s*g.r.NormFloat64(), s*g.r.NormFloat64())
}

// ComplexNormalVec fills dst with CN(0, sigma2) samples and returns it.
func (g *RNG) ComplexNormalVec(dst []complex128, sigma2 float64) []complex128 {
	g.FillComplexNormal(dst, sigma2)
	return dst
}

// normChunk is the number of standard normals the batched Gaussian paths
// draw per pass into a stack buffer (2 KB, 128 complex samples).
const normChunk = 256

// FillNormal overwrites dst with independent standard normal draws: the
// values len(dst) successive Normal(0, 1) calls would return.
func (g *RNG) FillNormal(dst []float64) { g.r.normFill(dst) }

// AddComplexNormal adds an independent CN(0, sigma2) sample to every
// element of dst. It draws the same sequence as per-sample ComplexNormal
// calls — the receiver noise path runs this for every observed sample.
func (g *RNG) AddComplexNormal(dst []complex128, sigma2 float64) {
	s := math.Sqrt(sigma2 / 2)
	var z [normChunk]float64
	for len(dst) > 0 {
		n := min(len(dst), normChunk/2)
		g.r.normFill(z[:2*n])
		for i := range dst[:n] {
			dst[i] += complex(s*z[2*i], s*z[2*i+1])
		}
		dst = dst[n:]
	}
}

// FillComplexNormal overwrites dst with CN(0, sigma2) samples — the
// batched noise path for callers that reuse a scratch buffer instead of
// allocating per draw (shield probes, MIMO noise). It draws the same
// sequence as ComplexNormalVec on a fresh slice.
//
// Batching note: the per-sample algorithm stays math/rand's ziggurat,
// because the draw sequence is physics. Batching changes only the loop
// around it: normFill keeps the generator's cursor in a local variable
// for a whole stack chunk of draws, and the generator advances its lags
// in one branch-free pass per 607 words instead of two wrap tests per
// word (see randsource.go).
func (g *RNG) FillComplexNormal(dst []complex128, sigma2 float64) {
	s := math.Sqrt(sigma2 / 2)
	var z [normChunk]float64
	for len(dst) > 0 {
		n := min(len(dst), normChunk/2)
		g.r.normFill(z[:2*n])
		for i := range dst[:n] {
			dst[i] = complex(s*z[2*i], s*z[2*i+1])
		}
		dst = dst[n:]
	}
}

// LogNormalDB returns a linear power factor whose dB value is Gaussian with
// mean 0 and standard deviation sigmaDB — the standard model for shadow
// fading.
func (g *RNG) LogNormalDB(sigmaDB float64) float64 {
	return math.Pow(10, g.Normal(0, sigmaDB)/10)
}

// Rayleigh returns a Rayleigh-distributed sample with scale sigma
// (the magnitude of a CN(0, 2σ²) variable).
func (g *RNG) Rayleigh(sigma float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return sigma * math.Sqrt(-2*math.Log(u))
}

// UnitPhasor returns e^{jθ} with θ uniform in [0, 2π): a random carrier
// phase.
func (g *RNG) UnitPhasor() complex128 {
	s, c := math.Sincos(2 * math.Pi * g.r.Float64())
	return complex(c, s)
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Bytes fills b with random bytes and returns it.
func (g *RNG) Bytes(b []byte) []byte {
	for i := range b {
		b[i] = byte(g.r.Intn(256))
	}
	return b
}

// Bits returns n random bits as a byte-per-bit slice of 0s and 1s.
func (g *RNG) Bits(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(g.r.Intn(2))
	}
	return b
}

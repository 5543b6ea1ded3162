// Package modem implements the modulations used in the MICS-band
// simulation: the binary FSK scheme the IMDs and the shield speak
// (phase-continuous 2-FSK with noncoherent detection, per the optimal
// receiver in Meyr et al.), and GMSK for the meteorological cross-traffic
// of the coexistence experiment.
package modem

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"heartshield/internal/dsp"
	"heartshield/internal/phy"
)

// FSKConfig describes a binary FSK PHY.
type FSKConfig struct {
	SampleRate float64 // baseband sample rate, Hz
	SymbolRate float64 // symbols (= bits) per second
	Deviation  float64 // tone offset: bit 1 at +Deviation, bit 0 at -Deviation
}

// DefaultFSK is the PHY used by the simulated Medtronic-style IMDs:
// 50 kbit/s with ±50 kHz tones inside a 300 kHz MICS channel, sampled at
// 600 kHz. The tone separation (2×50 kHz = 2/T) keeps the tones orthogonal
// for noncoherent detection, and concentrates the transmit energy around
// ±50 kHz exactly as the captured Virtuoso profile in Fig. 4 of the paper.
var DefaultFSK = FSKConfig{
	SampleRate: 600e3,
	SymbolRate: 50e3,
	Deviation:  50e3,
}

// defaultFSK is the process-wide modem for DefaultFSK; see Default.
var defaultFSK = sync.OnceValue(func() *FSK { return NewFSK(DefaultFSK) })

// Default returns the one modem for DefaultFSK that every scenario and
// mimo.Evaluate share. An FSK is safe for concurrent use, so sharing it
// keeps its sync scratch and its frame cache warm across scenarios
// instead of rebuilding both for each one.
func Default() *FSK { return defaultFSK() }

// SamplesPerSymbol returns the integer oversampling factor. The
// configuration must divide evenly.
func (c FSKConfig) SamplesPerSymbol() int {
	sps := c.SampleRate / c.SymbolRate
	n := int(sps + 0.5)
	if math.Abs(sps-float64(n)) > 1e-9 || n <= 0 {
		panic(fmt.Sprintf("modem: sample rate %g not an integer multiple of symbol rate %g", c.SampleRate, c.SymbolRate))
	}
	return n
}

// SamplesForBits returns the sample count of a bits-long transmission.
func (c FSKConfig) SamplesForBits(bits int) int { return bits * c.SamplesPerSymbol() }

// SamplesForDuration converts seconds to samples.
func (c FSKConfig) SamplesForDuration(sec float64) int {
	return int(sec*c.SampleRate + 0.5)
}

// Duration converts samples to seconds.
func (c FSKConfig) Duration(samples int) float64 { return float64(samples) / c.SampleRate }

// FSK is a binary FSK modem. It is safe for concurrent use by multiple
// goroutines after construction: the precomputed tables are read-only and
// per-call scratch comes from an internal free list.
type FSK struct {
	cfg     FSKConfig
	sps     int
	syncRef []complex128 // modulated preamble+sync, the timing reference

	// Sync acceleration: the reference is nSeg segments of segSyms tone
	// symbols, correlated by tone-matched filtering (see syncChunk).
	// Segment s correlates like the unique shape shapes[segRef[s]] and is
	// weighted by segW[s] = 1/(nSeg·reference segment energy); the
	// periodic preamble collapses to one shape. The head is the leading
	// nHead segments of that shape; the rest, the tail, add at most
	// tailMax to any lag's metric.
	segLen  int
	nSeg    int
	shapes  []segShape
	segRef  []int
	segW    []float64
	nHead   int
	tailMax float64
	// The one-symbol tone correlations are assembled from blk-sample
	// partial sums: tone[n+blk] = ±tone[n], so partial sum k enters with
	// the exact sign blkSgn[k].
	blk    int
	blkSgn []float64

	// Demod acceleration: tone[n] = e^{-j 2π Deviation n / fs}, the
	// cfo-free +Deviation matched phasor; the -Deviation hypothesis is its
	// conjugate and the CFO de-rotation is applied by complex recurrence.
	tone []complex128

	// syncFree holds idle sync scratch (see getScratch); nt and nq size
	// a new one.
	syncMu   sync.Mutex
	syncFree []*syncScratch
	nt, nq   int

	// frameCache memoizes ModulateFrame outputs keyed by the marshaled
	// bit string: modulation is a pure function of the bits, so command
	// frames (identical every exchange) modulate once per process. The
	// cache is bounded; once full, new frames just modulate uncached.
	frameCache  sync.Map // string -> []complex128 (read-only)
	frameCacheN atomic.Int32
}

// frameCacheMax bounds the per-modem frame cache. Command frames (one
// per IMD serial) hit it forever; randomized response payloads stop
// being inserted once the bound is reached.
const frameCacheMax = 64

// segSyms is the number of symbols per noncoherently combined sync
// segment: long enough to average noise, short enough that a few kHz of
// CFO rotates a segment's correlation by well under a radian.
const segSyms = 4

// segShape is one sync segment as the tone correlator sees it: symbol k
// correlates against the -Deviation tone when minus[k] (a 0 bit) and the
// +Deviation tone otherwise, with sign sgn[k], the modulator's bit-start
// phasor relative to symbol 0.
type segShape struct {
	minus [segSyms]bool
	sgn   [segSyms]float64
}

// syncScratch holds one metric scan's per-position tables, indexed by
// sample position minus base and sized for the longest chunk. Every entry
// is a function of its own samples only, so the overlap between
// consecutive chunks is carried instead of recomputed and is
// bit-identical either way.
type syncScratch struct {
	tp, tm []complex128 // one-symbol +Deviation / -Deviation tone correlations
	e      []float64    // one-symbol energies
	rcp    []float64    // reciprocal segment energies
	head   []float64    // the head shape's |segment correlation|² · rcp
	out    []float64    // the chunk's metric
	live   []int32      // the chunk's lags whose tail is summed
	base   int          // sample position of index 0
	nt, nq int          // valid entries of tp/tm/e and of rcp/head
}

// carry rebases the tables to sample position lo for a chunk that reads
// nt symbol positions and nq segment positions, sliding the previous
// chunk's overlap to the front. It returns how many leading entries of
// tp/tm/e and of rcp/head are already valid.
func (sc *syncScratch) carry(lo, nt, nq int) (keepT, keepQ int) {
	if d := lo - sc.base; d >= 0 && d < sc.nq {
		keepT, keepQ = sc.nt-d, sc.nq-d
		copy(sc.tp[:keepT], sc.tp[d:])
		copy(sc.tm[:keepT], sc.tm[d:])
		copy(sc.e[:keepT], sc.e[d:])
		copy(sc.rcp[:keepQ], sc.rcp[d:])
		copy(sc.head[:keepQ], sc.head[d:])
	}
	sc.base, sc.nt, sc.nq = lo, nt, nq
	return keepT, keepQ
}

// NewFSK builds a modem for the given configuration. It panics unless
// the oversampling factor and the modulation index are integers.
func NewFSK(cfg FSKConfig) *FSK {
	m := &FSK{cfg: cfg, sps: cfg.SamplesPerSymbol()}
	h := cfg.modulationIndex()
	m.tone = make([]complex128, m.sps)
	step := -2 * math.Pi * cfg.Deviation / cfg.SampleRate
	for n := range m.tone {
		s, c := math.Sincos(step * float64(n))
		m.tone[n] = complex(c, s)
	}

	syncBits := phy.BytesToBits(syncRefBytes())
	m.syncRef = m.Modulate(syncBits)
	m.buildSyncShapes(syncBits, h)
	return m
}

// modulationIndex returns h = 2·Deviation/SymbolRate and panics unless it
// is a positive integer. The tones are then orthogonal over a symbol,
// which the noncoherent demodulator assumes, and the carrier phase
// advances by h·π per bit, so every bit starts at phasor ±1, which the
// sync correlator assumes.
func (c FSKConfig) modulationIndex() int {
	h := 2 * c.Deviation / c.SymbolRate
	k := math.Round(h)
	if k < 1 || math.Abs(h-k) > 1e-9 {
		panic(fmt.Sprintf("modem: modulation index 2·%g/%g = %g is not a positive integer", c.Deviation, c.SymbolRate, h))
	}
	return int(k)
}

// buildSyncShapes splits the sync reference into segSyms-symbol segments
// and records each one's tone/sign shape, sharing equal shapes. The sign
// of a symbol is the modulated reference's first sample in it, which is
// the modulator's bit-start phasor (±1 for the integer modulation index
// h). It also derives the partial-sum length: the tone turns by
// θ = π·h/sps per sample, a whole number of half turns every
// blk = sps/gcd(sps, h) samples.
func (m *FSK) buildSyncShapes(bits []byte, h int) {
	m.segLen = segSyms * m.sps
	m.nSeg = len(bits) / segSyms
	m.segRef = make([]int, m.nSeg)
	m.segW = make([]float64, m.nSeg)
	for s := range m.segRef {
		var sh segShape
		for k := range sh.sgn {
			i := s*segSyms + k
			sh.minus[k] = bits[i]&1 == 0
			sh.sgn[k] = 1
			if (real(m.syncRef[i*m.sps]) < 0) != (real(m.syncRef[s*m.segLen]) < 0) {
				sh.sgn[k] = -1
			}
		}
		m.segRef[s] = slices.Index(m.shapes, sh)
		if m.segRef[s] < 0 {
			m.segRef[s] = len(m.shapes)
			m.shapes = append(m.shapes, sh)
		}
		refE := dsp.Energy(m.syncRef[s*m.segLen : (s+1)*m.segLen])
		m.segW[s] = 1 / (refE * float64(m.nSeg))
	}
	// A segment correlates x with a unit-power stretch of the reference,
	// so by Cauchy–Schwarz it adds at most 1/nSeg to the metric; the
	// 1+1e-9 covers the rounding of both sides.
	m.nHead = 1
	for m.nHead < m.nSeg && m.segRef[m.nHead] == m.segRef[0] {
		m.nHead++
	}
	m.tailMax = float64(m.nSeg-m.nHead) / float64(m.nSeg) * (1 + 1e-9)

	nBlk := gcd(m.sps, h)
	m.blk = m.sps / nBlk
	m.blkSgn = make([]float64, nBlk)
	for k := range m.blkSgn {
		m.blkSgn[k] = 1
		if h/nBlk*k%2 == 1 {
			m.blkSgn[k] = -1
		}
	}

	span := m.nSeg * m.segLen
	m.nt = syncChunkLags + span - m.blk // partial sums reach sps-blk past the last symbol position
	m.nq = syncChunkLags + span - m.segLen
}

// syncFreeMax bounds the idle sync scratch a modem keeps; Syncs that ran
// at once beyond it leave theirs to the GC.
const syncFreeMax = 8

// getScratch takes an idle sync scratch or builds one. It is a plain free
// list, not a sync.Pool: a pool misses when its one idle scratch sits in
// another P's private slot and after every GC, and each miss builds a
// ~100 KB scratch anew.
func (m *FSK) getScratch() *syncScratch {
	m.syncMu.Lock()
	if n := len(m.syncFree); n > 0 {
		sc := m.syncFree[n-1]
		m.syncFree[n-1] = nil
		m.syncFree = m.syncFree[:n-1]
		m.syncMu.Unlock()
		return sc
	}
	m.syncMu.Unlock()
	return &syncScratch{
		tp:   make([]complex128, m.nt),
		tm:   make([]complex128, m.nt),
		e:    make([]float64, m.nt),
		rcp:  make([]float64, m.nq),
		head: make([]float64, m.nq),
		out:  make([]float64, syncChunkLags),
		live: make([]int32, syncChunkLags),
	}
}

// putScratch returns a scratch that getScratch handed out.
func (m *FSK) putScratch(sc *syncScratch) {
	m.syncMu.Lock()
	if len(m.syncFree) < syncFreeMax {
		m.syncFree = append(m.syncFree, sc)
	}
	m.syncMu.Unlock()
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func syncRefBytes() []byte {
	b := make([]byte, 0, phy.PreambleBytes+phy.SyncBytes)
	for i := 0; i < phy.PreambleBytes; i++ {
		b = append(b, phy.PreambleByte)
	}
	return append(b, phy.SyncWord[:]...)
}

// Config returns the modem configuration.
func (m *FSK) Config() FSKConfig { return m.cfg }

// SyncRefLen returns the length in samples of the sync reference
// (preamble + sync word).
func (m *FSK) SyncRefLen() int { return len(m.syncRef) }

// Modulate produces unit-power phase-continuous FSK baseband IQ for the
// given bits (one byte per bit, LSB significant).
func (m *FSK) Modulate(bits []byte) []complex128 {
	out := make([]complex128, len(bits)*m.sps)
	// One Sincos per bit: the carrier phase is tracked exactly across bit
	// boundaries and the within-bit ramp comes from the precomputed tone
	// table (m.tone is the -Deviation ramp; its conjugate is +Deviation).
	phase := 0.0
	stepBit := 2 * math.Pi * m.cfg.Deviation / m.cfg.SampleRate * float64(m.sps)
	i := 0
	for _, b := range bits {
		sin, cos := math.Sincos(phase)
		w := complex(cos, sin)
		if b&1 == 1 {
			for _, t := range m.tone {
				out[i] = w * complex(real(t), -imag(t))
				i++
			}
			phase += stepBit
		} else {
			for _, t := range m.tone {
				out[i] = w * t
				i++
			}
			phase -= stepBit
		}
		phase = math.Mod(phase, 2*math.Pi)
	}
	return out
}

// ModulateFrame modulates a PHY frame to unit-power IQ. The returned
// slice may be shared with other callers (repeated frames are served
// from a cache) and must be treated as read-only; every transmit path
// copies it into its burst through TXChain.Transmit.
func (m *FSK) ModulateFrame(f *phy.Frame) []complex128 {
	bits := f.MarshalBits()
	key := string(bits)
	if v, ok := m.frameCache.Load(key); ok {
		return v.([]complex128)
	}
	iq := m.Modulate(bits)
	if m.frameCacheN.Add(1) <= frameCacheMax {
		m.frameCache.Store(key, iq)
	} else {
		m.frameCacheN.Add(-1)
	}
	return iq
}

// DemodBits performs optimal noncoherent detection of nbits bits from x,
// assuming the first symbol starts at sample 0 and the residual carrier
// frequency offset is cfoHz. Each symbol window is correlated against the
// two tone hypotheses; the larger envelope wins. If x is too short, only
// the bits fully contained in x are returned.
func (m *FSK) DemodBits(x []complex128, nbits int, cfoHz float64) []byte {
	avail := len(x) / m.sps
	if nbits > avail {
		nbits = avail
	}
	if nbits <= 0 {
		return nil
	}
	bits := make([]byte, nbits)
	m.demodInto(bits, x, cfoHz)
	return bits
}

// demodInto decides len(bits) bits from x (first symbol at sample 0).
// Every bit is decided independently from its own symbol window — the
// de-rotation recurrence restarts per symbol — so receiveAt can
// demodulate a frame in header+body phases with results bit-identical
// to one continuous call.
func (m *FSK) demodInto(bits []byte, x []complex128, cfoHz float64) {
	// The two tone hypotheses are the precomputed ±Deviation phasor table
	// (conjugates of each other); the CFO de-rotation advances by complex
	// recurrence, costing one Sincos per call instead of two per sample.
	// Each envelope differs from the brute-force phase accumulation only by
	// a per-symbol global rotation, which noncoherent detection ignores.
	ws, wc := math.Sincos(-2 * math.Pi * cfoHz / m.cfg.SampleRate)
	wStep := complex(wc, ws)
	tone := m.tone
	for k := range bits {
		seg := x[k*m.sps : (k+1)*m.sps]
		// With u = de-rotated sample and tone[n] = c+js, the hypotheses are
		// cHi = Σu·(c+js) = P+jQ and cLo = Σu·(c-js) = P-jQ for
		// P = Σu·c, Q = Σu·s — so one pass of two real-scalar
		// accumulations decides the bit: |P+jQ|² > |P-jQ|² iff
		// Im(conj(P)·Q) < 0.
		var pr, pi, qr, qi float64
		w := complex(1, 0)
		for n, v := range seg {
			u := v * w
			c, s := real(tone[n]), imag(tone[n])
			ur, ui := real(u), imag(u)
			pr += ur * c
			pi += ui * c
			qr += ur * s
			qi += ui * s
			w *= wStep
		}
		if pr*qi-pi*qr < 0 {
			bits[k] = 1
		}
	}
}

func magSq(c complex128) float64 {
	return real(c)*real(c) + imag(c)*imag(c)
}

// SyncResult reports a detected frame start.
type SyncResult struct {
	Start  int     // sample index of the first preamble sample
	Metric float64 // normalized correlation in [0,1]
	CFOHz  float64 // estimated carrier frequency offset
}

// Sync searches x for the preamble+sync reference and returns the best
// alignment if its correlation metric exceeds threshold (0.5 is a
// reasonable default). The metric combines the reference in short segments
// noncoherently so that a carrier frequency offset of a few kHz does not
// destroy the peak. It then estimates the CFO over the sync reference.
//
// The scan is streaming, like the hardware it models: the metric is
// evaluated in fixed chunks of lags and the search stops once an
// above-threshold peak has been confirmed by a full reference length of
// later lags none of which beat it. The guard covers the ±2-bit sidelobe
// comb the periodic preamble produces around the true alignment, so the
// returned lag is the same argmax an exhaustive sweep finds whenever the
// first confirmed peak is the frame (a later *stronger* spurious peak in a
// pure-noise tail can no longer steal the lock, which is the causal
// receiver's behaviour anyway).
func (m *FSK) Sync(x []complex128, threshold float64) (SyncResult, bool) {
	n := len(m.syncRef)
	best, bestV := -1, 0.0
	m.scanSync(x, threshold, func(lo int, metric []float64) bool {
		for i, v := range metric {
			if v > bestV {
				bestV = v
				best = lo + i
			}
		}
		return best < 0 || bestV < threshold || lo+len(metric)-best < n
	})
	if best < 0 || bestV < threshold {
		return SyncResult{}, false
	}
	res := SyncResult{Start: best, Metric: bestV}
	res.CFOHz = m.EstimateCFO(x, best)
	return res, true
}

// syncChunkLags is the fixed lag-range granule of the metric sweep, so
// the streaming scan in Sync can stop as soon as a peak is confirmed
// instead of sweeping the whole window.
const syncChunkLags = 1024

// syncMetric returns, per candidate lag, the CFO-tolerant normalized
// correlation against the sync reference: the reference is split into
// 4-bit segments whose correlation magnitudes are combined noncoherently,
// then normalized by segment energies so the metric stays in [0,1]. This
// is the exhaustive sweep over every lag, each one summed whole (no lag
// is below a zero threshold); Sync itself stops early once it has a
// confirmed peak and sums only the lags that can reach its threshold.
func (m *FSK) syncMetric(x []complex128) []float64 {
	if len(m.syncRef) > len(x) {
		return nil
	}
	out := make([]float64, len(x)-len(m.syncRef)+1)
	m.scanSync(x, 0, func(lo int, metric []float64) bool {
		copy(out[lo:], metric)
		return true
	})
	return out
}

// scanSync evaluates the sync metric over every lag of x in order, one
// chunk of up to syncChunkLags lags at a time, handing each chunk to
// visit until it returns false. A lag whose metric is at least threshold
// holds its exact metric; any other lag holds a value below threshold
// (see syncChunk), which cannot move Sync's lock. The metric slice is
// only valid during the call.
func (m *FSK) scanSync(x []complex128, threshold float64, visit func(lo int, metric []float64) bool) {
	nLags := len(x) - len(m.syncRef) + 1
	if nLags <= 0 {
		return
	}
	sc := m.getScratch()
	defer m.putScratch(sc)
	sc.nt, sc.nq = 0, 0
	for lo := 0; lo < nLags; lo += syncChunkLags {
		hi := min(lo+syncChunkLags, nLags)
		if !visit(lo, m.syncChunk(x, lo, hi, threshold, sc)) {
			return
		}
	}
}

// syncChunk returns the metric for lags [lo, hi), in sc.out. Every
// reference symbol is a pure ±Deviation tone times a ±1 bit-start phasor,
// so segment s's correlation at lag L is a signed sum of the one-symbol
// tone correlations at L+s·segLen, L+s·segLen+sps, …: the P±jQ pair
// demodInto accumulates. The chunk computes those and the one-symbol
// energies once per sample position, then the head shape's
// |correlation|² times the reciprocal segment energy once per segment
// position, and sums the head's segments per lag. It adds the tail's
// segments, in segment order and with the same operations, only at the
// lags whose head sum plus tailMax reaches threshold: at any other lag
// the whole metric stays below threshold, and the head sum is returned.
// Every value depends only on the samples under its own lag, so the
// result does not depend on the chunk grid or on where the scan stops.
func (m *FSK) syncChunk(x []complex128, lo, hi int, threshold float64, sc *syncScratch) []float64 {
	sps, segLen := m.sps, m.segLen
	span := m.nSeg * segLen
	nt := hi - lo + span - sps    // symbol positions the chunk reads
	nq := hi - lo + span - segLen // segment positions the chunk reads
	keepT, keepQ := sc.carry(lo, nt, nq)

	// Partial sums over blk samples: with tone[n] = c+js, P = Σx·c and
	// Q = Σx·s, the +Deviation (bit 1) sum is P+jQ and the -Deviation
	// one P-jQ. They reach sps-blk positions past the last symbol
	// position and are then folded, in place, into one-symbol sums.
	tone := m.tone[:m.blk]
	np := nt + sps - m.blk
	tp, tm, te := sc.tp[:np], sc.tm[:np], sc.e[:np]
	for i := keepT; i < len(tp); i++ {
		xs := x[lo+i:]
		xs = xs[:len(tone)] // same length as tone: no bounds checks below
		var pr, pi, qr, qi, e float64
		for n, t := range tone {
			c, s := real(t), imag(t)
			vr, vi := real(xs[n]), imag(xs[n])
			pr += vr * c
			pi += vi * c
			qr += vr * s
			qi += vi * s
			e += vr*vr + vi*vi
		}
		tp[i] = complex(pr-qi, pi+qr)
		tm[i] = complex(pr+qi, pi-qr)
		te[i] = e
	}
	// Symbol sum at i = Σ_k blkSgn[k]·partial(i+k·blk); it reads only
	// positions ≥ i, so overwriting in order is safe.
	for i := keepT; i < nt; i++ {
		a, b, e := tp[i], tm[i], te[i]
		for k := 1; k < len(m.blkSgn); k++ {
			j, sg := i+k*m.blk, m.blkSgn[k]
			a += complex(sg*real(tp[j]), sg*imag(tp[j]))
			b += complex(sg*real(tm[j]), sg*imag(tm[j]))
			e += te[j]
		}
		tp[i], tm[i], te[i] = a, b, e
	}

	// The loops below unroll the segSyms = 4 symbols of a segment.
	rcp := sc.rcp[keepQ:nq]
	e0, e1, e2, e3 := te[keepQ:], te[keepQ+sps:], te[keepQ+2*sps:], te[keepQ+3*sps:]
	e0, e1, e2, e3 = e0[:len(rcp)], e1[:len(rcp)], e2[:len(rcp)], e3[:len(rcp)]
	for i := range rcp {
		rcp[i] = 0
		if e := e0[i] + e1[i] + e2[i] + e3[i]; e > 0 {
			rcp[i] = 1 / e
		}
	}
	head := sc.head[keepQ:nq]
	t0, t1, t2, t3, s0, s1, s2, s3 := m.segTones(m.segRef[0], keepQ, len(head), tp, tm)
	for i := range head {
		a, b, c, d := t0[i], t1[i], t2[i], t3[i]
		re := s0*real(a) + s1*real(b) + s2*real(c) + s3*real(d)
		im := s0*imag(a) + s1*imag(b) + s2*imag(c) + s3*imag(d)
		head[i] = (re*re + im*im) * rcp[i]
	}

	out := sc.out[:hi-lo]
	clear(out)
	for s := range m.nHead {
		h, w := sc.head[s*segLen:], m.segW[s]
		h = h[:len(out)]
		for i := range out {
			out[i] += h[i] * w
		}
	}
	// Written as a negation so that a NaN lag is summed whole, as the
	// exhaustive scan sums it.
	live := sc.live[:0]
	for i, v := range out {
		if !(v+m.tailMax < threshold) {
			live = append(live, int32(i))
		}
	}
	for s := m.nHead; s < m.nSeg; s++ {
		q := s * segLen
		t0, t1, t2, t3, s0, s1, s2, s3 := m.segTones(m.segRef[s], q, len(out), tp, tm)
		r, w := sc.rcp[q:q+len(out)], m.segW[s]
		for _, i := range live {
			a, b, c, d := t0[i], t1[i], t2[i], t3[i]
			re := s0*real(a) + s1*real(b) + s2*real(c) + s3*real(d)
			im := s0*imag(a) + s1*imag(b) + s2*imag(c) + s3*imag(d)
			h := (re*re + im*im) * r[i]
			out[i] += h * w
		}
	}
	return out
}

// segTones returns the n-entry one-symbol tone correlation tables that
// shape u reads for the segments at positions q, q+1, …: symbol k's
// table, tm for a 0 bit and tp otherwise, from position q+k·sps, and its
// sign.
func (m *FSK) segTones(u, q, n int, tp, tm []complex128) (t0, t1, t2, t3 []complex128, s0, s1, s2, s3 float64) {
	sh := &m.shapes[u]
	var t [segSyms][]complex128
	for k := range t {
		t[k] = tp[q+k*m.sps:]
		if sh.minus[k] {
			t[k] = tm[q+k*m.sps:]
		}
		t[k] = t[k][:n]
	}
	return t[0], t[1], t[2], t[3], sh.sgn[0], sh.sgn[1], sh.sgn[2], sh.sgn[3]
}

// EstimateCFO estimates the carrier frequency offset of a transmission
// whose preamble starts at sample index start, by de-rotating the received
// sync region with the known reference and measuring the phase slope of
// the residual. The unambiguous range is ±SampleRate/(2·sps).
func (m *FSK) EstimateCFO(x []complex128, start int) float64 {
	n := len(m.syncRef)
	if start < 0 || start+n > len(x) {
		return 0
	}
	lag := m.sps
	var acc complex128
	// Streaming form of acc += z[i+lag]*conj(z[i]) with
	// z[i] = x[start+i]*conj(ref[i]), so no de-rotated copy is allocated.
	for i := 0; i+lag < n; i++ {
		ra, rb := m.syncRef[i+lag], m.syncRef[i]
		za := x[start+i+lag] * complex(real(ra), -imag(ra))
		zb := x[start+i] * complex(real(rb), -imag(rb))
		acc += za * complex(real(zb), -imag(zb))
	}
	if acc == 0 {
		return 0
	}
	ang := math.Atan2(imag(acc), real(acc))
	return ang * m.cfg.SampleRate / (2 * math.Pi * float64(lag))
}

// RxFrame is the result of a full frame reception attempt.
type RxFrame struct {
	Sync  SyncResult
	Bits  []byte     // all demodulated bits starting at the preamble
	Frame *phy.Frame // non-nil only if the CRC checked out
	Err   error      // parse error when Frame is nil
}

// ReceiveFrame runs the complete receive path on x: preamble search, CFO
// estimation, noncoherent demodulation, and CRC-checked frame parsing.
// It returns false if no preamble was found above the sync threshold.
func (m *FSK) ReceiveFrame(x []complex128, threshold float64) (RxFrame, bool) {
	sr, ok := m.Sync(x, threshold)
	if !ok {
		return RxFrame{}, false
	}
	return m.receiveAt(x, sr), true
}

// ReceiveFrameAt runs the receive path with known timing (genie sync):
// the preamble is assumed to start exactly at sample index start. The CFO
// is still estimated from the signal. This is used by the experiment
// harness to measure raw BER at an eavesdropper that is given the best
// possible timing information.
func (m *FSK) ReceiveFrameAt(x []complex128, start int) RxFrame {
	sr := SyncResult{Start: start, Metric: 1}
	sr.CFOHz = m.EstimateCFO(x, start)
	return m.receiveAt(x, sr)
}

func (m *FSK) receiveAt(x []complex128, sr SyncResult) RxFrame {
	maxBits := (len(x) - sr.Start) / m.sps
	// The longest legal frame bounds the demodulation window.
	limit := phy.AirBits(phy.MaxPayload)
	if maxBits > limit {
		maxBits = limit
	}
	seg := x[sr.Start:]
	hdrBits := phy.AirBits(0)
	if maxBits < hdrBits {
		// Too short for even an empty frame; demodulate what is there so
		// Bits still records the attempt.
		bits := make([]byte, maxBits)
		m.demodInto(bits, seg, sr.CFOHz)
		return RxFrame{Sync: sr, Bits: bits, Err: phy.ErrFrameTooShort}
	}
	// Phase 1: demodulate only the header and decode the length field, so
	// phase 2 can stop at the frame's actual extent instead of the
	// longest-legal-frame bound. Bits are decided independently per
	// symbol, so the split is bit-identical to one continuous call — but
	// a short command frame skips ~3/4 of the window.
	bits := make([]byte, hdrBits, maxBits)
	m.demodInto(bits, seg, sr.CFOHz)
	raw := phy.BitsToBytes(bits)
	plen := int(raw[phy.PreambleBytes+phy.SyncBytes+phy.SerialBytes+1])
	want := phy.AirBytes(plen)
	parseable := plen <= phy.MaxPayload && want*8 <= maxBits
	target := maxBits
	if parseable {
		target = want * 8
	}
	if target > hdrBits {
		bits = bits[:target]
		m.demodInto(bits[hdrBits:], seg[hdrBits*m.sps:], sr.CFOHz)
	}
	res := RxFrame{Sync: sr, Bits: bits}
	if parseable {
		f, err := phy.ParseFrame(phy.BitsToBytes(bits)[:want])
		res.Frame, res.Err = f, err
		return res
	}
	res.Err = phy.ErrFrameTooShort
	return res
}

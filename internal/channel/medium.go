// Package channel simulates the wireless medium of the testbed: complex
// per-link gains derived from path-loss models with shadowing and slow
// drift, and a burst-level superposition engine that hands every receiver
// the linear combination of all transmissions overlapping its observation
// window — the physical property (eq. 1–5 of the paper) that both the
// antidote cancellation and the one-time-pad jamming argument rest on.
package channel

import (
	"fmt"
	"math"
	"sort"

	"heartshield/internal/stats"
)

// AntennaID identifies one antenna in the medium. Devices with multiple
// antennas (the shield) own several IDs.
type AntennaID int

// Link describes the statistical model of one antenna-to-antenna channel.
type Link struct {
	// LossDB is the mean path loss (positive dB).
	LossDB float64
	// ShadowSigmaDB is the per-epoch log-normal shadowing deviation.
	ShadowSigmaDB float64
	// DriftStd is the fractional complex-gain drift applied per Perturb
	// call, modelling channel variation between the shield's channel
	// estimate and its use of the antidote (this floor bounds the
	// achievable cancellation G).
	DriftStd float64
}

type pair struct{ a, b AntennaID }

func canon(tx, rx AntennaID) pair {
	if tx > rx {
		tx, rx = rx, tx
	}
	return pair{tx, rx}
}

type linkState struct {
	cfg     Link
	epochDB float64    // loss including this epoch's shadowing
	gain    complex128 // instantaneous complex gain
}

// Burst is one transmission on the medium: baseband IQ (already scaled by
// the TX chain to sqrt-milliwatt amplitude) starting at an absolute sample
// index on a given MICS channel. A transmitter's IQ comes from
// Medium.Samples, so it aliases arena memory and is valid only until the
// trial ends (see Medium.ClearBursts).
type Burst struct {
	Channel int
	Start   int64
	IQ      []complex128
	From    AntennaID
}

// End returns the first sample index after the burst.
func (b *Burst) End() int64 { return b.Start + int64(len(b.IQ)) }

// burstSet holds one channel's transmissions sorted by start sample, with
// a running prefix maximum of end samples so overlap queries can binary
// search both ends of the candidate range instead of scanning every burst.
type burstSet struct {
	list []*Burst
	// maxEnd[i] = max of list[:i+1] end samples; nondecreasing, so the
	// first burst that can overlap a window is binary-searchable.
	maxEnd []int64
}

// insert places b in start order (appends are O(1) for the common
// chronological case) and maintains the end-prefix maxima.
func (s *burstSet) insert(b *Burst) {
	i := len(s.list)
	for i > 0 && s.list[i-1].Start > b.Start {
		i--
	}
	s.list = append(s.list, nil)
	copy(s.list[i+1:], s.list[i:])
	s.list[i] = b
	s.maxEnd = append(s.maxEnd, 0)
	for ; i < len(s.list); i++ {
		e := s.list[i].End()
		if i > 0 && s.maxEnd[i-1] > e {
			e = s.maxEnd[i-1]
		}
		s.maxEnd[i] = e
	}
}

// overlapRange returns the index range [lo, hi) of bursts that can overlap
// [start, end); individual bursts inside it still need an overlap check.
func (s *burstSet) overlapRange(start, end int64) (int, int) {
	// First index whose prefix-max end exceeds start.
	lo := sort.Search(len(s.list), func(i int) bool { return s.maxEnd[i] > start })
	// First index whose start is >= end.
	hi := sort.Search(len(s.list), func(i int) bool { return s.list[i].Start >= end })
	return lo, hi
}

// Medium is the shared wireless channel. It is not safe for concurrent
// use; experiments drive it from a single goroutine.
type Medium struct {
	fs    float64
	rng   *stats.RNG
	links map[pair]*linkState
	// pairs is the sorted link-pair list NewEpoch and Perturb iterate; it
	// is maintained incrementally by SetLink instead of being rebuilt and
	// re-sorted on every call.
	pairs []pair
	// installed records the pairs in first-SetLink order, so ResetRNG can
	// replay the install-time gain draws of a fresh build exactly.
	installed []pair
	burst     map[int]*burstSet
	// held lists the arena buffers handed out this trial (burst samples
	// and observation windows); ClearBursts returns them.
	held [][]complex128
}

// NewMedium creates an empty medium at the given baseband sample rate.
func NewMedium(fs float64, rng *stats.RNG) *Medium {
	return &Medium{
		fs:    fs,
		rng:   rng,
		links: make(map[pair]*linkState),
		burst: make(map[int]*burstSet),
	}
}

// SampleRate returns the medium's baseband sample rate.
func (m *Medium) SampleRate() float64 { return m.fs }

// SetLink installs (or replaces) the reciprocal channel between two
// antennas. Use tx == rx for a self-loop (the wire between the transmit
// and receive chains sharing one antenna, Hself in the paper).
func (m *Medium) SetLink(a, b AntennaID, cfg Link) {
	st := &linkState{cfg: cfg}
	p := canon(a, b)
	if _, exists := m.links[p]; !exists {
		i := sort.Search(len(m.pairs), func(i int) bool {
			if m.pairs[i].a != p.a {
				return m.pairs[i].a > p.a
			}
			return m.pairs[i].b >= p.b
		})
		m.pairs = append(m.pairs, pair{})
		copy(m.pairs[i+1:], m.pairs[i:])
		m.pairs[i] = p
		m.installed = append(m.installed, p)
	}
	m.links[p] = st
	m.refreshLink(st)
}

// ResetRNG reseeds the medium's random source in place and replays the
// install-time gain draw of every link in its original SetLink order.
// After it (plus a NewEpoch call, mirroring scenario construction) the
// medium's RNG stream is positioned exactly where a freshly built medium
// with the same link set and a source seeded with seed would be — the
// contract scenario recycling relies on. It assumes each link pair was
// installed exactly once.
func (m *Medium) ResetRNG(seed int64) {
	m.rng.Reseed(seed)
	for _, p := range m.installed {
		m.refreshLink(m.links[p])
	}
}

// HasLink reports whether a link between the antennas exists.
func (m *Medium) HasLink(a, b AntennaID) bool {
	_, ok := m.links[canon(a, b)]
	return ok
}

func (m *Medium) refreshLink(st *linkState) {
	st.epochDB = st.cfg.LossDB + m.rng.Normal(0, st.cfg.ShadowSigmaDB)
	amp := math.Sqrt(math.Pow(10, -st.epochDB/10))
	st.gain = complex(amp, 0) * m.rng.UnitPhasor()
}

// NewEpoch redraws shadowing and carrier phases for every link. Call it at
// the start of each independent trial. The cached sorted pair list keeps
// the iteration order (and therefore the RNG stream) reproducible for a
// given seed.
func (m *Medium) NewEpoch() {
	for _, p := range m.pairs {
		m.refreshLink(m.links[p])
	}
}

// Perturb applies one step of slow channel drift to every link: the
// complex gain acquires a random component DriftStd times its magnitude.
// The shield calls this between channel estimation and antidote use; it is
// the physical source of the finite cancellation in Fig. 7.
func (m *Medium) Perturb() {
	for _, p := range m.pairs {
		st := m.links[p]
		if st.cfg.DriftStd <= 0 {
			continue
		}
		mag := math.Hypot(real(st.gain), imag(st.gain))
		st.gain += m.rng.ComplexNormal(st.cfg.DriftStd * st.cfg.DriftStd * mag * mag)
	}
}

// Gain returns the current complex gain between two antennas, or 0 if no
// link is installed (no coupling).
func (m *Medium) Gain(tx, rx AntennaID) complex128 {
	st, ok := m.links[canon(tx, rx)]
	if !ok {
		return 0
	}
	return st.gain
}

// PathLossDB returns the link's current loss (mean + this epoch's
// shadowing) in dB, or +inf when no link exists.
func (m *Medium) PathLossDB(tx, rx AntennaID) float64 {
	st, ok := m.links[canon(tx, rx)]
	if !ok {
		return math.Inf(1)
	}
	return st.epochDB
}

// AddBurst places a transmission on the medium.
func (m *Medium) AddBurst(b *Burst) {
	if len(b.IQ) == 0 {
		return
	}
	s := m.burst[b.Channel]
	if s == nil {
		s = &burstSet{}
		m.burst[b.Channel] = s
	}
	s.insert(b)
}

// Bursts returns all bursts on a MICS channel, sorted by start sample
// (shared slice; do not modify).
func (m *Medium) Bursts(ch int) []*Burst {
	s := m.burst[ch]
	if s == nil {
		return nil
	}
	return s.list
}

// Samples returns an n-sample buffer from the process-wide sample arena.
// The medium owns it until the trial ends at the next ClearBursts, which
// hands it back. Its contents are arbitrary: the caller writes every
// sample before it reads any. Transmitters build their bursts in such
// buffers and receivers their observation windows, so a warm trial
// allocates no samples.
func (m *Medium) Samples(n int) []complex128 {
	b := arena.get(n)
	m.held = append(m.held, b)
	return b
}

// ClearBursts removes all transmissions and ends the trial: every buffer
// Samples and Observe handed out since the last ClearBursts goes back to
// the arena, so no burst IQ or observation window of the trial may be
// read after it.
func (m *Medium) ClearBursts() {
	for _, s := range m.burst {
		clear(s.list)
		s.list, s.maxEnd = s.list[:0], s.maxEnd[:0]
	}
	m.release()
}

// release hands the trial's buffers back to the arena.
func (m *Medium) release() {
	arena.put(m.held)
	clear(m.held)
	m.held = m.held[:0]
}

// Observe returns the noiseless superposition seen by antenna rx on MICS
// channel ch over the window [start, start+n): every overlapping burst is
// added with the current complex gain of its source link. Bursts whose
// source has no link to rx contribute nothing. The window is a Samples
// buffer, valid until the trial ends; the caller passes it through an
// RXChain, which adds noise and front-end effects in place.
func (m *Medium) Observe(rx AntennaID, ch int, start int64, n int) []complex128 {
	if n < 0 {
		panic(fmt.Sprintf("channel: negative observation length %d", n))
	}
	out := m.Samples(n)
	// First-touch regions take direct writes instead of zero-then-add
	// (0+x == x in IEEE up to the sign of zero, which the noise added
	// downstream erases), so the window is swept once, not twice. [clo,
	// chi) is the region bursts have written; the list is sorted by start,
	// so it only ever extends rightward and gaps are zeroed as they close.
	var clo, chi int
	covered := false
	if s := m.burst[ch]; s != nil {
		blo, bhi := s.overlapRange(start, start+int64(n))
		for _, b := range s.list[blo:bhi] {
			g := m.Gain(b.From, rx)
			if g == 0 {
				continue
			}
			lo64 := max64(start, b.Start)
			hi64 := min64(start+int64(n), b.End())
			if hi64 <= lo64 {
				continue
			}
			lo, hi := int(lo64-start), int(hi64-start)
			src := b.IQ[lo64-b.Start : hi64-b.Start]
			switch {
			case !covered:
				for i, v := range src {
					out[lo+i] = g * v
				}
				clo, chi, covered = lo, hi, true
			case lo >= chi:
				clear(out[chi:lo])
				for i, v := range src {
					out[lo+i] = g * v
				}
				chi = hi
			default:
				mid := hi
				if mid > chi {
					mid = chi
				}
				for i := lo; i < mid; i++ {
					out[i] += g * src[i-lo]
				}
				for i := chi; i < hi; i++ {
					out[i] = g * src[i-lo]
				}
				if hi > chi {
					chi = hi
				}
			}
		}
	}
	// A recycled buffer is not zero: clear what no burst wrote.
	if !covered {
		clear(out)
	} else {
		clear(out[:clo])
		clear(out[chi:])
	}
	return out
}

// BusyAt reports whether any burst overlaps the given sample on channel
// ch, optionally excluding bursts from one antenna (a transmitter ignoring
// its own signal).
func (m *Medium) BusyAt(ch int, sample int64, exclude AntennaID) bool {
	s := m.burst[ch]
	if s == nil {
		return false
	}
	blo, bhi := s.overlapRange(sample, sample+1)
	for _, b := range s.list[blo:bhi] {
		if b.From == exclude {
			continue
		}
		if sample >= b.Start && sample < b.End() {
			return true
		}
	}
	return false
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

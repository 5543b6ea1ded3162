// Package ofdm implements the wideband extension sketched in §5 of the
// paper: over channels with multipath (frequency-selective) responses, the
// single-tap antidote no longer cancels the jamming signal across the
// whole band; dividing the band into OFDM subcarriers and computing an
// antidote per subcarrier restores the cancellation. This package provides
// the OFDM modem, frequency-selective channel application, per-subcarrier
// estimation, and both antidote strategies for comparison.
package ofdm

import (
	"fmt"

	"heartshield/internal/dsp"
	"heartshield/internal/stats"
)

// Config describes the OFDM numerology.
type Config struct {
	// NumSubcarriers is the FFT size (power of two).
	NumSubcarriers int
	// CyclicPrefix is the CP length in samples; it must cover the longest
	// channel impulse response.
	CyclicPrefix int
}

// DefaultConfig uses 64 subcarriers with a 16-sample cyclic prefix.
var DefaultConfig = Config{NumSubcarriers: 64, CyclicPrefix: 16}

// Modem is an OFDM modulator/demodulator.
type Modem struct {
	cfg Config
}

// NewModem validates the configuration and returns a modem.
func NewModem(cfg Config) *Modem {
	if !dsp.IsPowerOfTwo(cfg.NumSubcarriers) {
		panic(fmt.Sprintf("ofdm: subcarrier count %d must be a power of two", cfg.NumSubcarriers))
	}
	if cfg.CyclicPrefix < 0 || cfg.CyclicPrefix >= cfg.NumSubcarriers {
		panic("ofdm: cyclic prefix out of range")
	}
	return &Modem{cfg: cfg}
}

// SymbolLen is the time-domain length of one OFDM symbol including CP.
func (m *Modem) SymbolLen() int { return m.cfg.NumSubcarriers + m.cfg.CyclicPrefix }

// Modulate converts per-subcarrier frequency-domain symbols (length
// NumSubcarriers each) into the time-domain waveform with cyclic prefixes.
func (m *Modem) Modulate(symbols [][]complex128) []complex128 {
	n := m.cfg.NumSubcarriers
	out := make([]complex128, 0, len(symbols)*m.SymbolLen())
	buf := make([]complex128, n)
	for _, sym := range symbols {
		if len(sym) != n {
			panic(fmt.Sprintf("ofdm: symbol has %d subcarriers, want %d", len(sym), n))
		}
		copy(buf, sym)
		dsp.IFFT(buf)
		// Cyclic prefix: the tail of the symbol repeated in front.
		out = append(out, buf[n-m.cfg.CyclicPrefix:]...)
		out = append(out, buf...)
	}
	return out
}

// Demodulate recovers per-subcarrier symbols from a time-domain waveform
// that starts exactly at the first cyclic prefix.
func (m *Modem) Demodulate(x []complex128, numSymbols int) [][]complex128 {
	sl := m.SymbolLen()
	avail := len(x) / sl
	if numSymbols > avail {
		numSymbols = avail
	}
	out := make([][]complex128, 0, numSymbols)
	for s := 0; s < numSymbols; s++ {
		seg := x[s*sl+m.cfg.CyclicPrefix : s*sl+sl]
		sym := dsp.Clone(seg)
		dsp.FFT(sym)
		out = append(out, sym)
	}
	return out
}

// Channel is a frequency-selective (multipath) channel given by its
// time-domain taps.
type Channel struct {
	Taps []complex128
}

// TwoTap builds the canonical frequency-selective test channel: a direct
// path plus one delayed echo.
func TwoTap(direct, echo complex128, delay int) Channel {
	taps := make([]complex128, delay+1)
	taps[0] = direct
	taps[delay] = echo
	return Channel{Taps: taps}
}

// Apply convolves x with the channel taps ("same" alignment from the
// first sample).
func (c Channel) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i := range x {
		var acc complex128
		for k, t := range c.Taps {
			if t == 0 || i-k < 0 {
				continue
			}
			acc += t * x[i-k]
		}
		out[i] = acc
	}
	return out
}

// FrequencyResponse returns the channel's response at each of n
// subcarriers.
func (c Channel) FrequencyResponse(n int) []complex128 {
	h := make([]complex128, n)
	copy(h, c.Taps)
	dsp.FFT(h)
	return h
}

// EstimateResponse estimates the per-subcarrier response from a known
// frequency-domain probe symbol and a received time-domain observation
// (one OFDM symbol with CP), with optional additive noise already present
// in rx.
func (m *Modem) EstimateResponse(probe []complex128, rx []complex128) []complex128 {
	syms := m.Demodulate(rx, 1)
	if len(syms) == 0 {
		return nil
	}
	h := make([]complex128, m.cfg.NumSubcarriers)
	for k := range h {
		if probe[k] != 0 {
			h[k] = syms[0][k] / probe[k]
		}
	}
	return h
}

// JammerCumReceiver models the shield's full-duplex front end over
// frequency-selective internal channels: the jamming antenna couples into
// the receive antenna through HJamToRx (multipath), and the receive
// antenna's transmit chain loops back through HSelf (a short wire —
// essentially flat, but modelled as taps for generality).
type JammerCumReceiver struct {
	Modem    *Modem
	HJamToRx Channel
	HSelf    Channel
	RNG      *stats.RNG
	// NoiseVar is the receiver's per-sample noise variance.
	NoiseVar float64
}

// CancellationResult compares antidote strategies on one jamming block.
type CancellationResult struct {
	// NarrowbandDB is the cancellation achieved by the single-tap antidote
	// x(t) = -(Hjr/Hself)·j(t) (the narrowband design of §5).
	NarrowbandDB float64
	// PerSubcarrierDB is the cancellation achieved by the OFDM antidote
	// X[k] = -(Hjr[k]/Hself[k])·J[k].
	PerSubcarrierDB float64
}

// Compare generates numSymbols of random OFDM jamming and measures the
// received jamming power under no antidote, the narrowband antidote, and
// the per-subcarrier antidote.
func (j *JammerCumReceiver) Compare(numSymbols int) CancellationResult {
	n := j.Modem.cfg.NumSubcarriers

	// Random frequency-domain jamming symbols.
	jamF := make([][]complex128, numSymbols)
	for s := range jamF {
		jamF[s] = j.RNG.ComplexNormalVec(make([]complex128, n), 1)
	}
	jamT := j.Modem.Modulate(jamF)

	// Per-subcarrier channel knowledge (probe-estimated with noise).
	probe := make([]complex128, n)
	for k := range probe {
		probe[k] = j.RNG.UnitPhasor()
	}
	probeT := j.Modem.Modulate([][]complex128{probe})
	est := func(ch Channel) []complex128 {
		rx := ch.Apply(probeT)
		for i := range rx {
			rx[i] += j.RNG.ComplexNormal(j.NoiseVar)
		}
		return j.Modem.EstimateResponse(probe, rx)
	}
	hJamEst := est(j.HJamToRx)
	hSelfEst := est(j.HSelf)

	// Baseline: jam through the coupling channel, no antidote.
	base := j.HJamToRx.Apply(jamT)
	basePower := dsp.Power(base)

	// Narrowband antidote: a single complex tap ratio, estimated the way
	// a narrowband shield would — the band-average of the probe response
	// (equivalently, a single-tap least-squares fit).
	ratio := -meanC(hJamEst) / meanC(hSelfEst)
	antNarrowT := dsp.Clone(jamT)
	dsp.ScaleC(antNarrowT, ratio)
	residNarrow := make([]complex128, len(base))
	selfNarrow := j.HSelf.Apply(antNarrowT)
	for i := range residNarrow {
		residNarrow[i] = base[i] + selfNarrow[i]
	}

	// Per-subcarrier antidote: computed in the frequency domain from the
	// probe estimates, then modulated like any other OFDM signal. The
	// cyclic prefix turns the multipath convolution into per-subcarrier
	// multiplication, so cancellation holds across the band.
	antF := make([][]complex128, numSymbols)
	for s := range antF {
		antF[s] = make([]complex128, n)
		for k := 0; k < n; k++ {
			if hSelfEst[k] != 0 {
				antF[s][k] = -hJamEst[k] / hSelfEst[k] * jamF[s][k]
			}
		}
	}
	antOFDMT := j.Modem.Modulate(antF)
	selfOFDM := j.HSelf.Apply(antOFDMT)
	residOFDM := make([]complex128, len(base))
	for i := range residOFDM {
		residOFDM[i] = base[i] + selfOFDM[i]
	}

	// Cancellation is judged where the receiver listens: the post-CP
	// window of each OFDM symbol (the cyclic-prefix samples are discarded
	// by the demodulator, and the per-symbol circular antidote cannot
	// cancel the inter-symbol leakage that lands inside them). The first
	// symbol is skipped so every measured window is in steady state.
	return CancellationResult{
		NarrowbandDB:    dsp.DB(basePower / j.usefulWindowPower(residNarrow)),
		PerSubcarrierDB: dsp.DB(basePower / j.usefulWindowPower(residOFDM)),
	}
}

// meanC averages a complex slice.
func meanC(v []complex128) complex128 {
	var s complex128
	for _, x := range v {
		s += x
	}
	return s / complex(float64(len(v)), 0)
}

// usefulWindowPower measures mean power over the demodulation windows
// (post-CP portion of each symbol, skipping the first symbol).
func (j *JammerCumReceiver) usefulWindowPower(x []complex128) float64 {
	sl := j.Modem.SymbolLen()
	cp := j.Modem.cfg.CyclicPrefix
	var acc float64
	var count int
	for s := 1; (s+1)*sl <= len(x); s++ {
		seg := x[s*sl+cp : (s+1)*sl]
		acc += dsp.Energy(seg)
		count += len(seg)
	}
	if count == 0 {
		return dsp.Power(x)
	}
	return acc / float64(count)
}

// Package adversary implements the threat model of §3.2: passive
// eavesdroppers that record the IMD's transmissions with an optimal
// noncoherent FSK receiver, and active adversaries that replay recorded
// programmer commands — at FCC power with commercial hardware, or at 100×
// power with custom hardware — including the capture-effect
// (overwrite-the-shield) variant.
package adversary

import (
	"heartshield/internal/channel"
	"heartshield/internal/dsp"
	"heartshield/internal/modem"
	"heartshield/internal/phy"
	"heartshield/internal/radio"
)

// Eavesdropper is a passive adversary at a fixed location. It is given
// genie timing (the exact start sample of the IMD's transmission) and an
// optimal noncoherent FSK decoder — the strongest reasonable single-
// antenna adversary, per the threat model.
type Eavesdropper struct {
	Antenna channel.AntennaID
	Medium  *channel.Medium
	RX      *radio.RXChain
	Modem   *modem.FSK
	// CFOHint, when non-nil, gives the adversary perfect knowledge of the
	// IMD's carrier offset (learnable from any earlier unjammed session) —
	// the strongest-adversary assumption the confidentiality experiments
	// use. When nil, the CFO is estimated from the (jammed) signal.
	CFOHint *float64
}

// cfoFor resolves the carrier offset the decoder should compensate.
func (e *Eavesdropper) cfoFor(obs []complex128) float64 {
	if e.CFOHint != nil {
		return *e.CFOHint
	}
	return e.Modem.EstimateCFO(obs, 0)
}

// InterceptBits demodulates nbits bits of a transmission whose first
// sample (preamble start) is at absolute sample start on channel ch,
// returning the decoded bits.
func (e *Eavesdropper) InterceptBits(ch int, start int64, nbits int) []byte {
	n := e.Modem.Config().SamplesForBits(nbits)
	obs := e.RX.Process(e.Medium.Observe(e.Antenna, ch, start, n))
	return e.Modem.DemodBits(obs, nbits, e.cfoFor(obs))
}

// InterceptBER decodes a transmission and compares it with the true bits,
// returning the bit error rate — the confidentiality metric of Fig. 9.
func (e *Eavesdropper) InterceptBER(ch int, start int64, truth []byte) float64 {
	got := e.InterceptBits(ch, start, len(truth))
	errs, n := phy.CountBitErrors(got, truth)
	if n == 0 {
		return 1
	}
	return float64(errs) / float64(n)
}

// FilteredInterceptBER is the smarter eavesdropper of §6(a): before
// decoding it band-pass filters around the two FSK tones, stripping any
// jamming energy outside them. Against a flat (constant-profile) jammer
// this discards most of the jamming power; against a shaped jammer it
// gains nothing — the ablation behind Fig. 5.
func (e *Eavesdropper) FilteredInterceptBER(ch int, start int64, truth []byte) float64 {
	cfg := e.Modem.Config()
	n := cfg.SamplesForBits(len(truth))
	obs := e.RX.Process(e.Medium.Observe(e.Antenna, ch, start, n))

	// Two complex band-pass filters centered on the tones, each wide
	// enough to pass one tone's modulation lobe (half the symbol rate on
	// each side).
	half := cfg.SymbolRate
	hi := dsp.BandPassFIR(cfg.Deviation, half, cfg.SampleRate, 129, dsp.Hamming)
	lo := dsp.BandPassFIR(-cfg.Deviation, half, cfg.SampleRate, 129, dsp.Hamming)
	filtered := hi.Filter(obs)
	dsp.AddTo(filtered, lo.Filter(obs))

	got := e.Modem.DemodBits(filtered, len(truth), e.cfoFor(filtered))
	errs, m := phy.CountBitErrors(got, truth)
	if m == 0 {
		return 1
	}
	return float64(errs) / float64(m)
}

// Active is an active adversary that transmits unauthorized commands. Per
// §9, it records a real programmer exchange once, demodulates it to clean
// bits, and replays remodulated copies; operationally that means it can
// synthesize any frame the programmer could.
type Active struct {
	Antenna channel.AntennaID
	Medium  *channel.Medium
	TX      *radio.TXChain
	RX      *radio.RXChain
	Modem   *modem.FSK

	// Recorded is the cleaned-up command frame captured from a legitimate
	// session (replay source).
	Recorded *phy.Frame
}

// Record captures and cleans a programmer transmission: the adversary
// demodulates the FSK signal to bits and keeps the frame, removing the
// channel noise from its copy (§9).
func (a *Active) Record(ch int, start int64, n int) bool {
	obs := a.RX.Process(a.Medium.Observe(a.Antenna, ch, start, n))
	rx, ok := a.Modem.ReceiveFrame(obs, 0.5)
	if !ok || rx.Frame == nil {
		return false
	}
	a.Recorded = rx.Frame
	return true
}

// Replay transmits the recorded (or supplied) frame at sample start on
// channel ch and returns the burst.
func (a *Active) Replay(ch int, start int64, f *phy.Frame) *channel.Burst {
	if f == nil {
		f = a.Recorded
	}
	if f == nil {
		return nil
	}
	frame := a.Modem.ModulateFrame(f)
	iq := a.TX.Transmit(a.Medium.Samples(len(frame)), frame)
	b := &channel.Burst{Channel: ch, Start: start, IQ: iq, From: a.Antenna}
	a.Medium.AddBurst(b)
	return b
}

// OverlayOnShield attempts the capture-effect attack of §7: transmit a
// replacement command overlapping an ongoing shield transmission, hoping
// the stronger signal captures the IMD's receiver. offset places the
// overlay relative to the victim burst's start.
func (a *Active) OverlayOnShield(victim *channel.Burst, offset int64, f *phy.Frame) *channel.Burst {
	return a.Replay(victim.Channel, victim.Start+offset, f)
}

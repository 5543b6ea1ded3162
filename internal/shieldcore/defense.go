package shieldcore

import (
	"heartshield/internal/channel"
	"heartshield/internal/dsp"
	"heartshield/internal/phy"
	"heartshield/internal/radio"
)

// DefenseReport describes what the shield saw and did during one
// monitoring window of its active defense (§7).
type DefenseReport struct {
	// Channel is the MICS channel this report covers.
	Channel int
	// BurstDetected reports that the energy detector saw a transmission.
	BurstDetected bool
	// DetectAt is the absolute sample where the burst was first sensed.
	DetectAt int64
	// RSSIDBm is the measured power of the detected transmission.
	RSSIDBm float64
	// SidChecked reports that bit-level identification was attempted
	// (a preamble was found).
	SidChecked bool
	// SidErrors is the Hamming distance between the decoded prefix and
	// the protected IMD's identifying sequence.
	SidErrors int
	// Matched reports SidErrors <= bthresh: the transmission addresses the
	// protected IMD and must be jammed.
	Matched bool
	// Jammed reports that jamming was emitted.
	Jammed bool
	// JamStart and JamEnd bound the emitted jamming (absolute samples).
	JamStart, JamEnd int64
	// Placements are the jam+antidote bursts emitted; like every
	// JamPlacement they are valid only until the trial ends.
	Placements []*JamPlacement
	// Alarmed reports that the Pthresh alarm fired (§7(d)).
	Alarmed bool
	// TurnaroundSamples is the reaction latency drawn for this event: the
	// delay between a state change on the air and the shield acting on it
	// (Table 2's turn-around measurement).
	TurnaroundSamples int64
}

// DefendWindow runs the active defense over [start, start+n) on the
// shield's session channel. See DefendChannelWindow.
func (s *Shield) DefendWindow(start int64, n int) DefenseReport {
	return s.DefendChannelWindow(s.Channel, start, n)
}

// DefendChannelWindow runs the active defense on one MICS channel:
// energy-detect a transmission, identify it by matching the decoded bit
// prefix against Sid with tolerance bthresh, jam it until it ends if it
// matches, and raise the alarm when its power exceeds Pthresh.
//
// The jam is emitted in sense-chunk segments; between segments the shield
// keeps listening through its own jamming (the antidote keeps the residual
// low) and stops one turn-around after the channel goes quiet — the
// behaviour Table 2 measures.
func (s *Shield) DefendChannelWindow(ch int, start int64, n int) DefenseReport {
	rep := DefenseReport{Channel: ch}
	cfg := s.Modem.Config()
	chunk := cfg.SamplesForDuration(senseChunkSec)

	obs := s.RX.Process(s.Medium.Observe(s.RxAntenna, ch, start, n))

	// Energy scan for the burst start.
	detRel := -1
	for off := 0; off+chunk <= len(obs); off += chunk {
		if radio.RSSIdBm(obs[off:off+chunk]) > senseThresholdDBm {
			detRel = off
			break
		}
	}
	if detRel < 0 {
		return rep
	}
	rep.BurstDetected = true
	rep.DetectAt = start + int64(detRel)

	// Measure RSSI over the identification span.
	sidSamples := cfg.SamplesForBits(phy.SidBits)
	measEnd := detRel + sidSamples
	if measEnd > len(obs) {
		measEnd = len(obs)
	}
	rep.RSSIDBm = radio.RSSIdBm(obs[detRel:measEnd])

	// Bit-level identification: find the preamble near the energy rise and
	// compare the first SidBits decoded bits against Sid. The energy
	// detector works at chunk granularity, so the true preamble start can
	// precede detRel by up to a chunk — the search window backs up
	// accordingly, or the correlator would lock onto a preamble sidelobe
	// several bits late. The match is additionally scored at a few bit
	// alignments around the peak; the shield prefers a false jam over a
	// missed unauthorized command (§7(b)).
	searchStart := detRel - 2*chunk
	if searchStart < 0 {
		searchStart = 0
	}
	searchEnd := detRel + 3*sidSamples
	if searchEnd > len(obs) {
		searchEnd = len(obs)
	}
	if sr, ok := s.Modem.Sync(obs[searchStart:searchEnd], s.SyncThreshold); ok {
		rep.SidChecked = true
		sps := cfg.SamplesPerSymbol()
		rep.SidErrors = phy.SidBits
		for shift := -2; shift <= 2; shift++ {
			frameStart := searchStart + sr.Start + shift*sps
			if frameStart < 0 || frameStart >= len(obs) {
				continue
			}
			bits := s.Modem.DemodBits(obs[frameStart:], phy.SidBits, sr.CFOHz)
			if len(bits) != phy.SidBits {
				continue
			}
			if d := phy.HammingDistance(bits, s.sid); d < rep.SidErrors {
				rep.SidErrors = d
			}
		}
		rep.Matched = rep.SidErrors <= s.BThresh
	}

	// Alarm: any detected transmission in a MICS channel whose power
	// exceeds Pthresh could reach the IMD despite jamming; alert the
	// patient (§7(d)).
	if rep.RSSIDBm > s.PThreshDBm {
		rep.Alarmed = true
		s.alarms = append(s.alarms, Alarm{At: rep.DetectAt, RSSIDBm: rep.RSSIDBm})
	}

	if !rep.Matched {
		return rep
	}

	// Jam from detection+turnaround until the signal stops, or until the
	// longest legal packet has certainly ended (backstop for adversaries
	// too weak to hear through the jam residual).
	rep.TurnaroundSamples = s.turnaroundSamples()
	jamFrom := rep.DetectAt + int64(sidSamples) + rep.TurnaroundSamples
	maxEnd := rep.DetectAt + int64(cfg.SamplesForDuration(s.Protected.MaxPacket)) + int64(chunk)
	if windowEnd := start + int64(n); maxEnd > windowEnd {
		maxEnd = windowEnd
	}

	// Active jamming runs at the full FCC power — the shield's whole
	// allowance goes into stopping the unauthorized command (§7(d)).
	jamPower := s.TXJam.PowerDBm

	// Can the shield still hear this adversary through its own jamming
	// residual? If not, "the medium looks idle" carries no information,
	// so the shield conservatively jams for the longest legal packet
	// instead of trusting the energy detector.
	sensable := rep.RSSIDBm > s.inJamSenseFloorDBm(jamPower)+3

	rep.JamStart = jamFrom
	cur := jamFrom
	for cur < maxEnd {
		segEnd := cur + int64(chunk)
		if segEnd > maxEnd {
			segEnd = maxEnd
		}
		rep.Placements = append(rep.Placements, s.placeJamAt(ch, cur, int(segEnd-cur), jamPower))
		cur = segEnd
		if cur >= maxEnd {
			break
		}
		if sensable && !s.externallyBusy(ch, cur, chunk, jamPower) {
			// The signal is gone; the DSP pipeline takes one turn-around
			// to notice, during which jamming continues.
			linger := rep.TurnaroundSamples
			if cur+linger > maxEnd {
				linger = maxEnd - cur
			}
			if linger > 0 {
				rep.Placements = append(rep.Placements, s.placeJamAt(ch, cur, int(linger), jamPower))
				cur += linger
			}
			break
		}
	}
	rep.Jammed = len(rep.Placements) > 0
	rep.JamEnd = cur
	return rep
}

// inJamSenseFloorDBm is the lowest external power the shield can still
// detect while jamming at jamPowerDBm: the maximum of the thermal sense
// threshold and its own antidote-cancelled jam residual (conservatively
// assuming only 25 dB of cancellation).
func (s *Shield) inJamSenseFloorDBm(jamPowerDBm float64) float64 {
	floor := senseThresholdDBm
	couplingDB := -dsp.DB(magSq(s.est.HJamToRx))
	if residual := jamPowerDBm - couplingDB - 25 + 6; residual > floor {
		floor = residual
	}
	return floor
}

// externallyBusy listens through the shield's own (antidote-cancelled)
// jamming on channel ch and reports whether a non-shield signal is still
// on the air. The detection threshold sits above the expected jam residual
// (jam transmit power minus antenna coupling minus a conservative
// cancellation estimate) so the shield can tell foreign energy from its
// own leakage.
func (s *Shield) externallyBusy(ch int, at int64, chunk int, jamPowerDBm float64) bool {
	if at < 0 {
		return false
	}
	obs := s.RX.Process(s.Medium.Observe(s.RxAntenna, ch, at, chunk))
	return radio.RSSIdBm(obs) > s.inJamSenseFloorDBm(jamPowerDBm)
}

// TxMonitorResult reports concurrent-signal detection during the shield's
// own transmission (§7, the anti-capture rule: if anything overlaps the
// shield's transmission, switch to jamming unconditionally).
type TxMonitorResult struct {
	Concurrent   bool
	ResidualDBm  float64
	SwitchSample int64 // when the shield switched from transmitting to jamming
	Placement    *JamPlacement
}

// TransmitAndMonitor sends a frame from the receive antenna's transmit
// chain while monitoring for concurrent transmissions: the shield
// subtracts its own signal (via the estimated self-channel) from what the
// receive chain hears and, if significant foreign energy remains, aborts
// into jamming until the end of the window. This prevents an adversary
// from overwriting the shield's message to the IMD with a capture-effect
// attack.
func (s *Shield) TransmitAndMonitor(f *phy.Frame, start int64) (*channel.Burst, TxMonitorResult) {
	frame := s.Modem.ModulateFrame(f)
	iq := s.TXRx.Transmit(s.Medium.Samples(len(frame)), frame)
	burst := &channel.Burst{Channel: s.Channel, Start: start, IQ: iq, From: s.RxAntenna}
	s.Medium.AddBurst(burst)
	return burst, s.MonitorOwnTransmission(burst, iq)
}

// selfCancelMarginDB bounds how well the shield can subtract its own
// transmission from its receive chain: channel drift since the last
// estimate leaves a residual ~40 dB below the own-signal level, so the
// concurrent-signal threshold sits 24 dB below it (16 dB of headroom).
const selfCancelMarginDB = 24

// MonitorOwnTransmission performs the concurrent-signal check for a burst
// the shield has already placed (split out so experiments can interleave
// an adversary's overlapping transmission between placement and check).
func (s *Shield) MonitorOwnTransmission(burst *channel.Burst, sentIQ []complex128) TxMonitorResult {
	var res TxMonitorResult
	n := len(sentIQ)
	obs := s.Medium.Observe(s.RxAntenna, s.Channel, burst.Start, n)
	// Subtract own contribution through the estimated self-loop.
	hs := s.est.HSelf
	var ownP float64
	for i := range obs {
		own := hs * sentIQ[i]
		ownP += real(own)*real(own) + imag(own)*imag(own)
		obs[i] -= own
	}
	ownP /= float64(n)
	obs = s.RX.Process(obs)

	// Threshold: above the thermal floor and above the self-cancellation
	// residual left by channel drift.
	threshold := senseThresholdDBm + 6
	if ownDBm := dsp.DBm(ownP); ownDBm-selfCancelMarginDB > threshold {
		threshold = ownDBm - selfCancelMarginDB
	}

	chunk := s.Modem.Config().SamplesForDuration(senseChunkSec)
	for off := 0; off+chunk <= n; off += chunk {
		p := radio.RSSIdBm(obs[off : off+chunk])
		if p > threshold {
			res.Concurrent = true
			res.ResidualDBm = p
			res.SwitchSample = burst.Start + int64(off) + s.turnaroundSamples()
			break
		}
	}
	if !res.Concurrent {
		return res
	}
	// A concurrent signal strong enough to exceed Pthresh may capture the
	// IMD's receiver despite the jamming that follows — alert the patient.
	if res.ResidualDBm > s.PThreshDBm {
		s.alarms = append(s.alarms, Alarm{At: res.SwitchSample, RSSIDBm: res.ResidualDBm})
	}
	// Switch to jamming (at full power) for the rest of the window plus
	// the IMD's response slot, so neither the altered command nor any
	// response survives.
	_, jamEnd := s.ResponseWindow(burst.Start + int64(n))
	res.Placement = s.placeJamAt(s.Channel, res.SwitchSample, int(jamEnd-res.SwitchSample), s.TXJam.PowerDBm)
	return res
}

// CancellationDB measures the antidote's effectiveness the way the Fig. 7
// micro-benchmark does: transmit the jam without the antidote, measure the
// received power, repeat with the antidote, and report the difference.
// Each call uses fresh random jamming.
func (s *Shield) CancellationDB(n int) float64 {
	if !s.est.Valid {
		panic("shieldcore: CancellationDB without channel estimate")
	}
	jamTx := s.jamGen.Generate(s.Medium.Samples(n))
	s.TXJam.TransmitAt(jamTx, jamTx, s.jamTxPowerDBm())

	hTrue := s.Medium.Gain(s.JamAntenna, s.RxAntenna)
	hSelf := s.Medium.Gain(s.RxAntenna, s.RxAntenna)

	// One buffer serves both measurements sequentially; the noise draw
	// order (without first, then with) matches the two-buffer form.
	buf := s.Medium.Samples(n)
	for i := range buf {
		buf[i] = hTrue * jamTx[i]
	}
	pwDBm := radio.RSSIdBm(s.RX.Process(buf))
	ratio := -s.est.HJamToRx / s.est.HSelf
	for i := range buf {
		buf[i] = hTrue*jamTx[i] + hSelf*ratio*jamTx[i]
	}
	pcDBm := radio.RSSIdBm(s.RX.Process(buf))
	return pwDBm - pcDBm
}

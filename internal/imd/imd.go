// Package imd models the implantable medical devices under protection: a
// protocol state machine faithful to the externally observable behaviour
// the paper documents for the Medtronic Virtuoso ICD and Concerto CRT —
// FSK telemetry, a fixed response window after each command with no
// carrier sensing (Fig. 3), CRC-gated command acceptance, a therapy
// parameter store, and battery accounting for depletion attacks.
package imd

import (
	"fmt"

	"heartshield/internal/channel"
	"heartshield/internal/dsp"
	"heartshield/internal/modem"
	"heartshield/internal/phy"
	"heartshield/internal/radio"
	"heartshield/internal/stats"
)

// Profile captures the per-model constants of an IMD.
type Profile struct {
	Name   string
	Serial [phy.SerialBytes]byte
	// T1 and T2 bound the response delay after the end of a received
	// command, in seconds (§6: the shield jams [T1, T2+P]).
	T1, T2 float64
	// MaxPacket is the longest transmission the device makes, in seconds.
	MaxPacket float64
	// DataPayloadLen is the payload size of an interrogation response.
	DataPayloadLen int
	// TherapyAckLen is the payload size of a therapy acknowledgement.
	TherapyAckLen int
}

// VirtuosoICD mirrors the Medtronic Virtuoso DR implantable cardiac
// defibrillator used in the paper's evaluation (T1 = 2.8 ms, T2 = 3.7 ms,
// P = 21 ms, per §6).
var VirtuosoICD = Profile{
	Name:           "Virtuoso DR ICD",
	Serial:         serial("PZK600123H"),
	T1:             2.8e-3,
	T2:             3.7e-3,
	MaxPacket:      21e-3,
	DataPayloadLen: 96,
	TherapyAckLen:  8,
}

// ConcertoCRT mirrors the Medtronic Concerto cardiac resynchronization
// therapy device. Its air protocol matches the Virtuoso's (the paper
// reports no significant difference between the two devices).
var ConcertoCRT = Profile{
	Name:           "Concerto CRT-D",
	Serial:         serial("NWK400778C"),
	T1:             2.8e-3,
	T2:             3.7e-3,
	MaxPacket:      21e-3,
	DataPayloadLen: 96,
	TherapyAckLen:  8,
}

func serial(s string) [phy.SerialBytes]byte {
	var out [phy.SerialBytes]byte
	copy(out[:], s)
	return out
}

// TherapyParams is the device's programmable therapy configuration.
// Defaults model a pacing configuration an attacker might try to alter.
type TherapyParams struct {
	PacingRateBPM  byte // lower rate limit, beats per minute
	ShockEnergyJ   byte // defibrillation shock energy
	TherapyEnabled byte // 1 = tachy therapies on
}

// DefaultTherapy is the out-of-box configuration.
var DefaultTherapy = TherapyParams{PacingRateBPM: 60, ShockEnergyJ: 35, TherapyEnabled: 1}

// Therapy parameter IDs used in set-therapy payloads.
const (
	ParamPacingRate byte = 0x01
	ParamShockE     byte = 0x02
	ParamEnabled    byte = 0x03
)

// Device is one simulated IMD attached to a medium.
type Device struct {
	Profile Profile
	Antenna channel.AntennaID
	Medium  *channel.Medium
	TX      *radio.TXChain
	RX      *radio.RXChain
	Modem   *modem.FSK
	// Channel is the MICS channel the device's current session is locked
	// to; it receives and responds only there.
	Channel int

	therapy TherapyParams
	rng     *stats.RNG

	// Counters for battery/energy accounting and experiment bookkeeping.
	txSamples  int64
	rxFrames   int
	respFrames int
}

// Config bundles the dependencies for NewDevice.
type Config struct {
	Profile Profile
	Antenna channel.AntennaID
	Medium  *channel.Medium
	TX      *radio.TXChain
	RX      *radio.RXChain
	Modem   *modem.FSK
	Channel int
	RNG     *stats.RNG
}

// NewDevice constructs an IMD with the default therapy configuration.
func NewDevice(cfg Config) *Device {
	if cfg.Medium == nil || cfg.TX == nil || cfg.RX == nil || cfg.Modem == nil || cfg.RNG == nil {
		panic("imd: incomplete device config")
	}
	return &Device{
		Profile: cfg.Profile,
		Antenna: cfg.Antenna,
		Medium:  cfg.Medium,
		TX:      cfg.TX,
		RX:      cfg.RX,
		Modem:   cfg.Modem,
		Channel: cfg.Channel,
		therapy: DefaultTherapy,
		rng:     cfg.RNG,
	}
}

// Therapy returns the current therapy configuration.
func (d *Device) Therapy() TherapyParams { return d.therapy }

// SetTherapy overwrites the therapy configuration (used by tests to reset
// state between trials).
func (d *Device) SetTherapy(p TherapyParams) { d.therapy = p }

// SyncThreshold is the correlation the IMD requires to lock onto a
// preamble.
const SyncThreshold = 0.5

// Reaction describes what the device did with one observation window.
type Reaction struct {
	// Synced reports whether a preamble was detected at all.
	Synced bool
	// Frame is the CRC-valid frame addressed to this device, if any.
	Frame *phy.Frame
	// CRCFailed reports a detected frame that failed its checksum — the
	// outcome the shield's jamming aims for.
	CRCFailed bool
	// Responded reports that a response burst was placed on the medium.
	Responded bool
	// Response is the transmitted reply frame.
	Response *phy.Frame
	// ResponseBurst is the burst placed on the medium; its samples live
	// in the sample arena until the trial ends.
	ResponseBurst *channel.Burst
	// TherapyChanged reports that a set-therapy command took effect.
	TherapyChanged bool
}

// ProcessWindow lets the device listen to its session channel over
// [start, start+n). If a CRC-valid frame addressed to the device is
// decoded, the device schedules its response burst T1..T2 after the end of
// the received frame — without sensing the medium, exactly as the
// Virtuoso behaves in Fig. 3 — and applies any therapy change. The
// response burst is added to the medium and returned in the Reaction.
func (d *Device) ProcessWindow(start int64, n int) Reaction {
	var re Reaction
	obs := d.RX.Process(d.Medium.Observe(d.Antenna, d.Channel, start, n))
	rx, ok := d.Modem.ReceiveFrame(obs, SyncThreshold)
	if !ok {
		return re
	}
	re.Synced = true
	if rx.Frame == nil {
		re.CRCFailed = true
		return re
	}
	if rx.Frame.Serial != d.Profile.Serial {
		// Addressed to some other device; stay silent.
		return re
	}
	re.Frame = rx.Frame
	d.rxFrames++

	resp := d.buildResponse(rx.Frame, &re)
	if resp == nil {
		return re
	}
	// Response timing: the frame ended at start + syncStart + frameBits.
	frameBits := phy.AirBits(len(rx.Frame.Payload))
	frameEnd := start + int64(rx.Sync.Start) + int64(d.Modem.Config().SamplesForBits(frameBits))
	delaySec := d.Profile.T1 + d.rng.Float64()*(d.Profile.T2-d.Profile.T1)
	respStart := frameEnd + int64(d.Modem.Config().SamplesForDuration(delaySec))

	iq := d.transmit(resp)
	burst := &channel.Burst{Channel: d.Channel, Start: respStart, IQ: iq, From: d.Antenna}
	d.Medium.AddBurst(burst)
	d.txSamples += int64(len(iq))
	d.respFrames++

	re.Responded = true
	re.Response = resp
	re.ResponseBurst = burst
	return re
}

func (d *Device) buildResponse(f *phy.Frame, re *Reaction) *phy.Frame {
	switch f.Command {
	case phy.CmdInterrogate:
		return &phy.Frame{
			Serial:  d.Profile.Serial,
			Command: phy.CmdDataResponse,
			Payload: d.patientData(),
		}
	case phy.CmdSetTherapy:
		if d.applyTherapy(f.Payload) {
			re.TherapyChanged = true
		}
		ack := make([]byte, d.Profile.TherapyAckLen)
		copy(ack, f.Payload)
		return &phy.Frame{Serial: d.Profile.Serial, Command: phy.CmdTherapyAck, Payload: ack}
	case phy.CmdReadTherapy:
		return &phy.Frame{
			Serial:  d.Profile.Serial,
			Command: phy.CmdTherapyReadback,
			Payload: []byte{ParamPacingRate, d.therapy.PacingRateBPM, ParamShockE, d.therapy.ShockEnergyJ, ParamEnabled, d.therapy.TherapyEnabled},
		}
	default:
		// Unknown or response-class commands get no reply.
		return nil
	}
}

// applyTherapy interprets a set-therapy payload of (id, value) pairs.
func (d *Device) applyTherapy(payload []byte) bool {
	changed := false
	for i := 0; i+1 < len(payload); i += 2 {
		id, v := payload[i], payload[i+1]
		switch id {
		case ParamPacingRate:
			changed = changed || d.therapy.PacingRateBPM != v
			d.therapy.PacingRateBPM = v
		case ParamShockE:
			changed = changed || d.therapy.ShockEnergyJ != v
			d.therapy.ShockEnergyJ = v
		case ParamEnabled:
			changed = changed || d.therapy.TherapyEnabled != v
			d.therapy.TherapyEnabled = v
		}
	}
	return changed
}

// patientData synthesizes the private record an interrogation elicits:
// an identifying header plus a pseudo-ECG segment. Its confidentiality is
// what the passive-adversary experiments protect.
func (d *Device) patientData() []byte {
	n := d.Profile.DataPayloadLen
	data := make([]byte, n)
	copy(data, "PATIENT:J.DOE;ECG:")
	for i := 18; i < n; i++ {
		// Deterministic synthetic ECG-like waveform bytes.
		data[i] = byte(128 + 100*ecgSample(float64(i-18)/16))
	}
	return data
}

// ecgSample is a crude periodic ECG-like pulse in [-1, 1].
func ecgSample(t float64) float64 {
	ph := t - float64(int(t))
	switch {
	case ph < 0.08:
		return ph / 0.08 // rising R spike
	case ph < 0.16:
		return 1 - (ph-0.08)/0.04 // falling edge overshooting
	case ph < 0.3:
		return -0.2 + 0.2*(ph-0.16)/0.14
	default:
		return 0.05
	}
}

// EmergencyTransmit models the one exception to the command/response
// discipline (§3.1): on detecting a life-threatening condition the IMD
// initiates a transmission of its own. The frame carries the event record;
// no programmer message precedes it, so the shield has no T1/T2 window to
// anticipate — by design the system does not protect the confidentiality
// of these transmissions (reaching help outweighs privacy).
func (d *Device) EmergencyTransmit(start int64) *channel.Burst {
	f := &phy.Frame{
		Serial:  d.Profile.Serial,
		Command: phy.CmdDataResponse,
		Payload: append([]byte("EMERGENCY:VF-DETECTED;"), d.patientData()[:40]...),
	}
	iq := d.transmit(f)
	burst := &channel.Burst{Channel: d.Channel, Start: start, IQ: iq, From: d.Antenna}
	d.Medium.AddBurst(burst)
	d.txSamples += int64(len(iq))
	return burst
}

// transmit modulates f and passes it through the TX chain into a burst
// buffer of the medium.
func (d *Device) transmit(f *phy.Frame) []complex128 {
	frame := d.Modem.ModulateFrame(f)
	return d.TX.Transmit(d.Medium.Samples(len(frame)), frame)
}

// TxEnergyMilliJoule returns the cumulative transmit energy spent, in mJ,
// assuming the configured TX power — the battery-depletion metric.
func (d *Device) TxEnergyMilliJoule() float64 {
	sec := float64(d.txSamples) / d.Modem.Config().SampleRate
	return dsp.FromDBm(d.TX.PowerDBm) * sec
}

// Stats reports the device's lifetime counters.
type Stats struct {
	FramesAccepted int
	Responses      int
	TxSamples      int64
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{FramesAccepted: d.rxFrames, Responses: d.respFrames, TxSamples: d.txSamples}
}

// ResetCounters zeroes the lifetime counters (between experiment runs).
func (d *Device) ResetCounters() {
	d.txSamples, d.rxFrames, d.respFrames = 0, 0, 0
}

// ReseedRNG restarts the device's random source in place on seed's
// stream. A scenario reseed (Reset, NewTrialAt) uses it so a reseeded
// device draws the same response jitter stream as a freshly built one.
func (d *Device) ReseedRNG(seed int64) { d.rng.Reseed(seed) }

// String identifies the device for logs.
func (d *Device) String() string {
	return fmt.Sprintf("%s serial=%s ch=%d", d.Profile.Name, d.Profile.Serial, d.Channel)
}

// Package programmer models the authorized IMD programmer (the Medtronic
// Carelink 2090 stand-in): it builds interrogation and therapy commands,
// obeys the MICS listen-before-talk rule, and — in the shielded deployment
// — exchanges those commands with the shield over an authenticated
// encrypted link instead of addressing the IMD directly.
package programmer

import (
	"heartshield/internal/channel"
	"heartshield/internal/mics"
	"heartshield/internal/modem"
	"heartshield/internal/phy"
	"heartshield/internal/radio"
)

// Programmer is an authorized wand/console radio.
type Programmer struct {
	Antenna channel.AntennaID
	Medium  *channel.Medium
	TX      *radio.TXChain
	RX      *radio.RXChain
	Modem   *modem.FSK
	// Target is the serial of the IMD under management.
	Target [phy.SerialBytes]byte
}

// Interrogate builds the command that asks the IMD to transmit its stored
// data (the battery-depletion vector of Fig. 11 when replayed by an
// adversary).
func (p *Programmer) Interrogate() *phy.Frame {
	return &phy.Frame{Serial: p.Target, Command: phy.CmdInterrogate}
}

// SetTherapy builds a therapy-modification command with (id, value) pairs.
func (p *Programmer) SetTherapy(pairs ...byte) *phy.Frame {
	return &phy.Frame{Serial: p.Target, Command: phy.CmdSetTherapy, Payload: pairs}
}

// ReadTherapy builds a therapy-readback command.
func (p *Programmer) ReadTherapy() *phy.Frame {
	return &phy.Frame{Serial: p.Target, Command: phy.CmdReadTherapy}
}

// ListenBeforeTalk performs the 10 ms CCA on channel ch starting at
// sample start.
func (p *Programmer) ListenBeforeTalk(ch int, start int64) bool {
	return mics.ClearChannel(p.Medium, p.Antenna, p.RX, ch, start, mics.DefaultCCAThresholdDBm)
}

// Transmit modulates and places a frame on channel ch at sample start,
// returning the burst.
func (p *Programmer) Transmit(ch int, start int64, f *phy.Frame) *channel.Burst {
	frame := p.Modem.ModulateFrame(f)
	iq := p.TX.Transmit(p.Medium.Samples(len(frame)), frame)
	b := &channel.Burst{Channel: ch, Start: start, IQ: iq, From: p.Antenna}
	p.Medium.AddBurst(b)
	return b
}

// TransmitAfterLBT runs the listen-before-talk check and transmits only if
// the channel is clear, returning the burst or nil.
func (p *Programmer) TransmitAfterLBT(ch int, start int64, f *phy.Frame) *channel.Burst {
	if !p.ListenBeforeTalk(ch, start) {
		return nil
	}
	ccaSamples := int64(mics.CCASamples(p.Medium.SampleRate()))
	return p.Transmit(ch, start+ccaSamples, f)
}

// Receive attempts to decode one frame from channel ch over the window
// [start, start+n).
func (p *Programmer) Receive(ch int, start int64, n int) (modem.RxFrame, bool) {
	obs := p.RX.Process(p.Medium.Observe(p.Antenna, ch, start, n))
	return p.Modem.ReceiveFrame(obs, 0.5)
}

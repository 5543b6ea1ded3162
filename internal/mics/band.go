// Package mics models the Medical Implant Communication Services band:
// the 402–405 MHz band plan (ten 300 kHz channels) and the FCC
// listen-before-talk rule.
package mics

import (
	"heartshield/internal/channel"
	"heartshield/internal/radio"
)

// Band constants per FCC 47 CFR 95 subpart E/I.
const (
	// NumChannels is the number of 300 kHz channels in the band.
	NumChannels = 10
	// CCADuration is the FCC-required listen-before-talk interval.
	CCADuration = 10e-3 // seconds
)

// CCASamples returns the number of samples in the 10 ms listen-before-talk
// window at sample rate fs.
func CCASamples(fs float64) int { return int(CCADuration*fs + 0.5) }

// ClearChannel performs the listen-before-talk assessment: it observes
// channel ch at antenna rx over the CCA window starting at sample start and
// reports whether the measured power stays below thresholdDBm.
func ClearChannel(m *channel.Medium, rx channel.AntennaID, chain *radio.RXChain, ch int, start int64, thresholdDBm float64) bool {
	n := CCASamples(m.SampleRate())
	obs := chain.Process(m.Observe(rx, ch, start, n))
	return radio.RSSIdBm(obs) < thresholdDBm
}

// DefaultCCAThresholdDBm is the energy-detect threshold for LBT: a level
// comfortably above the thermal floor but below any plausible nearby
// transmission.
const DefaultCCAThresholdDBm = -95

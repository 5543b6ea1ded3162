package mics

import (
	"math"
	"testing"

	"heartshield/internal/channel"
	"heartshield/internal/radio"
	"heartshield/internal/stats"
)

func TestCCASamples(t *testing.T) {
	if got := CCASamples(600e3); got != 6000 {
		t.Fatalf("CCASamples = %d, want 6000 (10 ms at 600 kHz)", got)
	}
}

func lbtRig(seed int64) (*channel.Medium, *radio.RXChain) {
	rng := stats.NewRNG(seed)
	m := channel.NewMedium(600e3, rng.Split())
	rx := &radio.RXChain{
		NoiseFloorDBm: radio.NoiseFloorDBm(300e3, 7),
		ChannelBW:     300e3,
		SampleRate:    600e3,
		RNG:           rng.Split(),
	}
	return m, rx
}

const (
	antListener channel.AntennaID = 1
	antOther    channel.AntennaID = 2
)

func TestClearChannelIdleAndBusy(t *testing.T) {
	m, rx := lbtRig(1)
	m.SetLink(antListener, antOther, channel.Link{LossDB: 40})
	m.NewEpoch()

	if !ClearChannel(m, antListener, rx, 0, 0, DefaultCCAThresholdDBm) {
		t.Fatal("idle channel should be clear")
	}

	// A -16 dBm transmission 40 dB away lands at -56 dBm: busy.
	tx := &radio.TXChain{PowerDBm: -16, SampleRate: 600e3}
	iq := make([]complex128, CCASamples(600e3)+100)
	tx.Transmit(iq, iq)
	for i := range iq {
		iq[i] = complex(math.Sqrt(dBToLin(-16)), 0)
	}
	m.AddBurst(&channel.Burst{Channel: 0, Start: 0, IQ: iq, From: antOther})
	if ClearChannel(m, antListener, rx, 0, 0, DefaultCCAThresholdDBm) {
		t.Fatal("occupied channel should not be clear")
	}
	// Other channels stay clear.
	if !ClearChannel(m, antListener, rx, 1, 0, DefaultCCAThresholdDBm) {
		t.Fatal("other channels should remain clear")
	}
}

func dBToLin(db float64) float64 { return math.Pow(10, db/10) }

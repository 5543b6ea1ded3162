// Package heartshield is a Go reproduction of "They Can Hear Your
// Heartbeats: Non-Invasive Security for Implantable Medical Devices"
// (Gollakota, Hassanieh, Ransford, Katabi, Fu — SIGCOMM 2011).
//
// The library simulates, at IQ-sample level, a MICS-band testbed with an
// implanted medical device (IMD), the paper's contribution — the shield, a
// wearable full-duplex jammer-cum-receiver — an authorized programmer, and
// the passive/active adversaries of the threat model. The public API
// exposes scenario construction, the protected command/response exchange,
// attack trials, and runners for every table and figure of the paper's
// evaluation.
//
// Quick start:
//
//	sim := heartshield.NewSimulation(heartshield.SimOptions{Seed: 1})
//	rep, err := sim.ProtectedExchange(heartshield.Interrogate)
//	// rep.Response holds the IMD's data; rep.EavesdropperBER ≈ 0.5
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package heartshield

import (
	"fmt"

	"heartshield/internal/airlog"
	"heartshield/internal/channel"
	"heartshield/internal/imd"
	"heartshield/internal/mics"
	"heartshield/internal/shieldcore"
	"heartshield/internal/testbed"
)

// CommandKind selects the command a session or attack issues.
type CommandKind int

const (
	// Interrogate asks the IMD to transmit its stored private data.
	Interrogate CommandKind = iota
	// SetTherapy modifies the IMD's therapy parameters.
	SetTherapy
)

// SimOptions configures a simulation testbed.
type SimOptions struct {
	// Seed makes the run reproducible; equal seeds give equal runs.
	Seed int64
	// Location (1-based, 1..18) places the adversary and eavesdropper at
	// one of the Fig. 6 testbed positions. Default 1 (20 cm).
	Location int
	// HighPowerAdversary gives the active adversary 100× the shield's
	// transmit power (the Fig. 13 threat).
	HighPowerAdversary bool
	// FlatJam switches the shield to the constant-profile jamming of
	// Fig. 5 instead of the default FSK-shaped profile.
	FlatJam bool
	// DigitalCancel enables the shield's digital residual cancellation
	// stage in addition to the antenna-level antidote.
	DigitalCancel bool
	// Concerto protects the Concerto CRT profile instead of the default
	// Virtuoso ICD.
	Concerto bool
}

// Simulation is a fully wired testbed: medium, IMD, shield, programmer,
// adversary, eavesdropper, and observer — a testbed.World, the same one a
// shieldd session builds for the same seed and options.
type Simulation struct {
	w *testbed.World
}

// NewSimulation builds the testbed and calibrates the shield (channel
// estimation and IMD power measurement).
func NewSimulation(opt SimOptions) *Simulation {
	tOpt := testbed.Options{
		Seed:          opt.Seed,
		Location:      opt.Location,
		DigitalCancel: opt.DigitalCancel,
	}
	if opt.HighPowerAdversary {
		tOpt.AdversaryPowerDBm = testbed.HighPowerAdvDBm
	}
	if opt.FlatJam {
		tOpt.Shape = shieldcore.FlatJam
	}
	if opt.Concerto {
		tOpt.Profile = imd.ConcertoCRT
	}
	return &Simulation{w: testbed.NewWorld(testbed.NewScenario(tOpt))}
}

// Location returns the adversary/eavesdropper placement in use.
func (s *Simulation) Location() string { return s.w.Location.String() }

// IMDName returns the protected device's model name.
func (s *Simulation) IMDName() string { return s.w.IMD.Profile.Name }

// Therapy returns the IMD's current therapy parameters (pacing rate BPM,
// shock energy J, therapy-enabled flag).
func (s *Simulation) Therapy() (rate, shock, enabled byte) {
	th := s.w.IMD.Therapy()
	return th.PacingRateBPM, th.ShockEnergyJ, th.TherapyEnabled
}

// ExchangeReport describes one protected (shield-proxied) exchange.
type ExchangeReport struct {
	// Response is the payload the IMD returned through the shield, nil if
	// the exchange failed.
	Response []byte
	// ResponseCommand names the response type.
	ResponseCommand string
	// EavesdropperBER is the bit error rate an optimal eavesdropper
	// achieved against the jammed response (≈0.5 when protected).
	EavesdropperBER float64
	// CancellationDB is the antidote cancellation measured this exchange.
	CancellationDB float64
}

// ProtectedExchange runs one full shield-proxied exchange: the shield
// transmits the command, jams the IMD's response window, decodes the
// response through its own jamming, and the eavesdropper attempts the
// same.
func (s *Simulation) ProtectedExchange(kind CommandKind) (ExchangeReport, error) {
	var rep ExchangeReport
	out, err := s.w.Exchange(0, kind == SetTherapy)
	rep.CancellationDB = out.CancellationDB
	if err != nil {
		return rep, fmt.Errorf("heartshield: %w", err)
	}
	rep.Response = out.Response.Payload
	rep.ResponseCommand = out.Response.Command.String()
	rep.EavesdropperBER = out.EavesdropperBER
	return rep, nil
}

// AttackReport describes one unauthorized-command attempt.
type AttackReport struct {
	// ShieldOn records whether the shield was active.
	ShieldOn bool
	// IMDResponded reports that the command elicited an IMD transmission.
	IMDResponded bool
	// TherapyChanged reports that a therapy-modification took effect.
	TherapyChanged bool
	// ShieldJammed reports that the shield jammed the command.
	ShieldJammed bool
	// Alarmed reports that the shield raised the high-power alarm.
	Alarmed bool
	// AdversaryRSSIDBm is the attack's power measured at the shield.
	AdversaryRSSIDBm float64
}

// Attack replays an unauthorized command from the configured adversary
// location, with the shield active or not, and reports the outcome.
func (s *Simulation) Attack(kind CommandKind, shieldOn bool) AttackReport {
	out := s.w.Attack(kind == SetTherapy, shieldOn)
	return AttackReport{
		ShieldOn:         shieldOn,
		IMDResponded:     out.Responded,
		TherapyChanged:   out.TherapyChanged,
		ShieldJammed:     out.Jammed,
		Alarmed:          out.Alarmed,
		AdversaryRSSIDBm: out.RSSIAtShieldDBm,
	}
}

// CancellationDB measures the antidote's jamming cancellation at the
// shield's receive antenna over one fresh estimate/drift cycle (the Fig. 7
// micro-benchmark).
func (s *Simulation) CancellationDB() float64 {
	s.w.NewTrial()
	s.w.PrepareShield()
	return s.w.Shield.CancellationDB(8192)
}

// AttackTrace runs one attack like Attack and additionally returns a
// pcap-style timeline of every transmission that hit the air during the
// trial — the adversary's command, the shield's jam segments and
// antidote, and any IMD response.
func (s *Simulation) AttackTrace(kind CommandKind, shieldOn bool) (AttackReport, string) {
	rep := s.Attack(kind, shieldOn)
	log := airlog.New(s.w.FSK, s.w.FSK.Config().SampleRate, airlog.Names{
		testbed.AntIMD:        "imd",
		testbed.AntShieldJam:  "shield-jam",
		testbed.AntShieldRx:   "shield-rx",
		testbed.AntProgrammer: "programmer",
		testbed.AntAdversary:  "adversary",
	})
	log.RecordMedium(s.w.Medium, mics.NumChannels, func(b *channel.Burst) (airlog.Kind, string) {
		switch b.From {
		case testbed.AntShieldJam:
			return airlog.KindJam, ""
		case testbed.AntShieldRx:
			return airlog.KindAntidote, ""
		case testbed.AntIMD:
			return airlog.KindResponse, ""
		case testbed.AntAdversary:
			return airlog.KindCommand, "unauthorized"
		}
		return airlog.KindUnknown, ""
	})
	return rep, log.Timeline()
}

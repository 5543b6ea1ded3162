package heartshield

// Integration tests: multi-step stories that exercise several subsystems
// together through the public API, the way a deployment would.

import (
	"strings"
	"testing"

	"heartshield/internal/channel"
	"heartshield/internal/imd"
	"heartshield/internal/phy"
	"heartshield/internal/securelink"
	"heartshield/internal/shieldcore"
	"heartshield/internal/testbed"
)

// A clinic session: the programmer reads the patient record, changes the
// pacing rate, and reads back the therapy — all through the shield's
// encrypted gateway, with the on-air leg jammed end to end. An
// eavesdropper watches the whole session and learns nothing.
func TestClinicSessionOverSecureGateway(t *testing.T) {
	sc := testbed.NewScenario(testbed.Options{Seed: 100, Location: 1})
	sc.CalibrateShieldRSSI()
	shieldEnd, progEnd, err := securelink.Pair([]byte("clinic-pairing-secret"))
	if err != nil {
		t.Fatal(err)
	}
	gw := &shieldcore.GatewaySession{Shield: sc.Shield, Link: shieldEnd}

	step := func(cmd *channel.Burst) {
		sc.IMD.ProcessWindow(cmd.Start, int(cmd.End()-cmd.Start)+3000)
	}
	exchange := func(f *phy.Frame) *phy.Frame {
		t.Helper()
		// Fresh air between exchanges, but device state (therapy) must
		// persist across the session — so no NewTrial here.
		sc.Medium.ClearBursts()
		sc.Medium.NewEpoch()
		sealed, err := gw.HandleRequest(progEnd.Seal(f.Marshal()), 0, step)
		if err != nil {
			t.Fatalf("gateway: %v", err)
		}
		plain, err := progEnd.Open(sealed)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		resp, err := phy.ParseFrame(plain)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return resp
	}

	// 1. Read the record.
	data := exchange(sc.InterrogateFrame())
	if data.Command != phy.CmdDataResponse || !strings.HasPrefix(string(data.Payload), "PATIENT:") {
		t.Fatalf("interrogation response: %v %q", data.Command, data.Payload)
	}

	// 2. Change the pacing rate to 90 bpm.
	setRate := &phy.Frame{
		Serial:  sc.Opt.Profile.Serial,
		Command: phy.CmdSetTherapy,
		Payload: append([]byte{imd.ParamPacingRate, 90}, testbed.CommandPayload()[:14]...),
	}
	ack := exchange(setRate)
	if ack.Command != phy.CmdTherapyAck {
		t.Fatalf("therapy ack: %v", ack.Command)
	}
	if got := sc.IMD.Therapy().PacingRateBPM; got != 90 {
		t.Fatalf("pacing rate = %d, want 90", got)
	}

	// 3. Read the therapy back.
	rb := exchange(&phy.Frame{Serial: sc.Opt.Profile.Serial, Command: phy.CmdReadTherapy})
	if rb.Command != phy.CmdTherapyReadback {
		t.Fatalf("readback: %v", rb.Command)
	}
	found := false
	for i := 0; i+1 < len(rb.Payload); i += 2 {
		if rb.Payload[i] == imd.ParamPacingRate && rb.Payload[i+1] == 90 {
			found = true
		}
	}
	if !found {
		t.Fatalf("readback payload %v missing new rate", rb.Payload)
	}
}

// Replay across sessions must fail at the secure link even though the
// radio bits are valid.
func TestGatewayRejectsReplayedRequest(t *testing.T) {
	sc := testbed.NewScenario(testbed.Options{Seed: 101})
	sc.CalibrateShieldRSSI()
	shieldEnd, progEnd, err := securelink.Pair([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	gw := &shieldcore.GatewaySession{Shield: sc.Shield, Link: shieldEnd}
	step := func(cmd *channel.Burst) {
		sc.IMD.ProcessWindow(cmd.Start, int(cmd.End()-cmd.Start)+3000)
	}
	req := progEnd.Seal(sc.InterrogateFrame().Marshal())
	sc.NewTrial()
	if _, err := gw.HandleRequest(req, 0, step); err != nil {
		t.Fatalf("first use failed: %v", err)
	}
	sc.NewTrial()
	if _, err := gw.HandleRequest(req, 0, step); err != securelink.ErrReplay {
		t.Fatalf("replayed request error = %v, want ErrReplay", err)
	}
}

// The full deployment story in one test: monitoring exchanges proceed
// while an adversary interleaves replay attempts; the IMD only ever acts
// on the authorized commands.
func TestMonitoringUnderInterleavedAttack(t *testing.T) {
	sim := NewSimulation(SimOptions{Seed: 102, Location: 2})
	for round := 0; round < 5; round++ {
		rep, err := sim.ProtectedExchange(Interrogate)
		if err != nil {
			t.Fatalf("round %d exchange: %v", round, err)
		}
		if rep.EavesdropperBER < 0.35 {
			t.Fatalf("round %d: eavesdropper BER %g", round, rep.EavesdropperBER)
		}
		atk := sim.Attack(SetTherapy, true)
		if atk.TherapyChanged {
			t.Fatalf("round %d: interleaved attack succeeded", round)
		}
	}
	// The therapy is untouched after all rounds.
	rate, _, enabled := sim.Therapy()
	if rate != 60 || enabled != 1 {
		t.Fatalf("therapy drifted: rate=%d enabled=%d", rate, enabled)
	}
}

// §2: when persistent interference forces the session onto a new MICS
// channel, the shield retunes with it and protection continues there.
func TestShieldFollowsSessionRetune(t *testing.T) {
	sc := testbed.NewScenario(testbed.Options{Seed: 104, Location: 1})
	sc.CalibrateShieldRSSI()

	runExchange := func() bool {
		sc.NewTrial()
		sc.PrepareShield()
		pending, err := sc.Shield.PlaceCommand(sc.InterrogateFrame(), 0)
		if err != nil {
			t.Fatal(err)
		}
		sc.IMD.ProcessWindow(0, 12000)
		return pending.Collect().Response != nil
	}

	if !runExchange() {
		t.Fatal("exchange failed on the original channel")
	}

	// The session moves to channel 5 (as a MICS session would after
	// persistent interference); both ends retune.
	sc.IMD.Channel = 5
	sc.Shield.Retune(5)
	if !runExchange() {
		t.Fatal("exchange failed after retuning to channel 5")
	}

	// Active defense also follows: an attack on the new channel is
	// jammed.
	sc.NewTrial()
	sc.PrepareShield()
	frame := sc.FSK.ModulateFrame(sc.InterrogateFrame())
	iq := sc.AdvTX.Transmit(sc.Medium.Samples(len(frame)), frame)
	b := &channel.Burst{Channel: 5, Start: 800, IQ: iq, From: testbed.AntAdversary}
	sc.Medium.AddBurst(b)
	rep := sc.Shield.DefendWindow(0, int(b.End())+2000)
	if !rep.Matched || !rep.Jammed {
		t.Fatalf("attack on the retuned channel not jammed: %+v", rep)
	}
	if sc.IMD.ProcessWindow(0, int(b.End())+2000).Responded {
		t.Fatal("attack succeeded on the retuned channel")
	}
}

package shieldcore_test

import (
	"math"
	"testing"

	"heartshield/internal/adversary"
	"heartshield/internal/phy"
	"heartshield/internal/shieldcore"
	"heartshield/internal/testbed"
)

func protectedScenario(t *testing.T, seed int64, loc int, powerDBm float64) (*testbed.Scenario, *adversary.Active) {
	t.Helper()
	sc := testbed.NewScenario(testbed.Options{
		Seed: seed, Location: loc, AdversaryPowerDBm: powerDBm,
	})
	sc.CalibrateShieldRSSI()
	adv := &adversary.Active{
		Antenna: testbed.AntAdversary, Medium: sc.Medium,
		TX: sc.AdvTX, RX: sc.AdvRX, Modem: sc.FSK,
	}
	return sc, adv
}

func TestDefendWindowQuietChannel(t *testing.T) {
	sc, _ := protectedScenario(t, 30, 1, testbed.FCCLimitDBm)
	sc.NewTrial()
	sc.PrepareShield()
	rep := sc.Shield.DefendWindow(0, 20000)
	if rep.BurstDetected || rep.Jammed || rep.Alarmed {
		t.Fatalf("reaction to a quiet channel: %+v", rep)
	}
}

func TestDefendWindowJamCoversPacketTail(t *testing.T) {
	sc, adv := protectedScenario(t, 31, 2, testbed.FCCLimitDBm)
	sc.NewTrial()
	sc.PrepareShield()
	b := adv.Replay(sc.Channel(), 1200, sc.InterrogateFrame())
	rep := sc.Shield.DefendWindow(0, int(b.End())+4000)
	if !rep.Jammed {
		t.Fatalf("not jammed: %+v", rep)
	}
	// The jam must begin after Sid (the shield cannot react before
	// identifying the packet) and before the packet ends (or the CRC
	// would survive).
	sidEnd := b.Start + int64(sc.FSK.Config().SamplesForBits(phy.SidBits))
	if rep.JamStart < sidEnd {
		t.Fatalf("jam started at %d, before Sid completed at %d", rep.JamStart, sidEnd)
	}
	if rep.JamStart >= b.End() {
		t.Fatalf("jam started at %d, after the packet ended at %d", rep.JamStart, b.End())
	}
	if rep.JamEnd < b.End() {
		t.Fatalf("jam ended at %d, before the packet ended at %d", rep.JamEnd, b.End())
	}
}

func TestDefendWindowTurnaroundBounded(t *testing.T) {
	// With a sensable adversary, the jam must stop within ~1 ms of the
	// transmission ending (Table 2's turn-around property).
	sc, adv := protectedScenario(t, 32, 2, testbed.FCCLimitDBm)
	fs := sc.FSK.Config().SampleRate
	for i := 0; i < 5; i++ {
		sc.NewTrial()
		sc.PrepareShield()
		b := adv.Replay(sc.Channel(), 900, sc.InterrogateFrame())
		rep := sc.Shield.DefendWindow(0, int(b.End())+8000)
		if !rep.Jammed {
			t.Fatal("not jammed")
		}
		overUs := float64(rep.JamEnd-b.End()) / fs * 1e6
		if overUs < 0 || overUs > 1000 {
			t.Fatalf("turn-around = %g µs, want (0, 1000]", overUs)
		}
	}
}

func TestDefendWindowBackstopForUnsensableAdversary(t *testing.T) {
	// An adversary too weak to hear through the jam residual still gets
	// jammed for the maximum packet duration (the conservative backstop).
	sc, adv := protectedScenario(t, 33, 8, testbed.FCCLimitDBm)
	sc.NewTrial()
	sc.PrepareShield()
	b := adv.Replay(sc.Channel(), 900, sc.InterrogateFrame())
	window := int(sc.FSK.Config().SamplesForDuration(0.03))
	rep := sc.Shield.DefendWindow(0, window)
	if !rep.Jammed {
		t.Fatalf("weak adversary not jammed: %+v", rep)
	}
	if rep.JamEnd <= b.End() {
		t.Fatal("backstop jam should outlast the packet")
	}
}

func TestSidErrorsSmallForOwnDevice(t *testing.T) {
	sc, adv := protectedScenario(t, 34, 1, testbed.FCCLimitDBm)
	sc.NewTrial()
	sc.PrepareShield()
	b := adv.Replay(sc.Channel(), 600, sc.InterrogateFrame())
	rep := sc.Shield.DefendWindow(0, int(b.End())+1500)
	if !rep.SidChecked {
		t.Fatal("Sid not checked")
	}
	if rep.SidErrors > shieldcore.DefaultBThresh {
		t.Fatalf("Sid errors = %d on a clean strong packet", rep.SidErrors)
	}
}

func TestAlarmThresholdBoundary(t *testing.T) {
	// Just below Pthresh: no alarm; well above: alarm. Uses the same
	// location with different adversary powers.
	below, _ := protectedScenario(t, 35, 1, -30) // RSSI ≈ -40.6 dBm at shield
	below.NewTrial()
	below.PrepareShield()
	adv := &adversary.Active{Antenna: testbed.AntAdversary, Medium: below.Medium, TX: below.AdvTX, RX: below.AdvRX, Modem: below.FSK}
	b := adv.Replay(below.Channel(), 600, below.InterrogateFrame())
	rep := below.Shield.DefendWindow(0, int(b.End())+1500)
	if rep.Alarmed {
		t.Fatalf("alarm below Pthresh (RSSI %.1f, thresh %.1f)", rep.RSSIDBm, below.Shield.PThreshDBm)
	}

	above, _ := protectedScenario(t, 36, 1, 5) // RSSI ≈ -5.6 dBm
	above.NewTrial()
	above.PrepareShield()
	adv2 := &adversary.Active{Antenna: testbed.AntAdversary, Medium: above.Medium, TX: above.AdvTX, RX: above.AdvRX, Modem: above.FSK}
	b = adv2.Replay(above.Channel(), 600, above.InterrogateFrame())
	rep = above.Shield.DefendWindow(0, int(b.End())+1500)
	if !rep.Alarmed {
		t.Fatalf("no alarm above Pthresh (RSSI %.1f)", rep.RSSIDBm)
	}
}

func TestPlaceJamRequiresEstimate(t *testing.T) {
	sc := testbed.NewScenario(testbed.Options{Seed: 38})
	defer func() {
		if recover() == nil {
			t.Fatal("PlaceJam without estimate should panic")
		}
	}()
	sc.Shield.PlaceJam(0, 100)
}

func TestPlaceCommandValidation(t *testing.T) {
	sc := testbed.NewScenario(testbed.Options{Seed: 39})
	// No estimate yet.
	if _, err := sc.Shield.PlaceCommand(sc.InterrogateFrame(), 0); err == nil {
		t.Fatal("PlaceCommand without estimate should error")
	}
	sc.PrepareShield()
	// Wrong serial.
	var other [phy.SerialBytes]byte
	copy(other[:], "WRONGSER00")
	bad := &phy.Frame{Serial: other, Command: phy.CmdInterrogate}
	if _, err := sc.Shield.PlaceCommand(bad, 0); err == nil {
		t.Fatal("PlaceCommand with a foreign serial should error")
	}
}

func TestJamPowerNeverExceedsFCC(t *testing.T) {
	sc := testbed.NewScenario(testbed.Options{Seed: 40, JamPowerRelDB: 60})
	sc.CalibrateShieldRSSI()
	sc.NewTrial()
	sc.PrepareShield()
	jp := sc.Shield.PlaceJam(0, 2000)
	var p float64
	for _, v := range jp.Jam.IQ {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(jp.Jam.IQ))
	if dbm := 10 * math.Log10(p); dbm > testbed.FCCLimitDBm+0.5 {
		t.Fatalf("jam TX power %.1f dBm exceeds the FCC limit", dbm)
	}
}

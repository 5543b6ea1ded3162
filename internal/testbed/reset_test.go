package testbed

import (
	"testing"

	"heartshield/internal/adversary"
)

// exchangeFingerprint runs calibration plus two protected exchanges and
// returns every observable number: it is the probe the reset-equivalence
// tests compare between a fresh build and a recycled scenario.
type exchangeFingerprint struct {
	RSSI     float64
	Cancels  [2]float64
	BERs     [2]float64
	Payloads [2]string
}

func fingerprint(t *testing.T, sc *Scenario, imdIdx int) exchangeFingerprint {
	t.Helper()
	var fp exchangeFingerprint
	fp.RSSI = sc.CalibrateIMD(imdIdx)
	cfo := IMDCFOHz
	eaves := &adversary.Eavesdropper{
		Antenna: AntEavesdropper,
		Medium:  sc.Medium,
		RX:      sc.EavesRX,
		Modem:   sc.FSK,
		CFOHint: &cfo,
	}
	if imdIdx > 0 {
		sc.Shield.SetProtected(sc.IMDs[imdIdx].Profile)
	}
	for i := 0; i < 2; i++ {
		sc.NewTrial()
		sc.PrepareShield()
		fp.Cancels[i] = sc.Shield.CancellationDB(4096)
		pending, err := sc.Shield.PlaceCommand(sc.InterrogateFrameFor(imdIdx), 0)
		if err != nil {
			t.Fatalf("PlaceCommand: %v", err)
		}
		re := sc.IMDs[imdIdx].ProcessWindow(0, 12000)
		if !re.Responded {
			t.Fatal("IMD did not respond")
		}
		res := pending.Collect()
		if res.Response == nil {
			t.Fatal("shield failed to decode")
		}
		fp.Payloads[i] = string(res.Response.Payload)
		truth := re.Response.MarshalBits()
		fp.BERs[i] = eaves.InterceptBER(sc.Channel(), re.ResponseBurst.Start, truth)
	}
	return fp
}

// A reseeded scenario (Reset to seed s) must be indistinguishable — RNG
// stream for RNG stream — from a freshly built scenario with seed s:
// results depend only on the seed, never on what the scenario computed
// before. NewTrialAt's keyed reseeds rest on the same re-derivation.
func TestResetMatchesFreshBuild(t *testing.T) {
	opts := []Options{
		{Seed: 3},
		{Seed: 3, Location: 9},
		{Seed: 3, DigitalCancel: true},
		{Seed: 3, ExtraIMDs: 2},
	}
	for _, opt := range opts {
		fresh := NewScenario(opt)
		want := fingerprint(t, fresh, 0)

		// Dirty a recyclable scenario with unrelated work at another seed,
		// then Reset it to the target seed.
		dirty := opt
		dirty.Seed = 999
		sc := NewScenario(dirty)
		fingerprint(t, sc, 0)
		sc.Reset(opt.Seed)
		got := fingerprint(t, sc, 0)

		if got != want {
			t.Errorf("opts %+v: recycled fingerprint diverges:\n got %+v\nwant %+v", opt, got, want)
		}
	}
}

// Reset must also be idempotent in the sense that two recycles to the
// same seed agree with each other.
func TestResetIsReproducible(t *testing.T) {
	sc := NewScenario(Options{Seed: 11})
	sc.Reset(5)
	a := fingerprint(t, sc, 0)
	sc.Reset(5)
	b := fingerprint(t, sc, 0)
	if a != b {
		t.Fatalf("two resets to the same seed diverge:\n a %+v\n b %+v", a, b)
	}
}

// Multi-IMD scenarios: each implant answers only commands bearing its own
// serial, exchanges with every implant succeed, and a recycled multi-IMD
// scenario reproduces a fresh one's numbers for every implant.
func TestMultiIMDExchanges(t *testing.T) {
	const extras = 2
	fresh := NewScenario(Options{Seed: 7, ExtraIMDs: extras})
	if len(fresh.IMDs) != extras+1 {
		t.Fatalf("IMDs = %d, want %d", len(fresh.IMDs), extras+1)
	}
	serials := map[string]bool{}
	for _, dev := range fresh.IMDs {
		serials[string(dev.Profile.Serial[:])] = true
	}
	if len(serials) != extras+1 {
		t.Fatalf("serials not distinct: %v", serials)
	}

	var want [extras + 1]exchangeFingerprint
	for i := range fresh.IMDs {
		want[i] = fingerprint(t, fresh, i)
	}

	sc := NewScenario(Options{Seed: 31, ExtraIMDs: extras})
	fingerprint(t, sc, 1)
	sc.Reset(7)
	for i := range sc.IMDs {
		if got := fingerprint(t, sc, i); got != want[i] {
			t.Errorf("imd %d: recycled fingerprint diverges:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// A command addressed to one implant must leave the others silent: the
// whole point of distinct serials on a shared medium.
func TestMultiIMDAddressing(t *testing.T) {
	sc := NewScenario(Options{Seed: 13, ExtraIMDs: 1})
	sc.CalibrateIMD(0)
	sc.NewTrial()
	sc.PrepareShield()
	if _, err := sc.Shield.PlaceCommand(sc.InterrogateFrameFor(0), 0); err != nil {
		t.Fatal(err)
	}
	if re := sc.IMDs[1].ProcessWindow(0, 12000); re.Responded {
		t.Fatal("IMD 1 answered a command addressed to IMD 0")
	}
	if re := sc.IMDs[0].ProcessWindow(0, 12000); !re.Responded {
		t.Fatal("IMD 0 ignored its own command")
	}
}

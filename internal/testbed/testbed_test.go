package testbed

import (
	"math"
	"testing"

	"heartshield/internal/channel"
	"heartshield/internal/radio"
)

func TestLocationsOrderedByPathLoss(t *testing.T) {
	// The paper numbers locations in descending RSSI order; with fixed
	// transmit power that means ascending path loss.
	prev := -1.0
	for _, loc := range Locations {
		pl := loc.AirLossDB()
		if pl <= prev {
			t.Fatalf("location %d loss %.1f dB not greater than previous %.1f",
				loc.Index, pl, prev)
		}
		prev = pl
	}
}

func TestLocationTableSpansPaperRange(t *testing.T) {
	if len(Locations) != 18 {
		t.Fatalf("want 18 locations, have %d", len(Locations))
	}
	if Locations[0].DistanceM != 0.2 {
		t.Fatal("location 1 must be the 20 cm eavesdropper position")
	}
	maxD := 0.0
	for _, loc := range Locations {
		if loc.DistanceM > maxD {
			maxD = loc.DistanceM
		}
	}
	if maxD != 30 {
		t.Fatalf("farthest location = %g m, want 30 (paper range)", maxD)
	}
}

func TestCalibrationKnees(t *testing.T) {
	// The decode threshold at the IMD sits near the FCC-power RSSI of
	// location 8 and the high-power RSSI of location 13 — the knees of
	// Fig. 11 and Fig. 13. Verify the link-budget arithmetic that
	// DESIGN.md §4 documents.
	noise := radio.NoiseFloorDBm(300e3, IMDNFDB)
	rssiAtIMD := func(loc Location, txDBm float64) float64 {
		return txDBm - loc.AirLossDB() - channel.BodyLossDB
	}
	// Location 8 at FCC power lands within a few dB of the noise floor.
	l8 := rssiAtIMD(LocationByIndex(8), FCCLimitDBm)
	if math.Abs(l8-noise) > 6 {
		t.Fatalf("loc8 FCC RSSI %.1f vs noise floor %.1f: knee miscalibrated", l8, noise)
	}
	// Location 13 at high power likewise.
	l13 := rssiAtIMD(LocationByIndex(13), HighPowerAdvDBm)
	if math.Abs(l13-noise) > 6 {
		t.Fatalf("loc13 high-power RSSI %.1f vs noise floor %.1f", l13, noise)
	}
	// Location 1 at FCC power is far above threshold (easy success,
	// shield absent).
	if l1 := rssiAtIMD(LocationByIndex(1), FCCLimitDBm); l1 < noise+20 {
		t.Fatalf("loc1 FCC RSSI %.1f should be well above the floor", l1)
	}
}

func TestLocationByIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("index 0 should panic")
		}
	}()
	LocationByIndex(0)
}

func TestScenarioDeterminism(t *testing.T) {
	a := NewScenario(Options{Seed: 7, Location: 3})
	b := NewScenario(Options{Seed: 7, Location: 3})
	ga := a.Medium.Gain(AntIMD, AntShieldRx)
	gb := b.Medium.Gain(AntIMD, AntShieldRx)
	if ga != gb {
		t.Fatal("same seed must produce identical channels")
	}
	ra := a.CalibrateShieldRSSI()
	rb := b.CalibrateShieldRSSI()
	if ra != rb {
		t.Fatalf("calibration differs: %g vs %g", ra, rb)
	}
}

func TestScenarioLinksComplete(t *testing.T) {
	sc := NewScenario(Options{Seed: 8, Location: 5})
	pairs := [][2]channel.AntennaID{
		{AntIMD, AntShieldRx},
		{AntIMD, AntShieldJam},
		{AntShieldJam, AntShieldRx},
		{AntShieldRx, AntShieldRx},
		{AntProgrammer, AntIMD},
		{AntAdversary, AntIMD},
		{AntAdversary, AntShieldRx},
		{AntAdversary, AntProgrammer},
		{AntEavesdropper, AntIMD},
		{AntObserver, AntIMD},
		{AntAdversary, AntObserver},
	}
	for _, p := range pairs {
		if !sc.Medium.HasLink(p[0], p[1]) {
			t.Fatalf("missing link %v-%v", p[0], p[1])
		}
	}
}

func TestNewAntennaAt(t *testing.T) {
	sc := NewScenario(Options{Seed: 9})
	id := sc.NewAntennaAt(3, 0, 2)
	id2 := sc.NewAntennaAt(5, 0, 2)
	if id == id2 {
		t.Fatal("antenna ids must be unique")
	}
	if !sc.Medium.HasLink(id, AntIMD) || !sc.Medium.HasLink(id, AntShieldRx) {
		t.Fatal("new antenna is missing links")
	}
	// Farther node has more loss.
	if sc.Medium.PathLossDB(id, AntIMD) >= sc.Medium.PathLossDB(id2, AntIMD) {
		t.Fatal("loss should grow with distance")
	}
}

func TestCalibratedRSSIMatchesLinkBudget(t *testing.T) {
	sc := NewScenario(Options{Seed: 10})
	rssi := sc.CalibrateShieldRSSI()
	want := IMDTXPowerDBm - channel.FreeSpaceLossDB(ShieldIMDAirM, channel.MICSCenterHz) - channel.BodyLossDB
	if math.Abs(rssi-want) > 3 {
		t.Fatalf("measured IMD RSSI %.1f dBm vs link budget %.1f", rssi, want)
	}
}

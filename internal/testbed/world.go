package testbed

import (
	"heartshield/internal/adversary"
	"heartshield/internal/phy"
)

// World is the threat model every paper figure tests the shield
// against, built once per seed: a scenario whose shield is calibrated to
// each implant's received power, the optimal eavesdropper of Figs. 8–9,
// and the replaying active adversary of Figs. 11–13 and Table 1. The
// public Simulation, every shieldd session and the experiments build
// their world here, so "remote equals in-process per seed" is a property
// of one type rather than an agreement between copies.
//
// A World is driven by one goroutine at a time.
type World struct {
	*Scenario
	// Eaves is the standard eavesdropper: genie timing plus perfect
	// knowledge of the IMD's carrier offset — the strongest
	// single-antenna adversary the threat model admits.
	Eaves *adversary.Eavesdropper
	// Adv is the standard active adversary (Scenario.Adversary).
	Adv *adversary.Active

	// rssi caches each implant's calibrated received power at the
	// shield; target is the implant the shield currently protects.
	rssi   []float64
	target int
}

// NewWorld builds the standard adversaries, which read no randomness,
// then calibrates sc's shield against every implant in index order (for
// a single implant this is exactly CalibrateShieldRSSI) and points it
// back at the primary.
func NewWorld(sc *Scenario) *World {
	cfo := IMDCFOHz
	w := &World{
		Scenario: sc,
		Eaves: &adversary.Eavesdropper{
			Antenna: AntEavesdropper,
			Medium:  sc.Medium,
			RX:      sc.EavesRX,
			Modem:   sc.FSK,
			CFOHint: &cfo,
		},
		Adv:  sc.Adversary(),
		rssi: make([]float64, len(sc.IMDs)),
	}
	for i := range sc.IMDs {
		w.rssi[i] = sc.CalibrateIMD(i)
	}
	if len(sc.IMDs) > 1 {
		// Calibration left the last implant's measurement in place.
		sc.Shield.SetProtected(sc.IMDs[0].Profile)
		sc.Shield.SetIMDRSSI(w.rssi[0])
	}
	return w
}

// Adversary builds the standard active adversary: the scenario's
// adversary radio at its Fig. 6 location. It reads no randomness.
func (sc *Scenario) Adversary() *adversary.Active {
	return &adversary.Active{
		Antenna: AntAdversary,
		Medium:  sc.Medium,
		TX:      sc.AdvTX,
		RX:      sc.AdvRX,
		Modem:   sc.FSK,
	}
}

// Exchange runs one protected exchange (RunProtectedExchange) with
// implant idx: an interrogation, or a therapy change when therapy is
// set. The shield is first retargeted to that implant. The outcome
// refers to no sample, so the trial ends when Exchange returns and its
// buffers go back to the sample arena for whichever world runs next.
func (w *World) Exchange(idx int, therapy bool) (ExchangeOutcome, error) {
	w.retarget(idx)
	defer w.Medium.ClearBursts()
	return w.RunProtectedExchange(w.Eaves, idx, w.command(idx, therapy))
}

// Attack runs one replay-attack trial (RunAttackTrial) of the standard
// adversary against the primary implant: an interrogation, or a therapy
// change when therapy is set, with the shield on or off. The trial's
// bursts stay on the medium until the next trial starts, so a caller
// may still read them (Simulation.AttackTrace does).
func (w *World) Attack(therapy, shieldOn bool) AttackOutcome {
	w.retarget(0)
	return w.RunAttackTrial(w.Adv, w.command(0, therapy), shieldOn)
}

// command builds the frame every front door issues: an interrogation or
// a change of the pacing rate to 200 BPM.
func (w *World) command(idx int, therapy bool) *phy.Frame {
	if therapy {
		return w.SetTherapyFrameFor(idx, 200)
	}
	return w.InterrogateFrameFor(idx)
}

// retarget points the shield at implant idx with its calibrated RSSI.
func (w *World) retarget(idx int) {
	if idx == w.target {
		return
	}
	w.Shield.SetProtected(w.IMDs[idx].Profile)
	w.Shield.SetIMDRSSI(w.rssi[idx])
	w.target = idx
}

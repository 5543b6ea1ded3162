package testbed

import (
	"fmt"

	"heartshield/internal/channel"
	"heartshield/internal/imd"
	"heartshield/internal/modem"
	"heartshield/internal/phy"
	"heartshield/internal/programmer"
	"heartshield/internal/radio"
	"heartshield/internal/shieldcore"
	"heartshield/internal/stats"
)

// Antenna identifiers for the fixed cast of the testbed.
const (
	AntIMD channel.AntennaID = iota + 1
	AntShieldJam
	AntShieldRx
	AntProgrammer
	AntAdversary
	AntObserver
	AntEavesdropper
	antNextFree
)

// Options configures a scenario build.
type Options struct {
	// Seed makes the whole scenario deterministic.
	Seed int64
	// Location (1-based) places the adversary and eavesdropper; 0 means
	// location 1.
	Location int
	// Profile selects the protected IMD model (default Virtuoso ICD).
	Profile imd.Profile
	// Shape selects the jamming spectral profile (default shaped).
	Shape shieldcore.JamShape
	// AdversaryPowerDBm defaults to the FCC limit.
	AdversaryPowerDBm float64
	// DigitalCancel enables the shield's digital residual cancellation.
	DigitalCancel bool
	// MICSChannel is the session channel (default 0).
	MICSChannel int
	// JamPowerRelDB overrides the shield's passive jamming level relative
	// to the IMD's received power (default 20 dB, the Fig. 8 operating
	// point). Used by the Fig. 8 sweep and the Fig. 5 ablation.
	JamPowerRelDB float64
	// ExtraIMDs places that many additional implants (same model, distinct
	// serials) on the shared medium near the shield — the batched
	// multi-IMD scenario a shieldd session can exchange with by index.
	ExtraIMDs int
}

// Scenario wires a complete testbed: medium, IMD in the phantom, shield on
// the body surface, authorized programmer, adversary and eavesdropper at a
// Fig. 6 location, and an observer USRP sandwiched with the IMD.
type Scenario struct {
	Opt      Options
	RNG      *stats.RNG
	FSK      *modem.FSK
	Medium   *channel.Medium
	IMD      *imd.Device
	Shield   *shieldcore.Shield
	Prog     *programmer.Programmer
	Location Location

	// IMDs lists every implant on the medium; IMDs[0] == IMD, followed by
	// the Options.ExtraIMDs additional devices.
	IMDs []*imd.Device

	// baseSeed is the seed the scenario was built (or last Reset) with;
	// NewTrialAt keys its per-trial reseeds off it, so the keyed trial
	// streams survive the Opt.Seed bookkeeping a reseed performs.
	baseSeed int64

	// Adversary radio (driven by the adversary package).
	AdvTX *radio.TXChain
	AdvRX *radio.RXChain

	// Eavesdropper and observer receive chains.
	EavesRX    *radio.RXChain
	ObserverRX *radio.RXChain

	nextAnt channel.AntennaID
}

// Normalized returns the options with every defaulted field resolved to
// the value NewScenario would use. Two option values describe the same
// scenario shape exactly when their Normalized forms (seeds aside) are
// equal — the property scenario pooling keys on.
func (opt Options) Normalized() Options {
	if opt.Location == 0 {
		opt.Location = 1
	}
	if opt.Profile.Name == "" {
		opt.Profile = imd.VirtuosoICD
	}
	if opt.AdversaryPowerDBm == 0 {
		opt.AdversaryPowerDBm = FCCLimitDBm
	}
	return opt
}

// NewScenario builds the testbed for the given options.
func NewScenario(opt Options) *Scenario {
	opt = opt.Normalized()
	rng := stats.NewRNG(opt.Seed)
	fsk := modem.NewFSK(modem.DefaultFSK)
	fs := modem.DefaultFSK.SampleRate
	med := channel.NewMedium(fs, rng.Split())
	loc := LocationByIndex(opt.Location)

	sc := &Scenario{
		Opt:      opt,
		RNG:      rng,
		FSK:      fsk,
		Medium:   med,
		Location: loc,
		nextAnt:  antNextFree,
		baseSeed: opt.Seed,
	}

	// --- Links ------------------------------------------------------------
	shieldIMDAir := channel.FreeSpaceLossDB(ShieldIMDAirM, channel.MICSCenterHz)
	med.SetLink(AntIMD, AntShieldRx, channel.Link{LossDB: shieldIMDAir + channel.BodyLossDB, DriftStd: 0.005})
	med.SetLink(AntIMD, AntShieldJam, channel.Link{LossDB: shieldIMDAir + 0.4 + channel.BodyLossDB, DriftStd: 0.005})
	med.SetLink(AntShieldJam, AntShieldRx, channel.Link{LossDB: JamToRxCouplingDB, DriftStd: JamToRxDrift})
	med.SetLink(AntShieldRx, AntShieldRx, channel.Link{LossDB: SelfLoopLossDB, DriftStd: SelfDrift})

	progAir := channel.AirLinkLossDB(ProgrammerDistM, PathLossExponent, 0)
	med.SetLink(AntProgrammer, AntIMD, channel.Link{LossDB: progAir + channel.BodyLossDB})
	med.SetLink(AntProgrammer, AntShieldRx, channel.Link{LossDB: progAir})
	med.SetLink(AntProgrammer, AntShieldJam, channel.Link{LossDB: progAir})

	advAir := loc.AirLossDB()
	sigma := loc.ShadowSigmaDB()
	med.SetLink(AntAdversary, AntIMD, channel.Link{LossDB: advAir + channel.BodyLossDB, ShadowSigmaDB: sigma})
	med.SetLink(AntAdversary, AntShieldRx, channel.Link{LossDB: advAir, ShadowSigmaDB: sigma})
	med.SetLink(AntAdversary, AntShieldJam, channel.Link{LossDB: advAir, ShadowSigmaDB: sigma})
	med.SetLink(AntAdversary, AntObserver, channel.Link{LossDB: advAir + channel.BodyLossDB, ShadowSigmaDB: sigma})

	med.SetLink(AntEavesdropper, AntIMD, channel.Link{LossDB: advAir + channel.BodyLossDB, ShadowSigmaDB: sigma})
	med.SetLink(AntEavesdropper, AntShieldRx, channel.Link{LossDB: advAir, ShadowSigmaDB: sigma})
	med.SetLink(AntEavesdropper, AntShieldJam, channel.Link{LossDB: advAir, ShadowSigmaDB: sigma})

	// The adversary/eavesdropper also hear the programmer (needed to
	// record commands for replay); the programmer sits next to the
	// patient, so the distance is essentially the location's.
	med.SetLink(AntAdversary, AntProgrammer, channel.Link{LossDB: advAir, ShadowSigmaDB: sigma})
	med.SetLink(AntEavesdropper, AntProgrammer, channel.Link{LossDB: advAir, ShadowSigmaDB: sigma})

	med.SetLink(AntObserver, AntIMD, channel.Link{LossDB: ObserverBodyLossDB})
	med.SetLink(AntObserver, AntShieldRx, channel.Link{LossDB: shieldIMDAir + channel.BodyLossDB})
	med.SetLink(AntObserver, AntShieldJam, channel.Link{LossDB: shieldIMDAir + channel.BodyLossDB})

	// Additional implants (batched multi-IMD scenarios) get their links
	// before the epoch draw so Reset can replay the medium's RNG history.
	extraAnts := make([]channel.AntennaID, opt.ExtraIMDs)
	for i := range extraAnts {
		id := sc.nextAnt
		sc.nextAnt++
		extraAnts[i] = id
		air := channel.FreeSpaceLossDB(ShieldIMDAirM+ExtraIMDSpacingM*float64(i+1), channel.MICSCenterHz)
		med.SetLink(id, AntShieldRx, channel.Link{LossDB: air + channel.BodyLossDB, DriftStd: 0.005})
		med.SetLink(id, AntShieldJam, channel.Link{LossDB: air + 0.4 + channel.BodyLossDB, DriftStd: 0.005})
		med.SetLink(AntProgrammer, id, channel.Link{LossDB: progAir + channel.BodyLossDB})
		med.SetLink(AntAdversary, id, channel.Link{LossDB: advAir + channel.BodyLossDB, ShadowSigmaDB: sigma})
		med.SetLink(AntEavesdropper, id, channel.Link{LossDB: advAir + channel.BodyLossDB, ShadowSigmaDB: sigma})
		med.SetLink(AntObserver, id, channel.Link{LossDB: ObserverBodyLossDB})
	}

	med.NewEpoch()

	// --- Devices ----------------------------------------------------------
	noise := func(nf float64) float64 { return radio.NoiseFloorDBm(300e3, nf) }

	sc.IMD = imd.NewDevice(imd.Config{
		Profile: opt.Profile,
		Antenna: AntIMD,
		Medium:  med,
		TX:      &radio.TXChain{PowerDBm: IMDTXPowerDBm, CFOHz: IMDCFOHz, SampleRate: fs, DACBits: 14},
		RX: &radio.RXChain{
			NoiseFloorDBm: noise(IMDNFDB), ChannelBW: 300e3, SampleRate: fs,
			RNG: rng.Split(),
		},
		Modem:   fsk,
		Channel: opt.MICSChannel,
		RNG:     rng.Split(),
	})

	sc.Shield = shieldcore.NewShield(shieldcore.Config{
		Protected:  opt.Profile,
		JamAntenna: AntShieldJam,
		RxAntenna:  AntShieldRx,
		Medium:     med,
		TXJam:      &radio.TXChain{PowerDBm: FCCLimitDBm, SampleRate: fs, DACBits: 14},
		TXRx:       &radio.TXChain{PowerDBm: FCCLimitDBm, SampleRate: fs, DACBits: 14},
		RX: &radio.RXChain{
			NoiseFloorDBm: noise(ShieldNFDB), ChannelBW: 300e3, SampleRate: fs,
			OverloadDBm: ShieldOverloadDBm, RNG: rng.Split(),
		},
		Modem:         fsk,
		Channel:       opt.MICSChannel,
		RNG:           rng.Split(),
		Shape:         opt.Shape,
		DigitalCancel: opt.DigitalCancel,
		JamPowerRelDB: opt.JamPowerRelDB,
	})

	sc.Prog = &programmer.Programmer{
		Antenna: AntProgrammer,
		Medium:  med,
		TX:      &radio.TXChain{PowerDBm: FCCLimitDBm, CFOHz: ProgrammerCFOHz, SampleRate: fs, DACBits: 14},
		RX: &radio.RXChain{
			NoiseFloorDBm: noise(AdversaryNFDB), ChannelBW: 300e3, SampleRate: fs,
			RNG: rng.Split(),
		},
		Modem:  fsk,
		Target: opt.Profile.Serial,
	}

	advCFO := (rng.Float64()*2 - 1) * AdvCFOMaxHz
	sc.AdvTX = &radio.TXChain{PowerDBm: opt.AdversaryPowerDBm, CFOHz: advCFO, SampleRate: fs, DACBits: 14}
	sc.AdvRX = &radio.RXChain{
		NoiseFloorDBm: noise(AdversaryNFDB), ChannelBW: 300e3, SampleRate: fs,
		RNG: rng.Split(),
	}
	sc.EavesRX = &radio.RXChain{
		NoiseFloorDBm: noise(AdversaryNFDB), ChannelBW: 300e3, SampleRate: fs,
		RNG: rng.Split(),
	}
	sc.ObserverRX = &radio.RXChain{
		NoiseFloorDBm: noise(AdversaryNFDB), ChannelBW: 300e3, SampleRate: fs,
		RNG: rng.Split(),
	}

	sc.IMDs = make([]*imd.Device, 1, 1+opt.ExtraIMDs)
	sc.IMDs[0] = sc.IMD
	for i, ant := range extraAnts {
		sc.IMDs = append(sc.IMDs, imd.NewDevice(imd.Config{
			Profile: ExtraIMDProfile(opt.Profile, i+1),
			Antenna: ant,
			Medium:  med,
			TX:      &radio.TXChain{PowerDBm: IMDTXPowerDBm, CFOHz: IMDCFOHz, SampleRate: fs, DACBits: 14},
			RX: &radio.RXChain{
				NoiseFloorDBm: noise(IMDNFDB), ChannelBW: 300e3, SampleRate: fs,
				RNG: rng.Split(),
			},
			Modem:   fsk,
			Channel: opt.MICSChannel,
			RNG:     rng.Split(),
		}))
	}
	return sc
}

// ExtraIMDSpacingM is the extra air gap each additional implant sits from
// the shield, beyond the primary's ShieldIMDAirM.
const ExtraIMDSpacingM = 0.02

// ExtraIMDProfile derives the profile of the i-th (1-based) additional
// implant: the same device model with a distinct serial, so commands
// address exactly one implant and the others stay silent. Three serial
// digits cover every batch size the wire protocol can request (uint8).
func ExtraIMDProfile(base imd.Profile, i int) imd.Profile {
	p := base
	p.Name = fmt.Sprintf("%s #%d", base.Name, i+1)
	tag := fmt.Sprintf("%03d", i%1000)
	copy(p.Serial[len(p.Serial)-3:], tag)
	return p
}

// Reset re-seeds a scenario in place so it behaves exactly as a freshly
// built NewScenario with the same options and the new seed: every random
// stream is re-derived in construction order (the medium's install-order
// gain draws included), the medium is cleared, therapy and counters are
// restored, and the shield returns to its un-calibrated, un-estimated
// state targeting the primary IMD. Recycling pooled scenarios through
// Reset is what makes shieldd sessions deterministic per session seed
// regardless of which server handled them or in what order.
//
// The reseed replays install-order gain draws for whatever link set the
// scenario currently has, in cached sorted-pair order — links added after
// construction (NewAntennaAt) are replayed too, deterministically. Note
// that equivalence to a *fresh build* holds only for the link set
// NewScenario built: with extra links the guarantee is the weaker (and
// for trials, sufficient) one that identically-constructed scenarios
// reseed identically.
func (sc *Scenario) Reset(seed int64) {
	sc.baseSeed = seed
	sc.reseed(seed)
}

// reseed is Reset's stream re-derivation without the base-seed
// bookkeeping: every random stream is re-derived from seed in
// construction order. NewTrialAt uses it directly so per-trial reseeds do
// not move the base seed the trial keying derives from.
//
// Every RNG the scenario owns is reseeded in place — each from the parent
// draw Split would have consumed (child.Reseed(rng.Int63())) — so a
// reseed allocates nothing, and a caller holding one of those RNGs across
// it sees the new stream, never the old one.
func (sc *Scenario) reseed(seed int64) {
	sc.Opt.Seed = seed
	rng := sc.RNG
	rng.Reseed(seed)

	sc.Medium.ResetRNG(rng.Int63())
	sc.Medium.NewEpoch()
	sc.Medium.ClearBursts()

	sc.IMD.RX.RNG.Reseed(rng.Int63())
	sc.IMD.ReseedRNG(rng.Int63())
	sc.IMD.SetTherapy(imd.DefaultTherapy)
	sc.IMD.ResetCounters()

	sc.Shield.RX.RNG.Reseed(rng.Int63())
	sc.Shield.ResetState(rng.Int63())
	sc.Shield.SetProtected(sc.Opt.Profile)

	sc.Prog.RX.RNG.Reseed(rng.Int63())

	sc.AdvTX.CFOHz = (rng.Float64()*2 - 1) * AdvCFOMaxHz
	sc.AdvRX.RNG.Reseed(rng.Int63())
	sc.EavesRX.RNG.Reseed(rng.Int63())
	sc.ObserverRX.RNG.Reseed(rng.Int63())

	for _, dev := range sc.IMDs[1:] {
		dev.RX.RNG.Reseed(rng.Int63())
		dev.ReseedRNG(rng.Int63())
		dev.SetTherapy(imd.DefaultTherapy)
		dev.ResetCounters()
	}
}

// Channel returns the session's MICS channel index.
func (sc *Scenario) Channel() int { return sc.Opt.MICSChannel }

// NewTrial starts an independent trial: fresh shadowing and phases, and a
// clean medium. The trial's randomness continues the scenario's running
// streams, so trial i depends on every trial before it; experiments that
// fan trials out over workers use NewTrialAt instead.
func (sc *Scenario) NewTrial() {
	sc.Medium.NewEpoch()
	sc.Medium.ClearBursts()
	for _, dev := range sc.IMDs {
		dev.SetTherapy(imd.DefaultTherapy)
	}
}

// NewTrialAt starts trial number `trial` of the scenario's keyed trial
// sequence: every random stream is re-derived — in construction order,
// exactly as Reset does — from stats.TrialSeed(baseSeed, trial), a pure
// function of the build seed and the trial index. Trial i therefore draws
// identical randomness no matter how many trials ran before it on this
// scenario, in which order, or on which of several worker-owned clones —
// the determinism contract that lets single-scenario trial loops fan out
// over a worker pool with byte-identical results at any worker count.
//
// The shield's IMD-RSSI calibration is snapshotted across the reseed, so
// the calibrate-once-then-trial-many experiment pattern keeps its (seed-
// deterministic) calibration. Links added after construction (e.g. a
// cross-traffic antenna) are replayed too, provided every clone installed
// them identically before its first NewTrialAt.
func (sc *Scenario) NewTrialAt(trial int) {
	rssi, haveRSSI := sc.Shield.IMDRSSI()
	sc.reseed(stats.TrialSeed(sc.baseSeed, trial))
	if haveRSSI {
		sc.Shield.SetIMDRSSI(rssi)
	}
}

// PrepareShield runs the shield's channel estimation and then lets the
// physical channels drift one step, as happens between the estimate and
// its use — the honest ordering that bounds the antidote cancellation.
func (sc *Scenario) PrepareShield() {
	sc.Shield.EstimateChannels()
	sc.Medium.Perturb()
}

// CalibrateShieldRSSI runs one unjammed exchange so the shield can measure
// the primary IMD's received power, then clears the medium. Call once per
// scenario (the measurement survives trials).
func (sc *Scenario) CalibrateShieldRSSI() float64 { return sc.CalibrateIMD(0) }

// CalibrateIMD measures IMD i's received power at the shield with one
// unjammed exchange, leaving the shield's RSSI set for that device. A
// multi-IMD session calibrates each implant once and restores the
// measurement with Shield.SetIMDRSSI when it switches targets.
func (sc *Scenario) CalibrateIMD(i int) float64 {
	dev := sc.IMDs[i]
	sc.Medium.ClearBursts()
	cmd := &phy.Frame{Serial: dev.Profile.Serial, Command: phy.CmdInterrogate, Payload: CommandPayload()}
	iq := sc.Shield.TXRx.Transmit(sc.FSK.ModulateFrame(cmd))
	burst := &channel.Burst{Channel: sc.Channel(), Start: 0, IQ: iq, From: AntShieldRx}
	sc.Medium.AddBurst(burst)
	re := dev.ProcessWindow(0, int(burst.End())+2000)
	rssi := sc.Shield.RX.NoiseFloorDBm
	if re.Responded {
		b := re.ResponseBurst
		rssi = sc.Shield.MeasureIMDRSSI(b.Start, int(b.End()-b.Start))
	}
	sc.Medium.ClearBursts()
	dev.ResetCounters()
	return rssi
}

// CommandPayload is the standard 16-byte parameter block carried by
// every session command (commands in the real protocol are not empty;
// the block length also gives the shield's reactive jamming enough frame
// tail to corrupt).
func CommandPayload() []byte {
	return []byte("SESSPARAM-000001")
}

// InterrogateFrame builds the data-readout command for the protected IMD.
func (sc *Scenario) InterrogateFrame() *phy.Frame { return sc.InterrogateFrameFor(0) }

// InterrogateFrameFor builds the data-readout command for IMD i.
func (sc *Scenario) InterrogateFrameFor(i int) *phy.Frame {
	return &phy.Frame{Serial: sc.IMDs[i].Profile.Serial, Command: phy.CmdInterrogate, Payload: CommandPayload()}
}

// SetTherapyFrame builds a therapy-modification command.
func (sc *Scenario) SetTherapyFrame(rate byte) *phy.Frame { return sc.SetTherapyFrameFor(0, rate) }

// SetTherapyFrameFor builds a therapy-modification command for IMD i.
func (sc *Scenario) SetTherapyFrameFor(i int, rate byte) *phy.Frame {
	payload := append([]byte{imd.ParamPacingRate, rate, imd.ParamEnabled, 0}, CommandPayload()[:12]...)
	return &phy.Frame{Serial: sc.IMDs[i].Profile.Serial, Command: phy.CmdSetTherapy, Payload: payload}
}

// NewAntennaAt registers an extra node (e.g. cross-traffic source) at the
// given distance/obstruction, with links to the IMD, shield, and observer.
func (sc *Scenario) NewAntennaAt(distM, obstructionDB, shadowSigma float64) channel.AntennaID {
	id := sc.nextAnt
	sc.nextAnt++
	air := channel.AirLinkLossDB(distM, PathLossExponent, obstructionDB)
	sc.Medium.SetLink(id, AntIMD, channel.Link{LossDB: air + channel.BodyLossDB, ShadowSigmaDB: shadowSigma})
	sc.Medium.SetLink(id, AntShieldRx, channel.Link{LossDB: air, ShadowSigmaDB: shadowSigma})
	sc.Medium.SetLink(id, AntShieldJam, channel.Link{LossDB: air, ShadowSigmaDB: shadowSigma})
	sc.Medium.SetLink(id, AntObserver, channel.Link{LossDB: air + channel.BodyLossDB, ShadowSigmaDB: shadowSigma})
	return id
}

// ObserverSeesResponse checks (at the in-phantom observer, like the
// paper's sandwiched USRP) whether the IMD transmitted a response burst
// in the window following a command that ended at cmdEnd.
func (sc *Scenario) ObserverSeesResponse(cmdEnd int64) bool {
	w1, w2 := sc.Shield.ResponseWindow(cmdEnd)
	obs := sc.ObserverRX.Process(sc.Medium.Observe(AntObserver, sc.Channel(), w1, int(w2-w1)))
	_, ok := sc.FSK.Sync(obs, 0.5)
	return ok
}

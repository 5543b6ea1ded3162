package shieldcore

import (
	"fmt"

	"heartshield/internal/channel"
	"heartshield/internal/dsp"
	"heartshield/internal/imd"
	"heartshield/internal/mics"
	"heartshield/internal/modem"
	"heartshield/internal/phy"
	"heartshield/internal/radio"
	"heartshield/internal/stats"
)

// Defaults for the shield's operating parameters, as calibrated in the
// paper's §10.1 micro-benchmarks.
const (
	// DefaultJamPowerRelDB: jamming power 20 dB above the IMD power
	// received at the shield (Fig. 8 operating point).
	DefaultJamPowerRelDB = 20.0
	// DefaultBThresh: tolerate up to 4 bit errors when matching the
	// identifying sequence (§10.1(c)).
	DefaultBThresh = 4
	// DefaultPThreshDBm: adversary RSSI at the shield above which an alarm
	// is raised — 3 dB below the minimum RSSI that elicited an IMD
	// response despite jamming in this testbed's Table 1 calibration.
	DefaultPThreshDBm = -26.0
	// DefaultTurnaroundSec: software-radio reaction latency (Table 2:
	// 270 µs ± 23 µs).
	DefaultTurnaroundSec       = 270e-6
	DefaultTurnaroundJitterSec = 23e-6
	// DefaultSyncThreshold: correlation needed for the Sid detector to
	// attempt a match. Lower than a data receiver's: the shield prefers
	// false positives (harmless jam) over misses.
	DefaultSyncThreshold = 0.30
	// DefaultProbeLen: samples per channel-estimation probe (1 ms).
	DefaultProbeLen = 600
	// DefaultProbePowerDBm: probes are sent at low power to preserve
	// spatial reuse (§5, "channel estimation").
	DefaultProbePowerDBm = -40.0
	// senseThresholdDBm is the energy-detect level for "a signal is
	// present" while monitoring.
	senseThresholdDBm = -95.0
	// senseChunkSec is the energy-detector granularity; it also bounds how
	// tightly the shield tracks the end of a jammed transmission.
	senseChunkSec = 100e-6
)

// Shield is the wearable jammer-cum-receiver. It owns two antennas on the
// medium: a jamming antenna and a receive antenna whose transmit chain
// emits the antidote (Fig. 2 of the paper).
type Shield struct {
	// Protected is the profile of the IMD under protection; its serial
	// defines the identifying sequence Sid and its T1/T2/MaxPacket the
	// passive jamming window.
	Protected imd.Profile

	JamAntenna channel.AntennaID
	RxAntenna  channel.AntennaID
	Medium     *channel.Medium
	// TXJam drives the jamming antenna; TXRx drives the receive antenna's
	// transmit chain (antidote, relayed commands, probes).
	TXJam *radio.TXChain
	TXRx  *radio.TXChain
	RX    *radio.RXChain
	Modem *modem.FSK
	// Channel is the MICS channel of the protected session.
	Channel int

	// Operating parameters (see the Default* constants).
	JamPowerRelDB       float64
	BThresh             int
	PThreshDBm          float64
	TurnaroundSec       float64
	TurnaroundJitterSec float64
	SyncThreshold       float64
	ProbeLen            int
	ProbePowerDBm       float64
	// DigitalCancel additionally subtracts the shield's best estimate of
	// its own jam from the received samples after the antenna-level
	// antidote (the analog/digital canceler extension noted in §5).
	DigitalCancel bool
	// AntidoteEnabled gates the antidote transmission; it exists for the
	// ablation experiment and defaults to true. With it false the shield
	// jams itself blind (§5's motivating failure mode).
	AntidoteEnabled bool

	jamGen *JamGenerator
	sid    []byte
	rng    *stats.RNG

	// Channel state estimated from probes.
	est ChannelEstimate
	// imdRSSIDBm is the measured power of the IMD's transmissions at the
	// receive antenna; the jam level is set relative to it.
	imdRSSIDBm float64
	haveRSSI   bool

	alarms []Alarm
}

// ChannelEstimate holds the probe-derived channel knowledge.
type ChannelEstimate struct {
	HJamToRx complex128 // jamming antenna → receive antenna
	HSelf    complex128 // receive antenna TX chain → its own RX chain
	Valid    bool
}

// Alarm records one high-power-adversary alert (§7(d)).
type Alarm struct {
	At      int64   // sample index of the detection
	RSSIDBm float64 // measured adversary power at the shield
}

// Config bundles the dependencies for NewShield. Zero-valued operating
// parameters take the package defaults.
type Config struct {
	Protected  imd.Profile
	JamAntenna channel.AntennaID
	RxAntenna  channel.AntennaID
	Medium     *channel.Medium
	TXJam      *radio.TXChain
	TXRx       *radio.TXChain
	RX         *radio.RXChain
	Modem      *modem.FSK
	Channel    int
	RNG        *stats.RNG
	Shape      JamShape
	// Optional overrides.
	JamPowerRelDB float64
	BThresh       int
	PThreshDBm    float64
	SyncThreshold float64
	DigitalCancel bool
}

// NewShield constructs a shield with defaulted operating parameters.
func NewShield(cfg Config) *Shield {
	if cfg.Medium == nil || cfg.TXJam == nil || cfg.TXRx == nil || cfg.RX == nil || cfg.Modem == nil || cfg.RNG == nil {
		panic("shieldcore: incomplete shield config")
	}
	s := &Shield{
		Protected:           cfg.Protected,
		JamAntenna:          cfg.JamAntenna,
		RxAntenna:           cfg.RxAntenna,
		Medium:              cfg.Medium,
		TXJam:               cfg.TXJam,
		TXRx:                cfg.TXRx,
		RX:                  cfg.RX,
		Modem:               cfg.Modem,
		Channel:             cfg.Channel,
		JamPowerRelDB:       cfg.JamPowerRelDB,
		BThresh:             cfg.BThresh,
		PThreshDBm:          cfg.PThreshDBm,
		TurnaroundSec:       DefaultTurnaroundSec,
		TurnaroundJitterSec: DefaultTurnaroundJitterSec,
		SyncThreshold:       cfg.SyncThreshold,
		ProbeLen:            DefaultProbeLen,
		ProbePowerDBm:       DefaultProbePowerDBm,
		DigitalCancel:       cfg.DigitalCancel,
		AntidoteEnabled:     true,
		sid:                 phy.Sid(cfg.Protected.Serial),
		rng:                 cfg.RNG,
	}
	if s.JamPowerRelDB == 0 {
		s.JamPowerRelDB = DefaultJamPowerRelDB
	}
	if s.BThresh == 0 {
		s.BThresh = DefaultBThresh
	}
	if s.PThreshDBm == 0 {
		s.PThreshDBm = DefaultPThreshDBm
	}
	if s.SyncThreshold == 0 {
		s.SyncThreshold = DefaultSyncThreshold
	}
	s.jamGen = NewJamGenerator(cfg.Shape, cfg.Modem.Config(), cfg.RNG.Split())
	return s
}

// SetProtected retargets the shield to a different IMD profile: its
// serial defines the identifying sequence Sid to match and its T1/T2/
// MaxPacket the passive jamming window. A shield worn by a patient with
// several implants (the batched multi-IMD scenarios) switches targets
// between exchanges; the per-target IMD RSSI must be restored with
// SetIMDRSSI after a switch. Re-targeting the same serial (every
// scenario reseed does) keeps the current Sid.
func (s *Shield) SetProtected(p imd.Profile) {
	if p.Serial != s.Protected.Serial {
		s.sid = phy.Sid(p.Serial)
	}
	s.Protected = p
}

// ResetState re-seeds the shield for scenario recycling: its random
// source restarts in place on seed's stream, the jam generator keeps its
// profile and buffers and reseeds from that source exactly as NewShield
// derived it, and the channel estimate, RSSI measurement, and alarm log
// are cleared. The operating parameters are untouched. It allocates
// nothing.
func (s *Shield) ResetState(seed int64) {
	s.rng.Reseed(seed)
	s.jamGen.rng.Reseed(s.rng.Int63())
	s.est = ChannelEstimate{}
	s.imdRSSIDBm = 0
	s.haveRSSI = false
	s.alarms = nil
}

// SetJamShape swaps the jamming spectral profile (used by the Fig. 5
// ablation to compare shaped and flat jamming under identical channel
// conditions).
func (s *Shield) SetJamShape(shape JamShape) {
	s.jamGen = NewJamGenerator(shape, s.Modem.Config(), s.rng.Split())
}

// Retune moves the shield's session focus to a different MICS channel —
// it follows its IMD when persistent interference forces the session to
// re-acquire a channel (§2).
func (s *Shield) Retune(ch int) {
	if ch < 0 || ch >= mics.NumChannels {
		panic(fmt.Sprintf("shieldcore: channel %d out of range", ch))
	}
	s.Channel = ch
}

// Alarms returns the alarm log.
func (s *Shield) Alarms() []Alarm { return s.alarms }

// ResetAlarms clears the alarm log (between experiment trials).
func (s *Shield) ResetAlarms() { s.alarms = nil }

// EstimateChannels performs the probe-based estimation of Hjam→rec and
// Hself (§5, "channel estimation"): a known low-power probe is sent from
// each transmit chain in turn and the receive chain's noisy observation is
// correlated against it. In deployment this runs before every jam and
// every 200 ms when idle.
func (s *Shield) EstimateChannels() ChannelEstimate {
	probe := s.Medium.Samples(s.ProbeLen)
	s.rng.FillComplexNormal(probe, 1)
	s.est = ChannelEstimate{
		HJamToRx: s.estimateOneChannel(probe, s.TXJam, s.JamAntenna),
		HSelf:    s.estimateOneChannel(probe, s.TXRx, s.RxAntenna),
		Valid:    true,
	}
	return s.est
}

// estimateOneChannel simulates sending the probe from tx via fromAnt and
// estimating the channel to the receive antenna by least squares. The
// probe exchange happens out of session, so it is computed directly from
// the medium's link gains plus honest receiver noise instead of being
// placed on the medium as a burst.
func (s *Shield) estimateOneChannel(probe []complex128, tx *radio.TXChain, fromAnt channel.AntennaID) complex128 {
	sent := tx.TransmitAt(s.Medium.Samples(len(probe)), probe, s.ProbePowerDBm)
	h := s.Medium.Gain(fromAnt, s.RxAntenna)
	rxObs := s.Medium.Samples(len(sent))
	for i := range sent {
		rxObs[i] = h * sent[i]
	}
	rxObs = s.RX.Process(rxObs)
	// Least-squares: Ĥ = <y, x> / <x, x>.
	num := dsp.Dot(rxObs, sent)
	den := dsp.Energy(sent)
	if den == 0 {
		return 0
	}
	return num / complex(den, 0)
}

// MeasureIMDRSSI records the power of an IMD transmission observed over
// [start, start+n) at the receive antenna; the shield uses it to set its
// jamming power JamPowerRelDB above the IMD's received power.
func (s *Shield) MeasureIMDRSSI(start int64, n int) float64 {
	obs := s.RX.Process(s.Medium.Observe(s.RxAntenna, s.Channel, start, n))
	s.imdRSSIDBm = radio.RSSIdBm(obs)
	s.haveRSSI = true
	return s.imdRSSIDBm
}

// IMDRSSI returns the measured IMD power at the receive antenna and
// whether a measurement exists. Scenario recycling snapshots it across a
// per-trial reseed so calibrate-once-then-trial-many experiments keep
// their calibration.
func (s *Shield) IMDRSSI() (float64, bool) {
	return s.imdRSSIDBm, s.haveRSSI
}

// SetIMDRSSI overrides the measured IMD power (used by calibration
// sweeps).
func (s *Shield) SetIMDRSSI(dbm float64) {
	s.imdRSSIDBm = dbm
	s.haveRSSI = true
}

// ClearIMDRSSI discards the RSSI measurement, returning the shield to
// its un-calibrated state. The trial engine uses it (with SetIMDRSSI) to
// pin the prep-time calibration state before every trial, so a trial
// body that measures RSSI cannot leak state into later trials.
func (s *Shield) ClearIMDRSSI() {
	s.imdRSSIDBm = 0
	s.haveRSSI = false
}

// jamTxPowerDBm converts the target jam level at the receive antenna
// (IMD RSSI + JamPowerRelDB) into a transmit power, using the estimated
// antenna coupling, clamped to the FCC limit.
func (s *Shield) jamTxPowerDBm() float64 {
	if !s.haveRSSI || !s.est.Valid {
		return s.TXJam.PowerDBm
	}
	couplingDB := -dsp.DB(magSq(s.est.HJamToRx)) // positive loss
	p := s.imdRSSIDBm + s.JamPowerRelDB + couplingDB
	if p > s.TXJam.PowerDBm {
		p = s.TXJam.PowerDBm // never exceed the configured (FCC) power
	}
	return p
}

func magSq(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

// JamPlacement describes one jam+antidote emission. Its bursts' samples
// live in the sample arena, so a placement is valid only until the trial
// ends (Medium.ClearBursts).
type JamPlacement struct {
	Start, End int64
	Channel    int
	// Jam is from the jamming antenna; its IQ is the transmitted jam, the
	// shield's known plaintext.
	Jam *channel.Burst
	// Antidote is from the receive antenna (nil with the antidote off).
	Antidote *channel.Burst
	// bursts backs Jam and Antidote, so a placement is one allocation.
	bursts [2]channel.Burst
}

// PlaceJam emits n samples of random jamming starting at sample start on
// the session channel, together with the antidote
// x(t) = -(Ĥjam→rec/Ĥself)·j(t) from the receive antenna (eq. 2 of the
// paper). The jam level is the calibrated passive-defense level
// (JamPowerRelDB above the IMD's received power). It requires a valid
// channel estimate.
func (s *Shield) PlaceJam(start int64, n int) *JamPlacement {
	return s.placeJamAt(s.Channel, start, n, s.jamTxPowerDBm())
}

// placeJamAt emits jamming on an explicit MICS channel at an explicit
// transmit power: the active defense jams whichever channel the
// adversary chose, at the full FCC power.
func (s *Shield) placeJamAt(ch int, start int64, n int, powerDBm float64) *JamPlacement {
	if !s.est.Valid {
		panic("shieldcore: PlaceJam without channel estimate")
	}
	jamTx := s.jamGen.Generate(s.Medium.Samples(n))
	s.TXJam.TransmitAt(jamTx, jamTx, powerDBm)

	jp := &JamPlacement{Start: start, End: start + int64(n), Channel: ch}
	jp.bursts[0] = channel.Burst{Channel: ch, Start: start, IQ: jamTx, From: s.JamAntenna}
	jp.Jam = &jp.bursts[0]
	s.Medium.AddBurst(jp.Jam)
	if s.AntidoteEnabled {
		ratio := -s.est.HJamToRx / s.est.HSelf
		antidoteTx := s.Medium.Samples(n)
		for i, v := range jamTx {
			antidoteTx[i] = v * ratio
		}
		jp.bursts[1] = channel.Burst{Channel: ch, Start: start, IQ: antidoteTx, From: s.RxAntenna}
		jp.Antidote = &jp.bursts[1]
		s.Medium.AddBurst(jp.Antidote)
	}
	return jp
}

// ResponseWindow returns the [start, end) sample window during which the
// protected IMD may respond to a command that ended at cmdEnd: the shield
// jams from cmdEnd+T1 for (T2-T1)+P (§6).
func (s *Shield) ResponseWindow(cmdEnd int64) (int64, int64) {
	cfg := s.Modem.Config()
	start := cmdEnd + int64(cfg.SamplesForDuration(s.Protected.T1))
	dur := (s.Protected.T2 - s.Protected.T1) + s.Protected.MaxPacket
	return start, start + int64(cfg.SamplesForDuration(dur))
}

// JamResponseWindow runs the passive-defense schedule for a command that
// ended at sample cmdEnd: jam the whole interval in which the IMD can
// reply.
func (s *Shield) JamResponseWindow(cmdEnd int64) *JamPlacement {
	start, end := s.ResponseWindow(cmdEnd)
	return s.PlaceJam(start, int(end-start))
}

// DecodeWhileJamming attempts to decode the IMD's transmission inside a
// jam placement — the jammer-cum-receiver path. The receive antenna
// observes the medium (IMD signal + own jam residual after the antidote),
// and optionally applies digital cancellation of the known jam before
// demodulation.
func (s *Shield) DecodeWhileJamming(jp *JamPlacement) (modem.RxFrame, bool) {
	n := int(jp.End - jp.Start)
	obs := s.Medium.Observe(s.RxAntenna, jp.Channel, jp.Start, n)
	if s.DigitalCancel {
		// Adaptive digital cancellation (§5's analog/digital canceler
		// note): the probe estimates built the antidote, so subtracting
		// them reconstructs nothing new. Instead the shield re-estimates
		// the *residual* coupling of its known jam samples directly from
		// the received window (the IMD's signal is uncorrelated with the
		// random jam, so the least-squares estimate converges on the
		// residual channel) and subtracts it.
		jamTx := jp.Jam.IQ[:n]
		den := dsp.Energy(jamTx)
		if den > 0 {
			hRes := dsp.Dot(obs, jamTx) / complex(den, 0)
			for i := 0; i < n; i++ {
				obs[i] -= hRes * jamTx[i]
			}
		}
	}
	obs = s.RX.Process(obs)
	return s.Modem.ReceiveFrame(obs, imd.SyncThreshold)
}

// String identifies the shield for logs.
func (s *Shield) String() string {
	return fmt.Sprintf("shield(ch=%d, protecting %s, jam=%s)", s.Channel, s.Protected.Name, s.jamGen.Shape())
}

// turnaroundSamples draws the reaction latency for one event.
func (s *Shield) turnaroundSamples() int64 {
	sec := s.rng.Normal(s.TurnaroundSec, s.TurnaroundJitterSec)
	if sec < 0 {
		sec = 0
	}
	return int64(s.Modem.Config().SamplesForDuration(sec))
}

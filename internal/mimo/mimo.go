// Package mimo evaluates the threat-model claim of §3.2: a MIMO
// eavesdropper — two antennas and zero-forcing separation — cannot split
// the IMD's signal from the shield's jamming as long as the two sources
// sit much closer together than half a wavelength (λ ≈ 75 cm in the MICS
// band), because the spatial channel vectors of co-located sources are
// nearly parallel and nulling one nulls the other.
//
// Unlike the rest of the simulator, this package needs physically
// meaningful carrier phases, so it computes channel gains geometrically:
// phase = -2π·distance/λ plus a per-source random phase, amplitude from
// the same log-distance model the testbed uses.
package mimo

import (
	"math"

	"heartshield/internal/channel"
	"heartshield/internal/dsp"
	"heartshield/internal/modem"
	"heartshield/internal/phy"
	"heartshield/internal/stats"
)

// Position is a 2-D placement in meters.
type Position struct{ X, Y float64 }

// Distance returns the Euclidean distance to other.
func (p Position) Distance(other Position) float64 {
	return math.Hypot(p.X-other.X, p.Y-other.Y)
}

// Wavelength of the MICS carrier.
const Wavelength = channel.SpeedOfLight / channel.MICSCenterHz

// Gain computes the geometric channel gain from a source at src to a
// receiver at dst: log-distance amplitude (exponent 2 for these short
// line-of-sight hops) and propagation phase, rotated by the source's
// carrier phase srcPhase.
func Gain(src, dst Position, extraLossDB float64, srcPhase float64) complex128 {
	d := src.Distance(dst)
	lossDB := channel.LogDistanceLossDB(d, channel.MICSCenterHz, 2) + extraLossDB
	amp := math.Sqrt(dsp.FromDB(-lossDB))
	ph := -2*math.Pi*d/Wavelength + srcPhase
	s, c := math.Sincos(ph)
	return complex(amp*c, amp*s)
}

// Config describes one MIMO-eavesdropper evaluation.
type Config struct {
	// ShieldSeparation is the IMD→jamming-antenna distance (the quantity
	// the paper says must stay ≪ λ/2).
	ShieldSeparation float64
	// EavesDistance places the two-antenna eavesdropper.
	EavesDistance float64
	// EavesAperture separates the eavesdropper's antennas (≥ λ/2 for a
	// legal MIMO receiver).
	EavesAperture float64
	// IMDPowerDBm and body loss set the protected signal level.
	IMDPowerDBm float64
	BodyLossDB  float64
	// JamPowerDBm is the shield's jamming transmit power.
	JamPowerDBm float64
	// NoiseFloorDBm is the eavesdropper's per-channel thermal floor.
	NoiseFloorDBm float64
	// Bits per trial and trial count.
	Bits   int
	Trials int
}

// DefaultConfig mirrors the testbed's link budget.
func DefaultConfig() Config {
	return Config{
		ShieldSeparation: 0.10,
		EavesDistance:    3.0,
		EavesAperture:    0.40,
		IMDPowerDBm:      -36,
		BodyLossDB:       channel.BodyLossDB,
		JamPowerDBm:      -35.6,
		NoiseFloorDBm:    -109,
		Bits:             600,
		Trials:           6,
	}
}

// Result reports the zero-forcing eavesdropper's performance.
type Result struct {
	// SeparationM is the IMD↔jammer spacing evaluated.
	SeparationM float64
	// BER is the eavesdropper's bit error rate after nulling the jam.
	BER float64
	// ResidualSINRdB is the post-nulling signal-to-noise ratio of the
	// IMD's signal (per sample).
	ResidualSINRdB float64
}

// Evaluate runs the zero-forcing eavesdropper against one geometry. The
// eavesdropper is a genie: it knows all channel vectors exactly and the
// transmitted jam timing; only physics limits it.
func Evaluate(cfg Config, rng *stats.RNG) Result {
	fsk := modem.Default()
	jamGen := stats.NewRNG(rng.Int63())

	// The jammer is displaced TRANSVERSALLY to the eavesdropper's line of
	// sight: that is the adversary-favorable case — an array resolves
	// sources by angle, so radial (range) separation would give it
	// nothing at any spacing.
	imdPos := Position{0, 0}
	jamPos := Position{0, cfg.ShieldSeparation}
	eaves1 := Position{cfg.EavesDistance, 0}
	eaves2 := Position{cfg.EavesDistance, cfg.EavesAperture}

	var errs, total int
	var sinrAcc float64
	for trial := 0; trial < cfg.Trials; trial++ {
		// Per-trial carrier phases for each source.
		phIMD := 2 * math.Pi * rng.Float64()
		phJam := 2 * math.Pi * rng.Float64()

		// Channel vectors (2 eavesdropper antennas × 2 sources).
		hIMD := [2]complex128{
			Gain(imdPos, eaves1, cfg.BodyLossDB, phIMD),
			Gain(imdPos, eaves2, cfg.BodyLossDB, phIMD),
		}
		hJam := [2]complex128{
			Gain(jamPos, eaves1, 0, phJam),
			Gain(jamPos, eaves2, 0, phJam),
		}

		bits := rng.Bits(cfg.Bits)
		x := fsk.Modulate(bits)
		dsp.Scale(x, math.Sqrt(dsp.FromDBm(cfg.IMDPowerDBm)))
		jam := jamGen.ComplexNormalVec(make([]complex128, len(x)), dsp.FromDBm(cfg.JamPowerDBm))

		// Zero-forcing: w = (hJam[1], -hJam[0]) nulls the jam exactly.
		w := [2]complex128{hJam[1], -hJam[0]}
		norm := math.Sqrt(magSq(w[0]) + magSq(w[1]))
		w[0] /= complex(norm, 0)
		w[1] /= complex(norm, 0)

		noiseVar := dsp.FromDBm(cfg.NoiseFloorDBm) * 2 // spread over fs = 2×BW
		combined := make([]complex128, len(x))
		for i := range combined {
			n1 := rng.ComplexNormal(noiseVar)
			n2 := rng.ComplexNormal(noiseVar)
			y1 := hIMD[0]*x[i] + hJam[0]*jam[i] + n1
			y2 := hIMD[1]*x[i] + hJam[1]*jam[i] + n2
			combined[i] = w[0]*y1 + w[1]*y2
		}

		// Post-nulling signal gain and SINR.
		g := w[0]*hIMD[0] + w[1]*hIMD[1]
		sigP := magSq(g) * dsp.FromDBm(cfg.IMDPowerDBm)
		sinrAcc += dsp.DB(sigP / noiseVar)

		got := fsk.DemodBits(combined, len(bits), 0)
		e, n := phy.CountBitErrors(got, bits)
		errs += e
		total += n
	}
	res := Result{SeparationM: cfg.ShieldSeparation}
	if total > 0 {
		res.BER = float64(errs) / float64(total)
	}
	res.ResidualSINRdB = sinrAcc / float64(cfg.Trials)
	return res
}

func magSq(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

// Sweep evaluates the zero-forcing eavesdropper across IMD↔jammer
// separations, reproducing the §3.2 argument: below ~λ/10 the channel
// vectors are effectively parallel and nulling the jam nulls the IMD too;
// as the separation approaches λ/2 the eavesdropper starts to win —
// which is why the shield must be worn directly over the implant.
func Sweep(separations []float64, rng *stats.RNG) []Result {
	out := make([]Result, 0, len(separations))
	for i, sep := range separations {
		// Keyed per-separation streams: sweep point i draws the same
		// randomness whether the sweep runs serially or fanned out.
		out = append(out, EvaluateSeparation(sep, rng.SplitN(i)))
	}
	return out
}

// EvaluateSeparation evaluates the default geometry at one IMD↔jammer
// separation — the per-point body Sweep and any parallel sweep share, so
// the two cannot drift apart.
func EvaluateSeparation(sep float64, rng *stats.RNG) Result {
	cfg := DefaultConfig()
	cfg.ShieldSeparation = sep
	return Evaluate(cfg, rng)
}

package experiments

import (
	"fmt"
	"strings"

	"heartshield/internal/dsp"
	"heartshield/internal/modem"
	"heartshield/internal/shieldcore"
	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// SpectrumSeries is one PSD curve in dB relative to its peak, sampled at
// centered frequencies.
type SpectrumSeries struct {
	Label    string
	FreqKHz  []float64
	PowerDBr []float64 // dB relative to the series peak
}

func spectrumOf(label string, iq []complex128, fs float64, nfft int) SpectrumSeries {
	psd := dsp.PSD(iq, nfft, dsp.Hann)
	freqs := dsp.PSDFrequencies(nfft, fs)
	peak := stats.Max(psd)
	s := SpectrumSeries{Label: label}
	for i := range psd {
		s.FreqKHz = append(s.FreqKHz, freqs[i]/1e3)
		s.PowerDBr = append(s.PowerDBr, dsp.DB(psd[i]/peak))
	}
	return s
}

// bandFraction integrates the PSD fraction within ±[lo,hi] kHz of both
// tones.
func (s SpectrumSeries) toneBandFraction() float64 {
	var inBand, total float64
	for i, f := range s.FreqKHz {
		p := dsp.FromDB(s.PowerDBr[i])
		total += p
		if (f >= -75 && f <= -25) || (f >= 25 && f <= 75) {
			inBand += p
		}
	}
	if total == 0 {
		return 0
	}
	return inBand / total
}

// Fig4Result reproduces Fig. 4: the frequency profile of the IMD's FSK
// signal, with its energy concentrated around ±50 kHz.
type Fig4Result struct {
	Spectrum         SpectrumSeries
	ToneBandFraction float64
}

// Fig4 measures the IMD transmission's power profile.
func Fig4(cfg Config) Fig4Result {
	sc := testbed.NewScenario(testbed.Options{Seed: cfg.seed("fig4")})
	bits := sc.RNG.Bits(16384)
	iq := sc.FSK.Modulate(bits)
	s := spectrumOf("Virtuoso-style FSK", iq, sc.FSK.Config().SampleRate, 128)
	return Fig4Result{Spectrum: s, ToneBandFraction: s.toneBandFraction()}
}

// Render prints the Fig. 4 profile as frequency/power rows.
func (r Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("Fig. 4 — IMD FSK power profile"))
	fmt.Fprintf(&b, "%10s %10s\n", "freq(kHz)", "P(dBr)")
	for i := range r.Spectrum.FreqKHz {
		if i%4 != 0 {
			continue // thin the rows for readability
		}
		fmt.Fprintf(&b, "%10.1f %10.1f\n", r.Spectrum.FreqKHz[i], r.Spectrum.PowerDBr[i])
	}
	fmt.Fprintf(&b, "energy within ±(25..75) kHz tone bands: %.0f%%\n", 100*r.ToneBandFraction)
	return b.String()
}

// Fig5Result reproduces Fig. 5: the shaped jamming profile versus the
// constant (flat) profile, plus the effectiveness ablation — the
// adversary's BER under each shape at a marginal jamming budget, showing
// why shaping matters per watt of jamming power.
type Fig5Result struct {
	IMDProfile    SpectrumSeries
	ShapedProfile SpectrumSeries
	FlatProfile   SpectrumSeries
	// ToneBandGainDB is how much more power the shaped jam places in the
	// decision-relevant tone bands than the flat jam.
	ToneBandGainDB float64
	// Ablation at a marginal jamming budget (MarginalRelDB above the IMD
	// power instead of the full 20 dB).
	MarginalRelDB float64
	BERFlat       float64
	BERShaped     float64
}

// Fig5 measures both jamming profiles and the per-watt ablation. The
// ablation runs the jammer 4 dB below the IMD's received power — a
// deliberately starved budget where the efficiency difference between the
// profiles is visible (at the full +20 dB operating point both reduce the
// adversary to guessing).
func Fig5(cfg Config) Fig5Result {
	res := Fig5Result{MarginalRelDB: -4}
	fs := modem.DefaultFSK.SampleRate

	sc := testbed.NewScenario(testbed.Options{Seed: cfg.seed("fig5")})
	res.IMDProfile = spectrumOf("IMD FSK", sc.FSK.Modulate(sc.RNG.Bits(16384)), fs, 128)

	shapedGen := shieldcore.NewJamGenerator(shieldcore.ShapedJam, modem.DefaultFSK, stats.NewRNG(cfg.seed("fig5-shaped")))
	flatGen := shieldcore.NewJamGenerator(shieldcore.FlatJam, modem.DefaultFSK, stats.NewRNG(cfg.seed("fig5-flat")))
	shapedIQ := shapedGen.Generate(make([]complex128, 1<<16))
	flatIQ := flatGen.Generate(make([]complex128, 1<<16))
	res.ShapedProfile = spectrumOf("shaped jam", shapedIQ, fs, 128)
	res.FlatProfile = spectrumOf("flat jam", flatIQ, fs, 128)

	toneBand := func(iq []complex128) float64 {
		psd := dsp.PSD(iq, 256, dsp.Hann)
		return dsp.BandPower(psd, fs, -75e3, -25e3) + dsp.BandPower(psd, fs, 25e3, 75e3)
	}
	res.ToneBandGainDB = dsp.DB(toneBand(shapedIQ) / toneBand(flatIQ))

	// Per-watt ablation: eavesdropper BER under each shape at marginal
	// jamming power, measured PAIRED — both shapes against the same
	// channel draw each trial, so shadowing does not confound the
	// comparison.
	trials := cfg.trials(12, 6)
	res.BERShaped, res.BERFlat = pairedJammedBER(cfg, res.MarginalRelDB, trials)
	return res
}

// pairedBERTrial is one trial's BER under each jam shape; the OK flags
// report whether that shape's exchange completed.
type pairedBERTrial struct {
	shaped, flat     float64
	shapedOK, flatOK bool
}

// pairedJammedBER measures the eavesdropper's mean BER under shaped and
// flat jamming of identical total power, pairing the two measurements on
// the same keyed channel epoch every trial. Trials fan out over
// cfg.Workers.
func pairedJammedBER(cfg Config, relDB float64, trials int) (shaped, flat float64) {
	outs := runTrials(cfg, testbed.Options{
		Seed: cfg.seed("fig5-paired"), Location: 1, JamPowerRelDB: relDB,
	}, trials, testbed.NewWorld,
		func(_ int, sc *testbed.Scenario, w *testbed.World) pairedBERTrial {
			var tr pairedBERTrial
			for _, shape := range []shieldcore.JamShape{shieldcore.ShapedJam, shieldcore.FlatJam} {
				sc.Medium.ClearBursts()
				sc.Shield.SetJamShape(shape)
				sc.PrepareShield()
				pending, err := sc.Shield.PlaceCommand(sc.InterrogateFrame(), 0)
				if err != nil {
					continue
				}
				re := sc.IMD.ProcessWindow(0, 12000)
				if !re.Responded {
					continue
				}
				pending.Collect()
				truth := re.Response.MarshalBits()
				ber := w.Eaves.InterceptBER(sc.Channel(), re.ResponseBurst.Start, truth)
				if shape == shieldcore.ShapedJam {
					tr.shaped, tr.shapedOK = ber, true
				} else {
					tr.flat, tr.flatOK = ber, true
				}
			}
			return tr
		})
	var shapedBERs, flatBERs []float64
	for _, tr := range outs {
		if tr.shapedOK {
			shapedBERs = append(shapedBERs, tr.shaped)
		}
		if tr.flatOK {
			flatBERs = append(flatBERs, tr.flat)
		}
	}
	return stats.Mean(shapedBERs), stats.Mean(flatBERs)
}

// Render prints the Fig. 5 comparison.
func (r Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("Fig. 5 — jamming power profiles (shaped vs constant)"))
	fmt.Fprintf(&b, "%10s %12s %12s %12s\n", "freq(kHz)", "IMD(dBr)", "shaped(dBr)", "flat(dBr)")
	for i := range r.IMDProfile.FreqKHz {
		if i%4 != 0 {
			continue
		}
		fmt.Fprintf(&b, "%10.1f %12.1f %12.1f %12.1f\n",
			r.IMDProfile.FreqKHz[i], r.IMDProfile.PowerDBr[i],
			r.ShapedProfile.PowerDBr[i], r.FlatProfile.PowerDBr[i])
	}
	fmt.Fprintf(&b, "shaped-vs-flat power in tone bands: +%.1f dB\n", r.ToneBandGainDB)
	fmt.Fprintf(&b, "ablation at +%.0f dB jam budget: eavesdropper BER shaped=%.2f flat=%.2f\n",
		r.MarginalRelDB, r.BERShaped, r.BERFlat)
	return b.String()
}

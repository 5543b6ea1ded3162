package experiments

import (
	"fmt"
	"strings"

	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// Fig9_10Result reproduces Fig. 9 (CDF of the eavesdropper's BER over all
// testbed locations) and Fig. 10 (CDF of the shield's packet loss while
// jamming), which the paper measures in the same runs.
type Fig9_10Result struct {
	// PerLocationBER holds each location's mean eavesdropper BER.
	PerLocationBER map[int]float64
	// BERCDF aggregates per-packet BERs across locations (Fig. 9).
	BERCDF *stats.CDF
	// LossCDF aggregates per-location packet loss rates (Fig. 10).
	LossCDF *stats.CDF
	// MeanLoss is the average shield packet loss rate.
	MeanLoss float64
	Packets  int
}

// fig9Trial is one protected exchange's confidentiality outcome.
type fig9Trial struct {
	tried, lost bool
	ber         float64
}

// Fig9And10 runs the confidentiality experiment: at every location the
// shield triggers IMD transmissions, jams them, and decodes them, while
// the eavesdropper attempts the same with an optimal decoder. Every
// (location, trial) pair is an independent keyed work item, so the whole
// experiment fans out over cfg.Workers and merges deterministically in
// (location, trial) order.
func Fig9And10(cfg Config) Fig9_10Result {
	perLoc := cfg.trials(100, 8)
	base := cfg.seed("fig9")
	outs := runSweep(cfg, len(testbed.Locations), perLoc,
		func(p int) testbed.Options {
			return testbed.Options{
				Seed: stats.TrialSeed(base, p), Location: testbed.Locations[p].Index,
			}
		},
		testbed.NewWorld,
		func(_, _ int, sc *testbed.Scenario, w *testbed.World) fig9Trial {
			var tr fig9Trial
			sc.PrepareShield()
			pending, err := sc.Shield.PlaceCommand(sc.InterrogateFrame(), 0)
			if err != nil {
				return tr
			}
			re := sc.IMD.ProcessWindow(0, 12000)
			if !re.Responded {
				return tr
			}
			result := pending.Collect()
			tr.tried = true
			tr.lost = result.Response == nil
			truth := re.Response.MarshalBits()
			tr.ber = w.Eaves.InterceptBER(sc.Channel(), re.ResponseBurst.Start, truth)
			return tr
		})

	res := Fig9_10Result{
		PerLocationBER: make(map[int]float64),
		BERCDF:         &stats.CDF{},
		LossCDF:        &stats.CDF{},
	}
	totalLost, totalTried := 0, 0
	for li, trials := range outs {
		loc := testbed.Locations[li]
		var bers []float64
		lost, tried := 0, 0
		for _, tr := range trials {
			if !tr.tried {
				continue
			}
			tried++
			if tr.lost {
				lost++
			}
			bers = append(bers, tr.ber)
			res.BERCDF.Add(tr.ber)
		}
		res.PerLocationBER[loc.Index] = stats.Mean(bers)
		if tried > 0 {
			res.LossCDF.Add(float64(lost) / float64(tried))
		}
		totalLost += lost
		totalTried += tried
	}
	if totalTried > 0 {
		res.MeanLoss = float64(totalLost) / float64(totalTried)
	}
	res.Packets = totalTried
	return res
}

// Render prints both CDFs and the per-location table.
func (r Fig9_10Result) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("Fig. 9 — eavesdropper BER over all locations (CDF)"))
	b.WriteString(r.BERCDF.Table(10, "BER"))
	fmt.Fprintf(&b, "%-18s %8s\n", "location", "meanBER")
	for _, loc := range testbed.Locations {
		fmt.Fprintf(&b, "%-18s %8.3f\n", loc.String(), r.PerLocationBER[loc.Index])
	}
	b.WriteString("\n")
	b.WriteString(renderHeader("Fig. 10 — shield packet loss while jamming (CDF)"))
	b.WriteString(r.LossCDF.Table(8, "loss rate"))
	fmt.Fprintf(&b, "mean loss %.4f over %d packets (paper: ≈0.002)\n", r.MeanLoss, r.Packets)
	return b.String()
}

// MinLocationBER returns the lowest per-location mean BER — the
// location-independence check (paper: ≈0.5 everywhere).
func (r Fig9_10Result) MinLocationBER() float64 {
	min := 1.0
	for _, v := range r.PerLocationBER {
		if v < min {
			min = v
		}
	}
	return min
}

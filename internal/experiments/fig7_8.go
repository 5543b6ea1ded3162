package experiments

import (
	"fmt"
	"strings"

	"heartshield/internal/phy"
	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// Fig7Result reproduces Fig. 7: the CDF of the jamming-signal reduction
// achieved by the antidote at the shield's receive antenna.
type Fig7Result struct {
	CancellationsDB []float64
	MeanDB, StdDB   float64
	CDF             *stats.CDF
}

// Fig7 measures antenna cancellation over many independent trials, each
// with fresh channel estimation followed by channel drift (100 kb of jam
// with and without the antidote, per the paper's method). Trials are
// keyed by index, so they fan out over cfg.Workers with byte-identical
// results at any worker count.
func Fig7(cfg Config) Fig7Result {
	trials := cfg.trials(200, 40)
	res := Fig7Result{
		CancellationsDB: runTrials(cfg, testbed.Options{Seed: cfg.seed("fig7")}, trials, testbed.NewWorld,
			func(_ int, sc *testbed.Scenario, _ *testbed.World) float64 {
				sc.PrepareShield()
				return sc.Shield.CancellationDB(8192)
			}),
	}
	res.MeanDB = stats.Mean(res.CancellationsDB)
	res.StdDB = stats.Std(res.CancellationsDB)
	res.CDF = stats.NewCDF(res.CancellationsDB)
	return res
}

// Render prints the Fig. 7 CDF.
func (r Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("Fig. 7 — antidote cancellation at the receive antenna (CDF)"))
	b.WriteString(r.CDF.Table(12, "cancel(dB)"))
	fmt.Fprintf(&b, "mean %.1f dB, std %.1f dB over %d runs\n", r.MeanDB, r.StdDB, len(r.CancellationsDB))
	return b.String()
}

// Fig8Point is one x-axis point of the Fig. 8 sweep.
type Fig8Point struct {
	RelJamDB      float64 // jamming power relative to the IMD's received power
	EavesBER      float64 // (a): adversary's bit error rate
	ShieldPER     float64 // (b): shield's packet loss rate
	PacketsTried  int
	PacketsLost   int
	BitsCompared  int
	BitErrorsSeen int
}

// Fig8Result is the jamming-power tradeoff sweep of Fig. 8(a)/(b).
type Fig8Result struct {
	Points []Fig8Point
}

// fig8Trial is one protected exchange's worth of Fig. 8 counters.
type fig8Trial struct {
	tried, lost bool
	errs, bits  int
}

// Fig8 sweeps the shield's relative jamming power and measures the
// eavesdropper BER and shield PER at each setting. The eavesdropper sits
// at location 1 (20 cm), per §10.1(b). Every (sweep point, trial) pair is
// an independent keyed work item, so the whole sweep fans out over
// cfg.Workers and merges in (point, trial) order.
func Fig8(cfg Config) Fig8Result {
	perPoint := cfg.trials(60, 12)
	rels := []float64{1, 5, 10, 15, 20, 25}
	base := cfg.seed("fig8")
	outs := runSweep(cfg, len(rels), perPoint,
		func(p int) testbed.Options {
			return testbed.Options{
				Seed: stats.TrialSeed(base, p), Location: 1, JamPowerRelDB: rels[p],
			}
		},
		testbed.NewWorld,
		func(_, _ int, sc *testbed.Scenario, w *testbed.World) fig8Trial {
			var tr fig8Trial
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
			got := w.Eaves.InterceptBits(sc.Channel(), re.ResponseBurst.Start, len(truth))
			tr.errs, tr.bits = phy.CountBitErrors(got, truth)
			return tr
		})

	res := Fig8Result{Points: make([]Fig8Point, len(rels))}
	for p, trials := range outs {
		pt := Fig8Point{RelJamDB: rels[p]}
		for _, tr := range trials {
			if tr.tried {
				pt.PacketsTried++
				if tr.lost {
					pt.PacketsLost++
				}
			}
			pt.BitErrorsSeen += tr.errs
			pt.BitsCompared += tr.bits
		}
		if pt.BitsCompared > 0 {
			pt.EavesBER = float64(pt.BitErrorsSeen) / float64(pt.BitsCompared)
		}
		if pt.PacketsTried > 0 {
			pt.ShieldPER = float64(pt.PacketsLost) / float64(pt.PacketsTried)
		}
		res.Points[p] = pt
	}
	return res
}

// Render prints the Fig. 8 sweep rows.
func (r Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("Fig. 8 — BER at eavesdropper (a) and PER at shield (b) vs jamming power"))
	fmt.Fprintf(&b, "%12s %14s %14s %10s\n", "rel jam(dB)", "eaves BER", "shield PER", "packets")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%12.1f %14.3f %14.4f %10d\n", p.RelJamDB, p.EavesBER, p.ShieldPER, p.PacketsTried)
	}
	b.WriteString("paper: BER≈0.5 and PER≈0.002 at +20 dB\n")
	return b.String()
}

// OperatingPoint returns the sweep point closest to the paper's +20 dB
// setting.
func (r Fig8Result) OperatingPoint() Fig8Point {
	best := r.Points[0]
	for _, p := range r.Points {
		if abs(p.RelJamDB-20) < abs(best.RelJamDB-20) {
			best = p
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

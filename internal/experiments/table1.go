package experiments

import (
	"fmt"
	"strings"

	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// Table1Result reproduces Table 1: the adversary RSSI at the shield that
// elicits an IMD response despite the shield's jamming (Pthresh
// calibration). The paper reports min/avg/std over successful attempts.
type Table1Result struct {
	// SuccessRSSIs are the shield-measured RSSIs of adversary packets
	// that triggered an IMD response despite jamming.
	SuccessRSSIs []float64
	MinDBm       float64
	AvgDBm       float64
	StdDBm       float64
	// PthreshDBm is the derived alarm threshold: 3 dB below the minimum
	// successful RSSI (§10.1(c)).
	PthreshDBm float64
	Attempts   int
}

// table1Trial is one jammed attempt's outcome at one power setting.
type table1Trial struct {
	responded bool
	rssi      float64
}

// Table1 sweeps the adversary's transmit power at location 1 with the
// shield jamming, and records the RSSI of every attempt that still
// triggered the IMD. Every (power point, trial) pair is an independent
// keyed work item, fanned out over cfg.Workers and merged in sweep order.
func Table1(cfg Config) Table1Result {
	perPower := cfg.trials(20, 5)
	var powers []float64
	for power := -12.0; power <= 16.0; power += 2 {
		powers = append(powers, power)
	}
	base := cfg.seed("table1")
	outs := runSweep(cfg, len(powers), perPower,
		func(p int) testbed.Options {
			return testbed.Options{
				Seed:              stats.TrialSeed(base, p),
				Location:          1,
				AdversaryPowerDBm: powers[p],
			}
		},
		testbed.NewWorld,
		func(_, _ int, _ *testbed.Scenario, w *testbed.World) table1Trial {
			out := w.Attack(false, true)
			return table1Trial{responded: out.Responded, rssi: out.RSSIAtShieldDBm}
		})
	var res Table1Result
	for _, trials := range outs {
		for _, tr := range trials {
			res.Attempts++
			if tr.responded {
				res.SuccessRSSIs = append(res.SuccessRSSIs, tr.rssi)
			}
		}
	}
	if len(res.SuccessRSSIs) > 0 {
		res.MinDBm = stats.Min(res.SuccessRSSIs)
		res.AvgDBm = stats.Mean(res.SuccessRSSIs)
		res.StdDBm = stats.Std(res.SuccessRSSIs)
		res.PthreshDBm = res.MinDBm - 3
	}
	return res
}

// Render prints the Table 1 rows.
func (r Table1Result) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("Table 1 — adversary RSSI that elicits IMD responses despite jamming"))
	fmt.Fprintf(&b, "%-42s %10.1f dBm\n", "Minimum", r.MinDBm)
	fmt.Fprintf(&b, "%-42s %10.1f dBm\n", "Average", r.AvgDBm)
	fmt.Fprintf(&b, "%-42s %10.1f dBm\n", "Standard deviation", r.StdDBm)
	fmt.Fprintf(&b, "%-42s %10.1f dBm\n", "Derived Pthresh (min - 3 dB)", r.PthreshDBm)
	fmt.Fprintf(&b, "successes: %d / %d attempts across the power sweep\n", len(r.SuccessRSSIs), r.Attempts)
	b.WriteString("paper: min -11.1 / avg -4.5 / std 3.5 dBm\n")
	return b.String()
}

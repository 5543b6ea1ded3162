package experiments

import (
	"fmt"
	"strings"

	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// AttackPoint is one location's outcome in an active-attack experiment.
type AttackPoint struct {
	Location     testbed.Location
	ProbOff      float64 // P(command succeeds), shield absent
	ProbOn       float64 // P(command succeeds), shield present
	ProbAlarm    float64 // P(shield raises alarm) — Fig. 13 only
	TrialsPerArm int
}

// AttackResult is the per-location success table of Fig. 11/12/13.
type AttackResult struct {
	Title     string
	Points    []AttackPoint
	HighPower bool
}

// attackTrial is one trial's paired off/on outcome.
type attackTrial struct {
	offOK, onOK, alarmed bool
}

// runAttackExperiment measures per-location success probabilities for a
// replayed command (an interrogation, or a therapy change when therapy
// is set) with the shield off and on. Every (location, trial) pair is an
// independent keyed work item (scenario seeds derive from the experiment
// label and the location index), so the whole grid fans out over
// cfg.Workers and merges in (location, trial) order.
func runAttackExperiment(cfg Config, label, title string, therapy bool, success func(testbed.AttackOutcome) bool, locations int, powerDBm float64) AttackResult {
	trials := cfg.trials(100, 12)
	res := AttackResult{Title: title, HighPower: powerDBm > testbed.FCCLimitDBm}
	base := cfg.seed(label)
	outs := runSweep(cfg, locations, trials,
		func(p int) testbed.Options {
			return testbed.Options{
				Seed:              stats.TrialSeed(base, p),
				Location:          p + 1,
				AdversaryPowerDBm: powerDBm,
			}
		},
		testbed.NewWorld,
		func(_, _ int, _ *testbed.Scenario, w *testbed.World) attackTrial {
			var tr attackTrial
			tr.offOK = success(w.Attack(therapy, false))
			out := w.Attack(therapy, true)
			tr.onOK = success(out)
			tr.alarmed = out.Alarmed
			return tr
		})

	res.Points = make([]AttackPoint, locations)
	for li, ts := range outs {
		pt := AttackPoint{Location: testbed.LocationByIndex(li + 1), TrialsPerArm: trials}
		offOK, onOK, alarms := 0, 0, 0
		for _, tr := range ts {
			if tr.offOK {
				offOK++
			}
			if tr.onOK {
				onOK++
			}
			if tr.alarmed {
				alarms++
			}
		}
		pt.ProbOff = float64(offOK) / float64(trials)
		pt.ProbOn = float64(onOK) / float64(trials)
		pt.ProbAlarm = float64(alarms) / float64(trials)
		res.Points[li] = pt
	}
	return res
}

// Fig11 reproduces the battery-depletion attack: an off-the-shelf
// programmer replaying interrogation commands to make the IMD transmit.
func Fig11(cfg Config) AttackResult {
	return runAttackExperiment(cfg, "fig11",
		"Fig. 11 — probability the IMD replies to a replayed interrogation",
		false,
		func(o testbed.AttackOutcome) bool { return o.Responded },
		14, testbed.FCCLimitDBm)
}

// Fig12 reproduces the therapy-modification attack.
func Fig12(cfg Config) AttackResult {
	return runAttackExperiment(cfg, "fig12",
		"Fig. 12 — probability the IMD changes treatment on a replayed command",
		true,
		func(o testbed.AttackOutcome) bool { return o.TherapyChanged },
		14, testbed.FCCLimitDBm)
}

// Fig13 reproduces the high-powered adversary experiment (100× the
// shield's power), including the alarm series.
func Fig13(cfg Config) AttackResult {
	return runAttackExperiment(cfg, "fig13",
		"Fig. 13 — high-powered (100×) adversary: therapy change and alarms",
		true,
		func(o testbed.AttackOutcome) bool { return o.TherapyChanged },
		18, testbed.HighPowerAdvDBm)
}

// Render prints the per-location probability rows.
func (r AttackResult) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader(r.Title))
	if r.HighPower {
		fmt.Fprintf(&b, "%-18s %12s %12s %12s\n", "location", "P(off)", "P(on)", "P(alarm)")
	} else {
		fmt.Fprintf(&b, "%-18s %12s %12s\n", "location", "P(off)", "P(on)")
	}
	for _, p := range r.Points {
		if r.HighPower {
			fmt.Fprintf(&b, "%-18s %12.2f %12.2f %12.2f\n", p.Location.String(), p.ProbOff, p.ProbOn, p.ProbAlarm)
		} else {
			fmt.Fprintf(&b, "%-18s %12.2f %12.2f\n", p.Location.String(), p.ProbOff, p.ProbOn)
		}
	}
	fmt.Fprintf(&b, "trials per arm per location: %d\n", r.Points[0].TrialsPerArm)
	return b.String()
}

// MaxOnSuccess returns the largest shield-on success probability across
// locations (expected 0 for FCC-power adversaries).
func (r AttackResult) MaxOnSuccess() float64 {
	m := 0.0
	for _, p := range r.Points {
		if p.ProbOn > m {
			m = p.ProbOn
		}
	}
	return m
}

// OffKneeLocation returns the last location whose shield-off success
// probability exceeds 0.5 — the range knee the paper reports (loc 8 at
// FCC power, loc 12–13 at 100×).
func (r AttackResult) OffKneeLocation() int {
	knee := 0
	for _, p := range r.Points {
		if p.ProbOff > 0.5 {
			knee = p.Location.Index
		}
	}
	return knee
}

package experiments

import (
	"fmt"
	"strings"

	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// ProbeStalenessResult shows why the shield re-estimates its coupling
// channels immediately before acting and every 200 ms while idle (§5):
// the antidote's cancellation decays as the channel drifts away from the
// estimate it was built on.
type ProbeStalenessResult struct {
	// Points maps drift steps since the last probe to the measured mean
	// cancellation.
	Points []ProbeStalenessPoint
}

// ProbeStalenessPoint is one staleness level.
type ProbeStalenessPoint struct {
	DriftSteps int
	MeanDB     float64
	P10DB      float64 // 10th percentile — the dips that cause packet loss
}

// ProbeStaleness sweeps the number of channel-drift steps between the
// shield's estimate and its use of the antidote. The staleness levels and
// their trials flatten into one keyed trial grid that fans out over
// cfg.Workers; every level shares the same scenario seed, so trial i sees
// the same estimate and the same drift-path prefix at every level — a
// paired comparison in which only the staleness differs.
func ProbeStaleness(cfg Config) ProbeStalenessResult {
	trials := cfg.trials(60, 15)
	stepsList := []int{1, 2, 4, 8, 16}
	opts := testbed.Options{Seed: cfg.seed("ablation-probe")}
	outs := runSweep(cfg, len(stepsList), trials,
		func(int) testbed.Options { return opts },
		testbed.NewWorld,
		func(point, _ int, sc *testbed.Scenario, _ *testbed.World) float64 {
			sc.Shield.EstimateChannels()
			for k := 0; k < stepsList[point]; k++ {
				sc.Medium.Perturb()
			}
			return sc.Shield.CancellationDB(4096)
		})

	var res ProbeStalenessResult
	for p, g := range outs {
		res.Points = append(res.Points, ProbeStalenessPoint{
			DriftSteps: stepsList[p],
			MeanDB:     stats.Mean(g),
			P10DB:      stats.Percentile(g, 10),
		})
	}
	return res
}

// Render prints the staleness sweep.
func (r ProbeStalenessResult) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("§5 probe cadence — cancellation vs estimate staleness"))
	fmt.Fprintf(&b, "%14s %14s %14s\n", "drift steps", "mean G (dB)", "P10 G (dB)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%14d %14.1f %14.1f\n", p.DriftSteps, p.MeanDB, p.P10DB)
	}
	b.WriteString("stale estimates erode the antidote; hence the 200 ms re-probing\n")
	return b.String()
}

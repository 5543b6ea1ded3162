// Package experiments regenerates every table and figure of the paper's
// evaluation (§10–§11) on the simulated testbed. Each experiment returns a
// structured result with a Render method that prints the same rows/series
// the paper reports; cmd/shieldsim and the repository benchmarks drive
// them. Absolute numbers are testbed-specific (the substrate is a
// simulator, not the authors' lab); the shapes — who wins, by what factor,
// where the knees fall — are the reproduction targets (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// Config controls experiment effort.
type Config struct {
	// Seed makes the run deterministic.
	Seed int64
	// Trials is the per-point trial count; 0 selects each experiment's
	// default (paper-scale where feasible, reduced otherwise).
	Trials int
	// Quick reduces trial counts for CI/bench runs.
	Quick bool
	// Workers bounds the number of concurrent scenario workers; 0 or 1
	// runs serially. Every experiment — single-scenario trial loops and
	// point sweeps alike — distributes keyed (point, trial) work items
	// whose randomness is a pure function of the seed and the item index
	// (see runSweep and testbed.Scenario.NewTrialAt), and results merge
	// in item order, so the output is byte-identical for any worker
	// count.
	Workers int
	// Progress, when non-nil, is invoked after each completed trial with
	// the number of trials finished so far and the run's total. An
	// experiment may comprise several sweeps; done/total then span the
	// whole run only if the experiment wires a shared counter — by
	// default each sweep reports its own range. Calls may come from any
	// worker goroutine, and completion ORDER is nondeterministic under
	// parallelism; only the final call (done == total) is guaranteed to
	// be last. Callbacks must be fast: they run on the trial workers.
	Progress func(done, total int)
}

// trials resolves the effective trial count given defaults.
func (c Config) trials(def, quick int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return quick
	}
	return def
}

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Workers > 1 {
		return c.Workers
	}
	return 1
}

// seed derives the scenario base seed for a named experiment (or a named
// sub-part of one) from the run seed. Every experiment keys its scenarios
// through here — label-hashed derivation instead of hand-picked numeric
// offsets (the old cfg.Seed+7 / +100*loc style), so no registry reordering
// or offset reuse can silently alias two experiments onto one stream.
// Sweep experiments further derive per-point seeds with stats.TrialSeed on
// the value returned here.
func (c Config) seed(label string) int64 {
	return stats.DeriveSeed(c.Seed, label)
}

// runSweep is the trial-parallel experiment engine. It evaluates perPoint
// keyed trials at each of `points` sweep points (a point = one scenario
// shape: a location, a power setting, …) and returns the results indexed
// [point][trial].
//
// Work is distributed at trial granularity over cfg.workers() workers.
// Each worker owns at most one scenario at a time, built with optsAt(p)
// and prepared with prep (usually testbed.NewWorld: calibration plus the
// standard adversaries), and builds one whenever its next item lies at
// another point. Worker k claims the items of its own contiguous share,
// [k·n/w, (k+1)·n/w) of the n items, in order, and then those left in
// the other shares, so it meets a new point only at a point boundary
// inside a share or when it turns to another share: a sweep builds about
// points+workers-1 scenarios, not one per point per worker. Before fn
// runs, the engine calls sc.NewTrialAt(trial), which re-derives every random
// stream from (point seed, trial index) — so fn(p, i) computes the same
// value on any worker, for any worker count, in any execution order, and
// the assembled output is byte-identical to the serial run. fn must
// confine itself to its own scenario and its per-trial streams (no
// cross-trial state), and its result must hold no sample buffer: a
// worker ends a scenario's last trial (Medium.ClearBursts) when it drops
// the scenario, at a new point or when it runs out of work, so that
// trial's samples go back to the arena instead of to the GC.
func runSweep[S, T any](cfg Config, points, perPoint int,
	optsAt func(point int) testbed.Options,
	prep func(*testbed.Scenario) S,
	fn func(point, trial int, sc *testbed.Scenario, st S) T) [][]T {

	out := make([][]T, points)
	for p := range out {
		out[p] = make([]T, perPoint)
	}
	total := points * perPoint
	if total == 0 {
		return out
	}

	w := cfg.workers()
	if w > total {
		w = total
	}
	var completed atomic.Int64
	worker := func(claim func() int) {
		lastP := -1
		var sc *testbed.Scenario
		var st S
		var prepRSSI float64
		var prepHaveRSSI bool
		drop := func() {
			if sc != nil {
				sc.Medium.ClearBursts()
			}
		}
		for {
			j := claim()
			if j >= total {
				drop()
				return
			}
			p, i := j/perPoint, j%perPoint
			if p != lastP {
				drop()
				sc = testbed.NewScenario(optsAt(p))
				if prep != nil {
					st = prep(sc)
				}
				prepRSSI, prepHaveRSSI = sc.Shield.IMDRSSI()
				lastP = p
			}
			sc.NewTrialAt(i)
			// Pin the prep-time calibration state explicitly: NewTrialAt
			// snapshots whatever the shield currently holds, so a trial
			// body that measured or cleared the RSSI would otherwise leak
			// it into whichever trial this worker runs next — a
			// worker-count-dependent divergence. Re-imposing the prep
			// state here makes the determinism structural.
			if prepHaveRSSI {
				sc.Shield.SetIMDRSSI(prepRSSI)
			} else {
				sc.Shield.ClearIMDRSSI()
			}
			out[p][i] = fn(p, i, sc, st)
			if cfg.Progress != nil {
				cfg.Progress(int(completed.Add(1)), total)
			}
		}
	}

	if w <= 1 {
		j := 0
		worker(func() int { j++; return j - 1 })
		return out
	}
	next := make([]atomic.Int64, w)
	for k := range next {
		next[k].Store(int64(k * total / w))
	}
	claim := func(k int) int {
		for d := range w {
			s := (k + d) % w
			if j := int(next[s].Add(1)) - 1; j < (s+1)*total/w {
				return j
			}
		}
		return total
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			worker(func() int { return claim(k) })
		}()
	}
	wg.Wait()
	return out
}

// runTrials is runSweep for the single-scenario experiments: n keyed
// trials of one scenario shape, fanned out over cfg.workers().
func runTrials[S, T any](cfg Config, opts testbed.Options, n int,
	prep func(*testbed.Scenario) S,
	fn func(trial int, sc *testbed.Scenario, st S) T) []T {
	out := runSweep(cfg, 1, n,
		func(int) testbed.Options { return opts },
		prep,
		func(_, trial int, sc *testbed.Scenario, st S) T { return fn(trial, sc, st) })
	return out[0]
}

// parallelMap runs fn(i) for i in [0, n) across w workers and returns the
// results in index order. fn must be self-contained per index (build its
// own scenario, seeded exactly as the serial loop would); the ordered
// merge then makes the outcome independent of scheduling.
func parallelMap[T any](w, n int, fn func(int) T) []T {
	out := make([]T, n)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// renderHeader formats an experiment title banner.
func renderHeader(title string) string {
	return fmt.Sprintf("%s\n%s\n", title, strings.Repeat("-", len(title)))
}

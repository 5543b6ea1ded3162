package experiments

import (
	"runtime"
	"testing"

	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// The trial-parallel runner's contract: for a fixed seed, any worker
// count produces byte-identical Render output to the serial run, because
// every (point, trial) work item re-derives its randomness from a keyed
// seed and results merge in item order. The fixed counts {3, 8} exercise
// uneven work splits and more workers than sweep points; NumCPU is added
// so the test sees real goroutine interleaving on multi-core machines.
func workerCounts() []int {
	w := []int{3, 8}
	if n := runtime.NumCPU(); n > 1 {
		w = append(w, n)
	}
	return w
}

// checkWorkerInvariance renders the experiment serially and at each
// worker count and fails on any byte difference.
func checkWorkerInvariance(t *testing.T, name string, run func(Config) Renderer, cfg Config) {
	t.Helper()
	cfg.Workers = 1
	serial := run(cfg).Render()
	for _, w := range workerCounts() {
		wc := cfg
		wc.Workers = w
		if got := run(wc).Render(); got != serial {
			t.Fatalf("%s with %d workers diverges from serial output:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				name, w, serial, w, got)
		}
	}
}

// Single-scenario trial loops — the experiments this PR made
// trial-parallel via keyed NewTrialAt reseeds.

func TestFig3ParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "Fig3", func(c Config) Renderer { return Fig3(c) }, Config{Seed: 42, Trials: 4})
}

func TestFig7ParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "Fig7", func(c Config) Renderer { return Fig7(c) }, Config{Seed: 42, Trials: 6})
}

func TestTable2ParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "Table2", func(c Config) Renderer { return Table2(c) }, Config{Seed: 42, Trials: 4})
}

func TestAblationAntidoteParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "AblationAntidote", func(c Config) Renderer { return AblationAntidote(c) }, Config{Seed: 42, Trials: 4})
}

func TestAblationBThreshParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "AblationBThresh", func(c Config) Renderer { return AblationBThresh(c) }, Config{Seed: 42, Trials: 4})
}

func TestProbeStalenessParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "ProbeStaleness", func(c Config) Renderer { return ProbeStaleness(c) }, Config{Seed: 42, Trials: 3})
}

func TestOFDMExtensionParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "OFDMExtension", func(c Config) Renderer { return OFDMExtension(c) }, Config{Seed: 42, Trials: 5})
}

func TestMIMOExtensionParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "MIMOExtension", func(c Config) Renderer { return MIMOExtension(c) }, Config{Seed: 42})
}

// Sweep experiments — (point, trial) work grids.

func TestFig8ParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "Fig8", func(c Config) Renderer { return Fig8(c) }, Config{Seed: 42, Trials: 3})
}

func TestFig9And10ParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "Fig9And10", func(c Config) Renderer { return Fig9And10(c) }, Config{Seed: 42, Trials: 2})
}

func TestFig11ParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "Fig11", func(c Config) Renderer { return Fig11(c) }, Config{Seed: 42, Trials: 3})
}

func TestTable1ParallelEquivalence(t *testing.T) {
	checkWorkerInvariance(t, "Table1", func(c Config) Renderer { return Table1(c) }, Config{Seed: 42, Trials: 3})
}

// sweepAllocCeiling bounds what one attack trial of a warm two-point
// sweep allocates, its share of the scenario builds included. Measured:
// 53 KB at Workers 1 and 50–64 KB at Workers 2; 140 and 162–220 KB when
// a worker leaves a dropped scenario's last trial to the GC.
const sweepAllocCeiling = 96 << 10

// A sweep worker hands a dropped scenario's last trial back to the
// sample arena, at a new point and when it runs out of work, so a warm
// sweep of Fig. 11's paired interrogations takes those samples from the
// arena instead of allocating them again.
func TestWarmSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("memory statistics are unreliable under -race")
	}
	const points, perPoint = 2, 4
	sweep := func(workers int) {
		runSweep(Config{Workers: workers}, points, perPoint,
			func(p int) testbed.Options {
				return testbed.Options{Seed: stats.TrialSeed(7, p), Location: p + 1}
			},
			testbed.NewWorld,
			func(_, _ int, _ *testbed.Scenario, w *testbed.World) bool {
				return w.Attack(false, false).Responded && w.Attack(false, true).Responded
			})
	}
	for _, workers := range []int{1, 2} {
		for i := 0; i < 10; i++ {
			sweep(workers)
		}
		const sweeps = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < sweeps; i++ {
			sweep(workers)
		}
		runtime.ReadMemStats(&after)
		n := (after.TotalAlloc - before.TotalAlloc) / (sweeps * points * perPoint)
		t.Logf("Workers %d: %d B per trial", workers, n)
		if n > sweepAllocCeiling {
			t.Errorf("Workers %d: a warm sweep allocates %d B per trial, want at most %d", workers, n, sweepAllocCeiling)
		}
	}
}

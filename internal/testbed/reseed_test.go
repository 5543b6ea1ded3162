package testbed

import "testing"

// A scenario reseed — the per-trial NewTrialAt of every experiment sweep
// and the Reset behind every recycled shieldd session — reseeds the RNGs
// it owns in place and keeps every buffer, so it allocates nothing; nor
// does jam synthesis on the reseeded shield once its buffer is warm.
func TestReseedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	sc := NewScenario(Options{Seed: 4, ExtraIMDs: 1})
	sc.CalibrateShieldRSSI()
	trial := 0
	if n := testing.AllocsPerRun(20, func() { sc.NewTrialAt(trial); trial++ }); n != 0 {
		t.Errorf("NewTrialAt: %v allocs, want 0", n)
	}
	seed := int64(100)
	if n := testing.AllocsPerRun(20, func() { sc.Reset(seed); seed++ }); n != 0 {
		t.Errorf("Reset: %v allocs, want 0", n)
	}
	sc.Shield.GenerateJamSamples(4096)
	if n := testing.AllocsPerRun(20, func() {
		sc.NewTrialAt(trial)
		trial++
		sc.Shield.GenerateJamSamples(4096)
	}); n != 0 {
		t.Errorf("NewTrialAt + warm jam synthesis: %v allocs, want 0", n)
	}
}

// BenchmarkNewTrialAt is the keyed per-trial reseed every Fig. 8–13 sweep
// pays before each attack trial.
func BenchmarkNewTrialAt(b *testing.B) {
	sc := NewScenario(Options{Seed: 4})
	sc.CalibrateShieldRSSI()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.NewTrialAt(i)
	}
}

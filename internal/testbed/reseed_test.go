package testbed

import (
	"runtime"
	"testing"

	"heartshield/internal/imd"
)

// A scenario reseed — the per-trial NewTrialAt of every experiment sweep,
// and Reset — reseeds the RNGs it owns in place and keeps every buffer,
// so it allocates nothing; nor does jam synthesis on the reseeded shield,
// which writes into the trial's arena buffers.
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
	if n := testing.AllocsPerRun(20, func() {
		sc.NewTrialAt(trial)
		trial++
		sc.Shield.EstimateChannels()
		sc.Shield.CancellationDB(4096)
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

// trialAllocCeiling bounds the bytes one warm trial allocates per call.
// Samples come from the sample arena, so what is left is per-call
// bookkeeping: frames, bursts, jam placements and decoded bits. Before
// the arena an exchange allocated about 770 KB, nearly all of it burst
// and observation samples.
const trialAllocCeiling = 32 << 10

// bytesPerCall returns the bytes f allocates per call once warm: the
// warm-up outlasts the trials for which the sample arena keeps a class
// nobody asks for, so what earlier tests left there is gone too.
func bytesPerCall(f func()) uint64 {
	for i := 0; i < 10; i++ {
		f()
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

// A warm trial takes its burst and observation samples from the arena
// and hands them back when the trial ends, so what it allocates stays
// under one ceiling at either window and payload length. What is left
// does not scale with samples; an attack trial's grows with the command
// it jams, one placement of ~150 B per 100 µs jam segment (~21 KB for a
// 64-byte command).
func TestWarmTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("memory statistics are unreliable under -race")
	}
	short := imd.VirtuosoICD
	short.DataPayloadLen = 48
	for _, tc := range []struct {
		profile    imd.Profile
		cmdPayload int
	}{{short, 16}, {imd.VirtuosoICD, 64}} {
		w := NewWorld(NewScenario(Options{Seed: 5, Profile: tc.profile}))
		attack := w.InterrogateFrame()
		attack.Payload = make([]byte, tc.cmdPayload)
		for _, c := range []struct {
			name string
			call func()
		}{
			{"RunProtectedExchange", func() { w.RunProtectedExchange(w.Eaves, 0, w.InterrogateFrame()) }},
			{"RunAttackTrial", func() { w.RunAttackTrial(w.Adv, attack, true) }},
			{"World.Exchange", func() { w.Exchange(0, false) }},
		} {
			n := bytesPerCall(c.call)
			t.Logf("%s (response payload %d B, attack payload %d B): %d B/call", c.name, tc.profile.DataPayloadLen, tc.cmdPayload, n)
			if n > trialAllocCeiling {
				t.Errorf("%s (response payload %d B, attack payload %d B): %d B/call, want at most %d",
					c.name, tc.profile.DataPayloadLen, tc.cmdPayload, n, trialAllocCeiling)
			}
		}
	}
}

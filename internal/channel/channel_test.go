package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"heartshield/internal/dsp"
	"heartshield/internal/stats"
)

const (
	antA AntennaID = 1
	antB AntennaID = 2
	antC AntennaID = 3
)

func newTestMedium(seed int64) *Medium {
	return NewMedium(600e3, stats.NewRNG(seed))
}

func TestPathLossModels(t *testing.T) {
	// Friis at 1 m, 403.5 MHz ≈ 24.6 dB.
	got := FreeSpaceLossDB(1, MICSCenterHz)
	if math.Abs(got-24.56) > 0.2 {
		t.Fatalf("FSPL(1 m) = %g, want ≈ 24.6", got)
	}
	// Log-distance with n=3: +30 dB per decade beyond 1 m.
	d1 := LogDistanceLossDB(1, MICSCenterHz, 3)
	d10 := LogDistanceLossDB(10, MICSCenterHz, 3)
	if math.Abs((d10-d1)-30) > 0.01 {
		t.Fatalf("decade slope = %g dB, want 30", d10-d1)
	}
	// Below 1 m it reduces to free space.
	if LogDistanceLossDB(0.5, MICSCenterHz, 3) != FreeSpaceLossDB(0.5, MICSCenterHz) {
		t.Fatal("sub-reference distance should use free space")
	}
	// Obstruction adds linearly.
	if diff := AirLinkLossDB(5, 3, 10) - AirLinkLossDB(5, 3, 0); math.Abs(diff-10) > 1e-9 {
		t.Fatalf("obstruction delta = %g, want 10", diff)
	}
}

func TestLinkGainMagnitudeMatchesLoss(t *testing.T) {
	m := newTestMedium(1)
	m.SetLink(antA, antB, Link{LossDB: 40})
	g := m.Gain(antA, antB)
	wantAmp := math.Sqrt(dsp.FromDB(-40))
	if math.Abs(cmplx.Abs(g)-wantAmp) > 1e-12 {
		t.Fatalf("gain magnitude = %g, want %g", cmplx.Abs(g), wantAmp)
	}
}

func TestLinkReciprocity(t *testing.T) {
	m := newTestMedium(2)
	m.SetLink(antA, antB, Link{LossDB: 50})
	if m.Gain(antA, antB) != m.Gain(antB, antA) {
		t.Fatal("link must be reciprocal")
	}
	if !m.HasLink(antB, antA) {
		t.Fatal("HasLink should see reversed pair")
	}
}

func TestMissingLinkIsZero(t *testing.T) {
	m := newTestMedium(3)
	if m.Gain(antA, antC) != 0 {
		t.Fatal("missing link should have zero gain")
	}
	if !math.IsInf(m.PathLossDB(antA, antC), 1) {
		t.Fatal("missing link loss should be +inf")
	}
}

func TestNewEpochRedrawsShadowingAndPhase(t *testing.T) {
	m := newTestMedium(4)
	m.SetLink(antA, antB, Link{LossDB: 60, ShadowSigmaDB: 4})
	losses := make([]float64, 200)
	for i := range losses {
		m.NewEpoch()
		losses[i] = m.PathLossDB(antA, antB)
	}
	mean := stats.Mean(losses)
	std := stats.Std(losses)
	if math.Abs(mean-60) > 1.5 {
		t.Fatalf("mean shadowed loss = %g, want ≈ 60", mean)
	}
	if std < 2.5 || std > 5.5 {
		t.Fatalf("shadowing std = %g, want ≈ 4", std)
	}
}

func TestPerturbDriftMagnitude(t *testing.T) {
	m := newTestMedium(5)
	drift := 0.02
	m.SetLink(antA, antB, Link{LossDB: 30, DriftStd: drift})
	var rel []float64
	for i := 0; i < 300; i++ {
		m.NewEpoch()
		before := m.Gain(antA, antB)
		m.Perturb()
		after := m.Gain(antA, antB)
		rel = append(rel, cmplx.Abs(after-before)/cmplx.Abs(before))
	}
	got := stats.Mean(rel)
	// Mean magnitude of CN(0, σ²) is σ·sqrt(π)/2 ≈ 0.886σ.
	want := drift * math.Sqrt(math.Pi) / 2
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("mean drift = %g, want ≈ %g", got, want)
	}
}

func TestPerturbNoDriftNoChange(t *testing.T) {
	m := newTestMedium(6)
	m.SetLink(antA, antB, Link{LossDB: 30})
	before := m.Gain(antA, antB)
	m.Perturb()
	if m.Gain(antA, antB) != before {
		t.Fatal("zero-drift link changed under Perturb")
	}
}

func TestObserveSuperposition(t *testing.T) {
	m := newTestMedium(7)
	m.SetLink(antA, antC, Link{LossDB: 0})
	m.SetLink(antB, antC, Link{LossDB: 0})
	m.NewEpoch()
	gA := m.Gain(antA, antC)
	gB := m.Gain(antB, antC)

	iqA := []complex128{1, 1, 1, 1}
	iqB := []complex128{2, 2}
	m.AddBurst(&Burst{Channel: 0, Start: 10, IQ: iqA, From: antA})
	m.AddBurst(&Burst{Channel: 0, Start: 12, IQ: iqB, From: antB})

	got := m.Observe(antC, 0, 8, 8) // window [8,16)
	want := make([]complex128, 8)
	for i := 0; i < 4; i++ {
		want[2+i] += gA * iqA[i]
	}
	for i := 0; i < 2; i++ {
		want[4+i] += gB * iqB[i]
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestObserveIgnoresOtherChannels(t *testing.T) {
	m := newTestMedium(8)
	m.SetLink(antA, antB, Link{LossDB: 0})
	m.NewEpoch()
	m.AddBurst(&Burst{Channel: 3, Start: 0, IQ: []complex128{1, 1}, From: antA})
	out := m.Observe(antB, 0, 0, 4)
	for _, v := range out {
		if v != 0 {
			t.Fatal("burst leaked across MICS channels")
		}
	}
}

func TestObserveWindowClipping(t *testing.T) {
	m := newTestMedium(9)
	m.SetLink(antA, antB, Link{LossDB: 0})
	m.NewEpoch()
	g := m.Gain(antA, antB)
	m.AddBurst(&Burst{Channel: 0, Start: 0, IQ: []complex128{1, 2, 3, 4}, From: antA})
	// Window fully inside the burst.
	out := m.Observe(antB, 0, 1, 2)
	if cmplx.Abs(out[0]-g*2) > 1e-12 || cmplx.Abs(out[1]-g*3) > 1e-12 {
		t.Fatalf("clipped window = %v", out)
	}
	// Window extending beyond the burst is zero-padded.
	out = m.Observe(antB, 0, 3, 4)
	if out[0] == 0 || out[1] != 0 || out[2] != 0 || out[3] != 0 {
		t.Fatalf("tail window = %v", out)
	}
}

// Superposition is linear: observing two bursts equals the sum of
// observing each alone.
func TestObserveLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		m := NewMedium(600e3, stats.NewRNG(seed+1))
		m.SetLink(antA, antC, Link{LossDB: 10})
		m.SetLink(antB, antC, Link{LossDB: 20})
		m.NewEpoch()
		iqA := g.ComplexNormalVec(make([]complex128, 16), 1)
		iqB := g.ComplexNormalVec(make([]complex128, 16), 1)

		m.AddBurst(&Burst{Channel: 0, Start: 0, IQ: iqA, From: antA})
		both := m.Observe(antC, 0, 0, 16)
		m.AddBurst(&Burst{Channel: 0, Start: 0, IQ: iqB, From: antB})
		withB := m.Observe(antC, 0, 0, 16)

		gB := m.Gain(antB, antC)
		for i := range both {
			if cmplx.Abs(withB[i]-(both[i]+gB*iqB[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBusyAt(t *testing.T) {
	m := newTestMedium(10)
	m.AddBurst(&Burst{Channel: 0, Start: 100, IQ: make([]complex128, 50), From: antA})
	if !m.BusyAt(0, 120, -1) {
		t.Fatal("should be busy mid-burst")
	}
	if m.BusyAt(0, 160, -1) {
		t.Fatal("should be idle after burst")
	}
	if m.BusyAt(0, 120, antA) {
		t.Fatal("own burst should be excluded")
	}
}

func TestClearBursts(t *testing.T) {
	m := newTestMedium(11)
	m.SetLink(antA, antB, Link{LossDB: 0})
	m.AddBurst(&Burst{Channel: 0, Start: 0, IQ: []complex128{1}, From: antA})
	m.ClearBursts()
	if len(m.Bursts(0)) != 0 {
		t.Fatal("bursts survived ClearBursts")
	}
}

func TestEmptyBurstIgnored(t *testing.T) {
	m := newTestMedium(12)
	m.AddBurst(&Burst{Channel: 0, Start: 0, From: antA})
	if len(m.Bursts(0)) != 0 {
		t.Fatal("empty burst should be dropped")
	}
}

func TestSelfLoopLink(t *testing.T) {
	m := newTestMedium(13)
	m.SetLink(antA, antA, Link{LossDB: 2})
	m.NewEpoch()
	g := m.Gain(antA, antA)
	if math.Abs(cmplx.Abs(g)-math.Sqrt(dsp.FromDB(-2))) > 1e-12 {
		t.Fatalf("self-loop gain = %v", g)
	}
	// A burst from antA must be observable at antA through the self-loop.
	m.AddBurst(&Burst{Channel: 0, Start: 0, IQ: []complex128{1, 1}, From: antA})
	out := m.Observe(antA, 0, 0, 2)
	if cmplx.Abs(out[0]-g) > 1e-12 {
		t.Fatalf("self observation = %v, want %v", out[0], g)
	}
}

// The sample-ownership rule: a trial's observation window comes from the
// arena and ClearBursts hands it back, so once the arena is warm a trial
// observes the medium without allocating — the per-exchange GC load of
// the receive hot path rides on this.
func TestObserveDoesNotAllocate(t *testing.T) {
	m := NewMedium(600e3, stats.NewRNG(1))
	m.SetLink(1, 2, Link{LossDB: 40})
	m.NewEpoch()
	iq := make([]complex128, 4096)
	for i := range iq {
		iq[i] = 1
	}
	b := &Burst{Channel: 0, Start: 100, IQ: iq, From: 1}

	allocs := testing.AllocsPerRun(100, func() {
		m.ClearBursts()
		m.AddBurst(b)
		m.Observe(2, 0, 0, 4096)
	})
	if allocs != 0 {
		t.Fatalf("a warm trial's Observe allocates %.1f times per call, want 0", allocs)
	}
}

// A recycled arena buffer is not zero: an observation into one must agree
// sample for sample with one into a fresh buffer, including the zeroing
// of what no burst covers.
func TestObserveClearsRecycledBuffer(t *testing.T) {
	m := NewMedium(600e3, stats.NewRNG(2))
	m.SetLink(1, 2, Link{LossDB: 30})
	m.NewEpoch()
	iq := make([]complex128, 256)
	for i := range iq {
		iq[i] = complex(float64(i), 1)
	}
	b := &Burst{Channel: 0, Start: 10, IQ: iq, From: 1}
	m.AddBurst(b)

	want := slices.Clone(m.Observe(2, 0, 0, 300))
	dirty := m.Samples(300)
	for i := range dirty {
		dirty[i] = complex(99, 99)
	}
	m.ClearBursts()
	m.AddBurst(b)
	got := m.Observe(2, 0, 0, 300)
	if &got[0] != &dirty[0] {
		t.Fatal("the observation did not reuse the dirty buffer")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: recycled %v != fresh %v", i, got[i], want[i])
		}
	}
}

// The arena is shared by every medium of the process: media driven from
// concurrent goroutines (experiment workers, shieldd sessions) must never
// be handed the same buffer while both hold it.
func TestArenaSharedAcrossMedia(t *testing.T) {
	const media, trials = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, media)
	for g := 0; g < media; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := NewMedium(600e3, stats.NewRNG(int64(g)))
			m.SetLink(1, 2, Link{LossDB: 0})
			m.NewEpoch()
			gain := m.Gain(1, 2)
			for trial := 0; trial < trials; trial++ {
				m.ClearBursts()
				n := 64 + 97*(trial%5)
				iq := m.Samples(n)
				v := complex(float64(g), float64(trial))
				for i := range iq {
					iq[i] = v
				}
				m.AddBurst(&Burst{Channel: 0, Start: 0, IQ: iq, From: 1})
				obs := m.Observe(2, 0, 0, n)
				for i := range obs {
					if obs[i] != gain*v || iq[i] != v {
						errs <- fmt.Errorf("medium %d trial %d sample %d: burst %v, window %v; want %v, %v",
							g, trial, i, iq[i], obs[i], v, gain*v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

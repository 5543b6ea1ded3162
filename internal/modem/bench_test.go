package modem

import (
	"math"
	"slices"
	"sync"
	"testing"

	"heartshield/internal/dsp"
	"heartshield/internal/phy"
	"heartshield/internal/stats"
)

// naiveSyncMetric is the pre-FFT brute-force metric the accelerated
// syncMetric must reproduce: per lag, each reference segment is correlated
// directly and its energy recomputed from scratch.
func naiveSyncMetric(m *FSK, x []complex128) []float64 {
	ref := m.syncRef
	n := len(ref)
	if n == 0 || n > len(x) {
		return nil
	}
	segLen := 4 * m.sps
	if segLen > n {
		segLen = n
	}
	nSeg := n / segLen
	refE := make([]float64, nSeg)
	for s := 0; s < nSeg; s++ {
		refE[s] = dsp.Energy(ref[s*segLen : (s+1)*segLen])
	}
	out := make([]float64, len(x)-n+1)
	for k := range out {
		var metric float64
		for s := 0; s < nSeg; s++ {
			seg := x[k+s*segLen : k+(s+1)*segLen]
			r := ref[s*segLen : (s+1)*segLen]
			var acc complex128
			var segE float64
			for i := 0; i < segLen; i++ {
				rv := r[i]
				acc += seg[i] * complex(real(rv), -imag(rv))
				segE += real(seg[i])*real(seg[i]) + imag(seg[i])*imag(seg[i])
			}
			if den := segE * refE[s]; den > 0 {
				metric += magSq(acc) / den
			}
		}
		out[k] = metric / float64(nSeg)
	}
	return out
}

// naiveDemodBits is the pre-table demodulator: two Sincos per sample with
// brute-force phase accumulation.
func naiveDemodBits(m *FSK, x []complex128, nbits int, cfoHz float64) []byte {
	avail := len(x) / m.sps
	if nbits > avail {
		nbits = avail
	}
	if nbits <= 0 {
		return nil
	}
	bits := make([]byte, nbits)
	fs := m.cfg.SampleRate
	stepHi := -2 * math.Pi * (m.cfg.Deviation + cfoHz) / fs
	stepLo := -2 * math.Pi * (-m.cfg.Deviation + cfoHz) / fs
	for k := 0; k < nbits; k++ {
		seg := x[k*m.sps : (k+1)*m.sps]
		var cHi, cLo complex128
		phHi := stepHi * float64(k*m.sps)
		phLo := stepLo * float64(k*m.sps)
		for n, v := range seg {
			sH, cH := math.Sincos(phHi + stepHi*float64(n))
			sL, cL := math.Sincos(phLo + stepLo*float64(n))
			cHi += v * complex(cH, sH)
			cLo += v * complex(cL, sL)
		}
		if magSq(cHi) > magSq(cLo) {
			bits[k] = 1
		}
	}
	return bits
}

// syncTestSignal builds a frame-bearing noisy window like the ones the
// shield and IMD receive.
func syncTestSignal(m *FSK, g *stats.RNG, n, offset int, cfo float64) []complex128 {
	frame := &phy.Frame{Command: phy.CmdInterrogate, Payload: []byte("private-telemetry")}
	copy(frame.Serial[:], "PZK600123H")
	sig := m.ModulateFrame(frame)
	x := g.ComplexNormalVec(make([]complex128, n), 0.02)
	dsp.AddScaled(x[offset:], sig, complex(0.7, 0.4))
	if cfo != 0 {
		dsp.Mix(x, cfo, m.cfg.SampleRate, 0)
	}
	return x
}

// TestSyncMetricMatchesNaive is the modem-level equivalence test: the
// tone-matched metric must match the brute-force metric within 1e-9 at
// every lag, on frame-bearing and pure-noise windows, at the edges of the
// lag range and across the chunk grid. The modulation-index-1 config
// flips the bit-start phasor at every bit.
func TestSyncMetricMatchesNaive(t *testing.T) {
	for _, cfg := range []FSKConfig{
		DefaultFSK,
		{SampleRate: 600e3, SymbolRate: 25e3, Deviation: 25e3},
		{SampleRate: 600e3, SymbolRate: 50e3, Deviation: 25e3},
	} {
		m := NewFSK(cfg)
		g := stats.NewRNG(99)
		n := m.SyncRefLen()
		cases := []struct {
			name string
			x    []complex128
		}{
			{"frame", syncTestSignal(m, g, 6000, 1234, 0)},
			{"frame with CFO", syncTestSignal(m, g, 6000, 17, 2100)},
			{"frame across the chunk boundary", syncTestSignal(m, g, syncChunkLags+2*n, syncChunkLags-m.sps, 900)},
			{"noise", g.ComplexNormalVec(make([]complex128, 3000), 1)},
			{"fewer lags than a chunk", g.ComplexNormalVec(make([]complex128, n+syncChunkLags/2), 1)},
			{"single lag", g.ComplexNormalVec(make([]complex128, n), 1)},
		}
		for _, c := range cases {
			want := naiveSyncMetric(m, c.x)
			got := m.syncMetric(c.x)
			if len(got) != len(want) {
				t.Fatalf("%+v, %s: %d lags, want %d", cfg, c.name, len(got), len(want))
			}
			for k := range got {
				if math.Abs(got[k]-want[k]) > 1e-9 {
					t.Fatalf("%+v, %s, lag %d: metric %g vs naive %g", cfg, c.name, k, got[k], want[k])
				}
			}
		}
	}
}

// TestSyncMetricChunkInvariance pins the determinism property of the sync
// metric: each lag's value depends only on the samples under it, so it is
// bit-identical wherever the 1024-lag chunk grid falls. Re-slicing the
// window by k moves every lag to a different chunk position.
func TestSyncMetricChunkInvariance(t *testing.T) {
	m := NewFSK(DefaultFSK)
	x := syncTestSignal(m, stats.NewRNG(17), 6000, 2500, 700)
	ref := m.syncMetric(x)
	for _, k := range []int{1, 37, 500, 1023} {
		got := m.syncMetric(x[k:])
		diff := 0
		for i, v := range got {
			if v != ref[k+i] {
				diff++
			}
		}
		if diff > 0 {
			t.Errorf("window shifted by %d: %d of %d lags differ from the unshifted metric", k, diff, len(got))
		}
	}
}

// TestSyncConcurrentUse shares one modem across goroutines, as the
// experiment workers do: each scan takes its own pooled scratch, and the
// tables it carries between chunks must never leak into another scan.
func TestSyncConcurrentUse(t *testing.T) {
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(29)
	windows := [][]complex128{
		syncTestSignal(m, g, 5000, 3000, 300),
		g.ComplexNormalVec(make([]complex128, 4000), 1),
		syncTestSignal(m, g, 3000, 100, -800),
	}
	want := make([][]float64, len(windows))
	for i, x := range windows {
		want[i] = m.syncMetric(x)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				i := (w + r) % len(windows)
				if got := m.syncMetric(windows[i]); !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d, window %d: concurrent metric differs from the serial one", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSyncAllocs checks that a warm Sync allocates nothing, whether it
// locks early or scans the whole window.
func TestSyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(23)
	locked := syncTestSignal(m, g, 6000, 1500, 400)
	noise := g.ComplexNormalVec(make([]complex128, 6000), 1)
	for _, c := range []struct {
		name string
		x    []complex128
		lock bool
	}{{"locked", locked, true}, {"no lock", noise, false}} {
		if _, ok := m.Sync(c.x, 0.5); ok != c.lock {
			t.Fatalf("%s: Sync lock = %v, want %v", c.name, ok, c.lock)
		}
		if n := testing.AllocsPerRun(50, func() { m.Sync(c.x, 0.5) }); n != 0 {
			t.Errorf("%s: warm Sync allocates %v times per call, want 0", c.name, n)
		}
	}
}

// TestDemodBitsMatchesNaive checks the phasor-table demodulator against the
// Sincos-per-sample reference, across CFO values and noise levels.
func TestDemodBitsMatchesNaive(t *testing.T) {
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		bits := g.Bits(200)
		cfo := (g.Float64()*2 - 1) * 3000
		x := m.Modulate(bits)
		dsp.Mix(x, cfo, DefaultFSK.SampleRate, g.Float64()*6.28)
		dsp.AddTo(x, g.ComplexNormalVec(make([]complex128, len(x)), g.Float64()))
		want := naiveDemodBits(m, x, len(bits), cfo)
		got := m.DemodBits(x, len(bits), cfo)
		if de, n := phy.CountBitErrors(got, want); n != len(bits) || de != 0 {
			t.Fatalf("trial %d: table demod disagrees with naive on %d/%d bits", trial, de, n)
		}
	}
}

// TestEstimateCFOMatchesReference checks the allocation-free estimator and
// its zero-allocation property.
func TestEstimateCFOMatchesReference(t *testing.T) {
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(8)
	x := syncTestSignal(m, g, 4000, 500, 1800)
	got := m.EstimateCFO(x, 500)
	if math.Abs(got-1800) > 150 {
		t.Fatalf("CFO estimate %g Hz, want ≈ 1800", got)
	}
	if allocs := testing.AllocsPerRun(20, func() { m.EstimateCFO(x, 500) }); allocs != 0 {
		t.Fatalf("EstimateCFO allocates %g times per call, want 0", allocs)
	}
}

func BenchmarkFSKSync(b *testing.B) {
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(1)
	x := syncTestSignal(m, g, 12000, 2000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Sync(x, 0.5); !ok {
			b.Fatal("sync lost the frame")
		}
	}
}

// BenchmarkFSKSyncNoLock is the whole-window scan of a replay too weak
// to lock: no frame, so every chunk is evaluated.
func BenchmarkFSKSyncNoLock(b *testing.B) {
	m := NewFSK(DefaultFSK)
	x := stats.NewRNG(4).ComplexNormalVec(make([]complex128, 12000), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Sync(x, 0.5); ok {
			b.Fatal("sync locked on noise")
		}
	}
}

func BenchmarkFSKSyncNaive(b *testing.B) {
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(1)
	x := syncTestSignal(m, g, 12000, 2000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corr := naiveSyncMetric(m, x)
		if peak := dsp.PeakIndex(corr); peak != 2000 {
			b.Fatalf("naive sync peak at %d", peak)
		}
	}
}

func BenchmarkFSKDemodBits(b *testing.B) {
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(2)
	bits := g.Bits(512)
	x := m.Modulate(bits)
	dsp.AddTo(x, g.ComplexNormalVec(make([]complex128, len(x)), 0.05))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DemodBits(x, len(bits), 700)
	}
}

func BenchmarkFSKEstimateCFO(b *testing.B) {
	m := NewFSK(DefaultFSK)
	g := stats.NewRNG(3)
	x := syncTestSignal(m, g, 4000, 0, 900)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateCFO(x, 0)
	}
}

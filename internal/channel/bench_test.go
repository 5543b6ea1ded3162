package channel

import (
	"testing"

	"heartshield/internal/stats"
)

// buildBusyMedium fills one channel with nBursts staggered transmissions
// from a handful of antennas, like a long defense window's jam segments.
func buildBusyMedium(nBursts, burstLen int) *Medium {
	rng := stats.NewRNG(7)
	m := NewMedium(600e3, rng)
	const nAnts = 6
	for a := AntennaID(0); a < nAnts; a++ {
		for b := a; b < nAnts; b++ {
			m.SetLink(a, b, Link{LossDB: 40, ShadowSigmaDB: 2, DriftStd: 0.01})
		}
	}
	iq := rng.ComplexNormalVec(make([]complex128, burstLen), 1)
	for i := 0; i < nBursts; i++ {
		m.AddBurst(&Burst{
			Channel: 0,
			Start:   int64(i * burstLen / 2), // 50% overlap chain
			IQ:      iq,
			From:    AntennaID(i % nAnts),
		})
	}
	return m
}

// TestObserveMatchesBruteForce cross-checks the binary-searched overlap
// window against a direct scan over every burst.
func TestObserveMatchesBruteForce(t *testing.T) {
	m := buildBusyMedium(64, 300)
	for _, w := range []struct {
		start int64
		n     int
	}{{0, 100}, {-50, 400}, {4500, 1000}, {9550, 600}, {20000, 100}} {
		got := m.Observe(1, 0, w.start, w.n)
		want := make([]complex128, w.n)
		for _, b := range m.Bursts(0) {
			g := m.Gain(b.From, 1)
			for t := max64(w.start, b.Start); t < min64(w.start+int64(w.n), b.End()); t++ {
				want[t-w.start] += g * b.IQ[t-b.Start]
			}
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %+v sample %d: %v vs %v", w, i, got[i], want[i])
			}
		}
	}
}

// TestBusyAtMatchesBruteForce checks the point query against a scan,
// including the exclude-antenna path.
func TestBusyAtMatchesBruteForce(t *testing.T) {
	m := buildBusyMedium(40, 250)
	for sample := int64(-10); sample < 6000; sample += 37 {
		for excl := AntennaID(0); excl < 7; excl++ {
			want := false
			for _, b := range m.Bursts(0) {
				if b.From != excl && sample >= b.Start && sample < b.End() {
					want = true
					break
				}
			}
			if got := m.BusyAt(0, sample, excl); got != want {
				t.Fatalf("BusyAt(%d, excl %d) = %v, want %v", sample, excl, got, want)
			}
		}
	}
}

// TestAddBurstOutOfOrder verifies the sorted insert with reversed and
// interleaved arrival order.
func TestAddBurstOutOfOrder(t *testing.T) {
	rng := stats.NewRNG(3)
	m := NewMedium(600e3, rng)
	m.SetLink(0, 1, Link{LossDB: 10})
	starts := []int64{900, 100, 500, 300, 700, 100, 0}
	for _, s := range starts {
		m.AddBurst(&Burst{Channel: 2, Start: s, IQ: make([]complex128, 50), From: 0})
	}
	list := m.Bursts(2)
	if len(list) != len(starts) {
		t.Fatalf("%d bursts, want %d", len(list), len(starts))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Start > list[i].Start {
			t.Fatalf("bursts unsorted at %d: %d > %d", i, list[i-1].Start, list[i].Start)
		}
	}
}

func BenchmarkMediumObserve(b *testing.B) {
	m := buildBusyMedium(256, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A window deep into the burst chain: the binary search skips the
		// ~240 earlier bursts a linear scan would visit.
		m.Observe(1, 0, 70000, 1200)
		m.release()
	}
}

func BenchmarkMediumBusyAt(b *testing.B) {
	m := buildBusyMedium(256, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BusyAt(0, 70000, 2)
	}
}

func BenchmarkMediumNewEpoch(b *testing.B) {
	m := buildBusyMedium(4, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.NewEpoch()
	}
}

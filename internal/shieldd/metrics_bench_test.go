package shieldd

import (
	"testing"

	"heartshield/internal/metrics"
)

// BenchmarkMetricsSnapshot measures the continuous-scrape path with 1024
// registered live sessions: Server.Metrics() must stay allocation-bounded
// (the counter snapshot is atomic loads and the live-session sweep a
// read-locked loop of atomic loads), so a fleet-scale metrics poller never
// perturbs session traffic. Gated in BENCH_baseline.json alongside the
// exchange benchmarks.
func BenchmarkMetricsSnapshot(b *testing.B) {
	s, err := NewServer(ServerConfig{Secret: []byte("bench")})
	if err != nil {
		b.Fatal(err)
	}
	const liveSessions = 1024
	for i := 0; i < liveSessions; i++ {
		sess := &metrics.Session{}
		sess.Exchanges.Add(uint64(i))
		sess.Pings.Add(uint64(i % 7))
		for j := 0; j < i%5; j++ {
			sess.EnterFlight()
		}
		s.reg.Register(uint64(i+1), sess)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		snap := s.Metrics()
		sink += snap.LiveInFlight
	}
	_ = sink
	if got := s.reg.Len(); got != liveSessions {
		b.Fatalf("registry lost sessions: %d != %d", got, liveSessions)
	}
}

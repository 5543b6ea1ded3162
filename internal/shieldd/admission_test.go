package shieldd

import (
	"fmt"
	"testing"
	"time"
)

// The token bucket must allow a burst, refuse when drained, and refill
// at the configured rate — per address, at the times it is given.
func TestRateLimiterTokenBucket(t *testing.T) {
	rl := newRateLimiter(1, 2) // 1 token/s, burst 2
	now := time.Unix(1000, 0)

	if !rl.allow("a", now) || !rl.allow("a", now) {
		t.Fatal("burst of 2 refused")
	}
	if rl.allow("a", now) {
		t.Fatal("third attempt allowed with an empty bucket")
	}
	if !rl.allow("b", now) {
		t.Fatal("independent address shares a's bucket")
	}

	now = now.Add(time.Second) // one token refills
	if !rl.allow("a", now) {
		t.Fatal("refilled token refused")
	}
	if rl.allow("a", now) {
		t.Fatal("second attempt allowed after a single-token refill")
	}

	now = now.Add(time.Hour) // refill caps at burst
	if !rl.allow("a", now) || !rl.allow("a", now) {
		t.Fatal("burst refused after a long idle period")
	}
	if rl.allow("a", now) {
		t.Fatal("refill exceeded the burst cap")
	}
}

// A full limiter table must evict rather than grow: the oldest entry
// when all are active, an idle (fully refilled) one when available —
// and the table never exceeds its bound.
func TestRateLimiterEviction(t *testing.T) {
	rl := newRateLimiter(1, 1)
	now := time.Unix(2000, 0)

	for i := 0; i < rateLimiterMaxPeers; i++ {
		if !rl.allow(fmt.Sprintf("peer-%04d", i), now) {
			t.Fatalf("fresh peer %d refused", i)
		}
	}
	// All buckets drained and no time has passed: the newcomer must
	// evict the oldest entry.
	if !rl.allow("newcomer-1", now) {
		t.Fatal("newcomer refused on a full table")
	}
	if len(rl.buckets) > rateLimiterMaxPeers {
		t.Fatalf("table grew to %d, bound %d", len(rl.buckets), rateLimiterMaxPeers)
	}
	if _, ok := rl.buckets["peer-0000"]; ok {
		t.Error("oldest active entry survived eviction")
	}

	// After everything refills, eviction prefers the first idle bucket
	// in insertion order.
	now = now.Add(time.Minute)
	if !rl.allow("newcomer-2", now) {
		t.Fatal("newcomer refused after refill")
	}
	if _, ok := rl.buckets["peer-0001"]; ok {
		t.Error("first idle entry survived idle-eviction")
	}
	if len(rl.buckets) > rateLimiterMaxPeers {
		t.Fatalf("table grew to %d, bound %d", len(rl.buckets), rateLimiterMaxPeers)
	}
}

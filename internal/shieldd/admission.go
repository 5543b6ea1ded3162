package shieldd

import (
	"sync"
	"time"
)

// rateLimiterMaxPeers bounds the per-peer token-bucket table. Only
// cookie-verified source addresses ever allocate an entry, so the table
// cannot be grown by spoofed traffic; the bound is a backstop against a
// large population of real addresses. When full, buckets that have
// refilled to burst (i.e. idle peers) are evicted first; if none are
// idle, the oldest entry is dropped.
const rateLimiterMaxPeers = 4096

// rateLimiter is a per-peer token bucket over handshake attempts: each
// source address may sustain rate HELLOs per second with bursts of up
// to burst. It is consulted only after the stateless cookie verifies,
// so it meters real peers, not spoofed floods.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	order   []string // insertion order, for eviction
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst <= 0 {
		burst = 1
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*tokenBucket),
	}
}

// allow reports whether one handshake attempt from addr at now is
// within budget, consuming a token if so.
func (r *rateLimiter) allow(addr string, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.buckets[addr]
	if b == nil {
		if len(r.buckets) >= rateLimiterMaxPeers {
			r.evictLocked(now)
		}
		b = &tokenBucket{tokens: r.burst, last: now}
		r.buckets[addr] = b
		r.order = append(r.order, addr)
	}
	b.tokens += now.Sub(b.last).Seconds() * r.rate
	if b.tokens > r.burst {
		b.tokens = r.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictLocked drops one entry to make room at now: the first
// fully-refilled (idle) bucket in insertion order, or failing that the
// oldest entry.
func (r *rateLimiter) evictLocked(now time.Time) {
	for i, addr := range r.order {
		b := r.buckets[addr]
		if b == nil {
			continue
		}
		if b.tokens+now.Sub(b.last).Seconds()*r.rate >= r.burst {
			delete(r.buckets, addr)
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
	if len(r.order) > 0 {
		delete(r.buckets, r.order[0])
		r.order = r.order[1:]
	}
}

package shieldd

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"heartshield/internal/securelink"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// transportConn is the frame transport the handshake and session loops
// of both ends are written against. The transport decides two things
// and nothing else:
//
//   - framing: how a plaintext handshake frame is marked — by position
//     on a stream (its first inbound frame), by kind byte on a datagram;
//   - retry: whether it is unreliable (loss, duplication, and reordering
//     are normal, so the client re-sends its HELLO, the server answers a
//     duplicate HELLO again, and a failed securelink Open means "drop the
//     datagram", not "tear the session down"), which also sizes the
//     securelink receive window (armLink).
type transportConn interface {
	// readFrame returns the next inbound frame; handshake reports a
	// plaintext handshake frame.
	readFrame() (payload []byte, handshake bool, err error)
	// writeHandshake sends one plaintext handshake frame.
	writeHandshake(payload []byte) error
	// writeFrame sends one sealed session frame.
	writeFrame(payload []byte) error
	close() error
	setReadDeadline(t time.Time) error
	unreliable() bool
}

// streamConn adapts a net.Conn with the wire length-prefixed framing —
// the TCP / net.Pipe transport.
type streamConn struct {
	c net.Conn
	// sealed is set once the first inbound frame, the peer's plaintext
	// handshake frame, has been read: every later frame is sealed.
	sealed bool
}

func (s *streamConn) readFrame() ([]byte, bool, error) {
	if s.sealed {
		p, err := wire.ReadFrame(s.c)
		return p, false, err
	}
	// The peer has proven nothing yet: a plaintext frame gets a tiny
	// budget, so it cannot make this end allocate a MaxFrame buffer.
	s.sealed = true
	p, err := wire.ReadFrameLimit(s.c, maxHelloFrame)
	return p, true, err
}

func (s *streamConn) writeHandshake(p []byte) error     { return wire.WriteFrame(s.c, p) }
func (s *streamConn) writeFrame(p []byte) error         { return wire.WriteFrame(s.c, p) }
func (s *streamConn) close() error                      { return s.c.Close() }
func (s *streamConn) setReadDeadline(t time.Time) error { return s.c.SetReadDeadline(t) }
func (s *streamConn) unreliable() bool                  { return false }

// packetTC adapts a dgram frame connection (client Conn or server
// PeerConn): one datagram per frame, kind byte distinguishing plaintext
// handshake frames from sealed session frames.
type packetTC struct {
	fc dgram.FrameConn
}

func (p *packetTC) readFrame() ([]byte, bool, error) {
	kind, payload, err := p.fc.ReadFrame()
	if err != nil {
		return nil, false, err
	}
	return payload, kind == dgram.KindHandshake, nil
}

func (p *packetTC) writeHandshake(b []byte) error     { return p.fc.WriteFrame(dgram.KindHandshake, b) }
func (p *packetTC) writeFrame(b []byte) error         { return p.fc.WriteFrame(dgram.KindSealed, b) }
func (p *packetTC) close() error                      { return p.fc.Close() }
func (p *packetTC) setReadDeadline(t time.Time) error { return p.fc.SetReadDeadline(t) }
func (p *packetTC) unreliable() bool                  { return true }

// armLink applies the session-link hardening both ends agree on to a
// freshly derived link: the rekey ratchet, and a receive window sized to
// the reordering the transport can produce.
func armLink(link *securelink.Link, tc transportConn) *securelink.Link {
	window := sessionWindow
	if tc.unreliable() {
		window = dgramWindow
	}
	link.SetWindow(window)
	link.EnableRekey(sessionRekeyEvery)
	return link
}

// Datagram-transport session parameters.
const (
	// dgramWindow is the securelink receive window on datagram sessions:
	// large enough to absorb retransmit-induced reordering, far below the
	// 63-position cap.
	dgramWindow = 32
	// defaultRetryTimeout is the client's initial retransmit timeout.
	defaultRetryTimeout = 250 * time.Millisecond
	// defaultMaxRetries bounds retransmissions per request before the
	// call fails with a timeout error.
	defaultMaxRetries = 8
	// maxRetryBackoff caps the exponential retransmit backoff.
	maxRetryBackoff = 4 * time.Second
	// dedupCacheCap bounds the per-session response cache. It must
	// exceed the in-flight window by enough margin that a response can
	// still be re-sent for any request the client could plausibly
	// retransmit.
	dedupCacheCap = 256
	// defaultSendWindow is the client's pipelining window: how many
	// requests may be awaiting responses at once before Go blocks. It
	// matches the server's default InFlightPerSession so a full client
	// window can never wedge the server-side reorder buffer.
	defaultSendWindow = 16
	// fastRetransmitSkips is the selective-repeat dup-ack threshold: when
	// this many ordered responses with higher IDs have arrived while an
	// ordered request is still pending, its response datagram is presumed
	// lost (the server executes ordered requests in ID order, so their
	// responses leave in ID order) and the request is re-sent immediately
	// instead of waiting out the retry timer. On a loss-free in-order
	// link the count can never be reached, so a perfect link sees zero
	// retransmits.
	fastRetransmitSkips = 3
)

// dedupState is the server side of exactly-once execution: the reader
// consults it before a request ID may take a window slot, and the
// writer records every response it sends, so a retransmitted (or
// reused) request is answered from cache or dropped instead of
// re-executing against the scenario (which would fork the deterministic
// result stream).
type dedupState struct {
	mu       sync.Mutex
	inflight map[uint64]struct{}
	done     map[uint64]wire.Message
	order    []uint64 // done-cache FIFO eviction order
	maxID    uint64   // highest request ID ever claimed
	pruned   uint64   // ids <= pruned are client-confirmed delivered (cum)
}

func newDedupState() *dedupState {
	return &dedupState{
		inflight: make(map[uint64]struct{}),
		done:     make(map[uint64]wire.Message),
	}
}

// claim admits a request ID. fresh means execute it; cached non-nil
// means re-send that response; neither means drop the duplicate (it is
// still executing, or it is older than the dedup horizon).
func (d *dedupState) claim(id uint64) (fresh bool, cached wire.Message) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if msg, ok := d.done[id]; ok {
		return false, msg
	}
	if _, ok := d.inflight[id]; ok {
		return false, nil
	}
	// The client's cumulative-progress report confirmed delivery of every
	// response at or below pruned, so a retransmit from down there is
	// stale by definition: drop it rather than re-execute.
	if id <= d.pruned {
		return false, nil
	}
	// An ID far enough below the highest seen that its cache entry may
	// already have been evicted must NOT execute: this is a stale
	// retransmit of a request whose eviction we can no longer
	// distinguish from novelty, and re-executing it would fork the
	// deterministic result stream. Drop it; the client's retry schedule
	// surfaces the failure as a timeout. (Client IDs are sequential, so
	// a live pipeline never trips this.)
	if d.maxID >= dedupCacheCap && id <= d.maxID-dedupCacheCap {
		return false, nil
	}
	if id > d.maxID {
		d.maxID = id
	}
	d.inflight[id] = struct{}{}
	return true, nil
}

// prune drops done-cache entries at or below the client's cumulative
// progress report: the client has confirmed delivery of every response
// through cum, so it will never re-ask for them. This keeps the ledger
// holding only the window's worth of answers a live pipeline can still
// retransmit into, instead of the last dedupCacheCap responses.
func (d *dedupState) prune(cum uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cum <= d.pruned {
		return
	}
	d.pruned = cum
	keep := d.order[:0]
	for _, id := range d.order {
		if id <= cum {
			delete(d.done, id)
		} else {
			keep = append(keep, id)
		}
	}
	d.order = keep
}

// complete records the response the writer is sending for id.
func (d *dedupState) complete(id uint64, msg wire.Message) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.inflight, id)
	if _, ok := d.done[id]; ok {
		return
	}
	d.done[id] = msg
	d.order = append(d.order, id)
	if len(d.order) > dedupCacheCap {
		evict := d.order[0]
		d.order = d.order[1:]
		delete(d.done, evict)
	}
}

// TransportStats counts the client-side cost of an unreliable
// transport: how many requests were retransmitted and how many gave up.
// Always zero on stream transports.
type TransportStats struct {
	// Retransmits is the number of request datagrams re-sent after a
	// retry timeout expired without a response.
	Retransmits uint64
	// Timeouts is the number of requests that failed after exhausting
	// every retransmission.
	Timeouts uint64
	// ProgressFrames is the number of streamed EXPERIMENT-PROGRESS
	// frames received. Unlike the other counters it is also populated on
	// stream transports.
	ProgressFrames uint64
}

// retrier is the client-side reliability layer for datagram sessions:
// every in-flight request's plaintext envelope is kept until its
// response arrives, and re-sealed + retransmitted on an exponential
// backoff schedule. Re-sealing (rather than caching the sealed bytes)
// is load-bearing: a byte-identical resend would be swallowed by the
// server's securelink replay protection before the request ID could be
// matched against the dedup cache.
type retrier struct {
	c        *Client
	rto      time.Duration
	maxTries int

	mu      sync.Mutex
	entries map[uint64]*retryEntry
	wake    chan struct{}
	stopped bool

	retransmits atomic.Uint64
	timeouts    atomic.Uint64
}

type retryEntry struct {
	env     []byte // plaintext envelope id||flags||cum||msg
	tries   int
	next    time.Time
	ordered bool // scenario-ordered request: responses arrive in ID order
	skips   int  // ordered responses with higher IDs seen while pending
}

func newRetrier(c *Client) *retrier {
	return &retrier{
		c:        c,
		rto:      c.opt.retryTimeout(),
		maxTries: c.opt.maxRetries(),
		entries:  make(map[uint64]*retryEntry),
		wake:     make(chan struct{}, 1),
	}
}

// track registers an in-flight request for retransmission. ordered
// marks requests the server sequences (EXCHANGE/BATCH/ATTACK/BYE),
// which makes them eligible for skip-count fast retransmission.
func (r *retrier) track(id uint64, env []byte, ordered bool) {
	r.mu.Lock()
	if !r.stopped {
		r.entries[id] = &retryEntry{env: env, next: time.Now().Add(r.rto), ordered: ordered}
	}
	r.mu.Unlock()
	r.poke()
}

// ack drops a request whose response arrived.
func (r *retrier) ack(id uint64) {
	r.mu.Lock()
	delete(r.entries, id)
	r.mu.Unlock()
}

// touch resets a request's retry schedule: a streamed partial response
// proved the server holds the request and is executing it, so the full
// timer (and try budget) starts over from now.
func (r *retrier) touch(id uint64) {
	r.mu.Lock()
	if e, ok := r.entries[id]; ok {
		e.tries = 0
		e.next = time.Now().Add(r.rto)
	}
	r.mu.Unlock()
}

// observe records the arrival of a final response to an ordered request:
// every ordered request still pending with a smaller ID has provably had
// its response sent (ordered execution is in ID order), so its response
// datagram is in flight or lost. After fastRetransmitSkips such signals
// the request is re-sent immediately — selective repeat of exactly the
// lost ID, at round-trip rather than retry-timer latency.
func (r *retrier) observe(respID uint64) {
	var resend [][]byte
	r.mu.Lock()
	if !r.stopped {
		for id, e := range r.entries {
			if !e.ordered || id >= respID {
				continue
			}
			e.skips++
			if e.skips >= fastRetransmitSkips {
				e.skips = 0
				e.next = time.Now().Add(r.backoff(e.tries))
				resend = append(resend, e.env)
			}
		}
	}
	r.mu.Unlock()
	for _, env := range resend {
		r.retransmits.Add(1)
		r.c.resendEnvelope(env)
	}
}

// stop ends the retry loop; tracked entries are abandoned (their calls
// are failed by whoever is tearing the client down).
func (r *retrier) stop() {
	r.mu.Lock()
	r.stopped = true
	r.entries = map[uint64]*retryEntry{}
	r.mu.Unlock()
	r.poke()
}

func (r *retrier) poke() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// backoff returns the delay before try n's successor.
func (r *retrier) backoff(tries int) time.Duration {
	d := r.rto << uint(tries)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	return d
}

// run is the retransmit loop: wake at the earliest deadline, re-send
// everything due, expire anything out of tries.
func (r *retrier) run() {
	for {
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		var earliest time.Time
		for _, e := range r.entries {
			if earliest.IsZero() || e.next.Before(earliest) {
				earliest = e.next
			}
		}
		r.mu.Unlock()

		if earliest.IsZero() {
			// Nothing in flight: sleep until poked.
			<-r.wake
			continue
		}
		if d := time.Until(earliest); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-r.wake:
				timer.Stop()
				continue
			case <-timer.C:
			}
		}

		now := time.Now()
		var resend [][]byte
		var expired []uint64
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		for id, e := range r.entries {
			if e.next.After(now) {
				continue
			}
			e.tries++
			if e.tries > r.maxTries {
				expired = append(expired, id)
				delete(r.entries, id)
				continue
			}
			e.next = now.Add(r.backoff(e.tries))
			resend = append(resend, e.env)
		}
		r.mu.Unlock()

		for _, env := range resend {
			r.retransmits.Add(1)
			r.c.resendEnvelope(env)
		}
		for _, id := range expired {
			r.timeouts.Add(1)
			r.c.expireCall(id)
		}
	}
}

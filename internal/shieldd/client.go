package shieldd

import (
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"heartshield/internal/securelink"
	"heartshield/internal/stats"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// ErrClientClosed is returned for requests submitted after Close.
var ErrClientClosed = errors.New("shieldd: client closed")

// ErrServerBusy reports that the server shed a handshake or request
// under overload (a BUSY response) and the client exhausted its backoff
// schedule. Match with errors.Is.
var ErrServerBusy = errors.New("shieldd: server busy")

// ErrHandshakeTimeout reports a handshake that waited out its whole
// retry schedule (RetryTimeout, MaxRetries) without completing, on
// either transport. Match with errors.Is.
var ErrHandshakeTimeout = errors.New("shieldd: handshake timed out")

// ErrVersion reports a handshake refused over the wire protocol version:
// the server (or someone rewriting the HELLO in flight) saw a version
// other than wire.Version, or the server acked one. There is one
// version and nothing to fall back to. Match with errors.Is.
var ErrVersion = errors.New("shieldd: unsupported wire protocol version")

// busyError is one BUSY response, carrying the server's retry-after
// hint; it unwraps to ErrServerBusy.
type busyError struct{ retryAfter time.Duration }

func (e *busyError) Error() string {
	return fmt.Sprintf("shieldd: server busy (retry after %v)", e.retryAfter)
}

func (e *busyError) Unwrap() error { return ErrServerBusy }

// SessionOptions selects the simulated world a session runs in (the wire
// form of the public SimOptions, plus the batched multi-IMD count) and
// the client-side protocol behaviour.
type SessionOptions struct {
	// Seed determines every number the session produces; equal seeds and
	// request sequences give equal results on any server.
	Seed int64
	// Location (1-based, 1..18) places the adversary and eavesdropper;
	// 0 means location 1.
	Location int
	// HighPowerAdversary, FlatJam, DigitalCancel, Concerto mirror the
	// public SimOptions flags.
	HighPowerAdversary bool
	FlatJam            bool
	DigitalCancel      bool
	Concerto           bool
	// ExtraIMDs adds that many additional implants to the session's
	// medium; EXCHANGE frames address implants by index (0 = primary).
	ExtraIMDs int

	// AutoReconnect makes a dialed client transparently re-dial and
	// re-handshake when its connection has died (e.g. the server's idle
	// reaper closed it) and no requests are in flight. On datagram
	// sessions, exhausting a request's retransmissions also counts as a
	// dead session (the server reaped it without a FIN-equivalent), so
	// the next request re-handshakes. The new session derives fresh keys
	// from fresh nonces; the deterministic result stream restarts at the
	// session seed. Only effective for clients created with Dial or
	// DialUDP, or given a redial function (a pipe/NewClient client has
	// nothing to re-dial).
	AutoReconnect bool

	// RedialPacket supplies fresh packet transports for AutoReconnect on
	// datagram sessions created with NewPacketClient (DialUDP installs
	// its own). Each call must return a new local socket and the server
	// address to aim it at; the old socket is closed after the swap.
	RedialPacket func() (net.PacketConn, net.Addr, error)

	// RetryTimeout is the initial retransmission timeout (0 = 250ms);
	// each further retransmit of a request on a datagram session doubles
	// it up to a cap. The handshake waits out the same schedule on both
	// transports, re-sending its HELLO only on datagrams.
	RetryTimeout time.Duration
	// MaxRetries bounds retransmissions per request on datagram sessions
	// before the call fails with a timeout error, and the steps of the
	// handshake's wait schedule on both transports (0 = 8).
	MaxRetries int

	// Window bounds the client-side send window: how many requests may
	// be awaiting responses before Go blocks (0 = defaultSendWindow,
	// which matches the server's per-session in-flight window). Raising
	// it past the server's window buys nothing — the excess queues
	// server-side or, on datagram sessions, risks stalling the reorder
	// buffer; see DESIGN.md "Selective repeat & streaming experiments".
	Window int
}

func (o SessionOptions) hello(nonce [16]byte) *wire.Hello {
	h := &wire.Hello{
		Version:   wire.Version,
		Nonce:     nonce,
		Seed:      o.Seed,
		Location:  uint8(o.Location),
		ExtraIMDs: uint8(o.ExtraIMDs),
	}
	if o.HighPowerAdversary {
		h.Flags |= wire.FlagHighPowerAdversary
	}
	if o.FlatJam {
		h.Flags |= wire.FlagFlatJam
	}
	if o.DigitalCancel {
		h.Flags |= wire.FlagDigitalCancel
	}
	if o.Concerto {
		h.Flags |= wire.FlagConcerto
	}
	return h
}

// retryTimeout is RetryTimeout with its default applied.
func (o SessionOptions) retryTimeout() time.Duration {
	if o.RetryTimeout > 0 {
		return o.RetryTimeout
	}
	return defaultRetryTimeout
}

// maxRetries is MaxRetries with its default applied.
func (o SessionOptions) maxRetries() int {
	if o.MaxRetries > 0 {
		return o.MaxRetries
	}
	return defaultMaxRetries
}

// hsResult is one completed handshake: the session link and session ID,
// and the resumption state carried into the next reconnect.
type hsResult struct {
	link      *securelink.Link
	sessionID uint64
	ticket    []byte // fresh single-use ticket from the sealed ack
	rms       []byte // resumption secret the ticket will resume with
	resumed   bool   // this handshake resumed from a prior ticket
}

// resumeState carries the previous session's ticket and resumption
// secret into the next handshake.
type resumeState struct {
	ticket []byte
	rms    []byte
}

// clientAKE is the client half of a handshake in flight: the ephemeral
// key pair, the HELLO transcript, and the cached resumption secret when
// the HELLO offered a ticket.
type clientAKE struct {
	eph        *securelink.Ephemeral
	transcript []byte
	rms        []byte
}

// newClientAKE equips hello for the AKE (key share plus optional
// resumption ticket) and returns the state needed to complete it.
func newClientAKE(hello *wire.Hello, resume *resumeState) (*clientAKE, error) {
	eph, err := securelink.NewEphemeral()
	if err != nil {
		return nil, fmt.Errorf("shieldd: ephemeral key: %w", err)
	}
	a := &clientAKE{eph: eph}
	hello.KeyShare = eph.Public()
	if resume != nil && len(resume.ticket) > 0 && len(resume.rms) > 0 {
		hello.Ticket = resume.ticket
		a.rms = resume.rms
	}
	a.transcript = hello.TranscriptBytes()
	return a, nil
}

// complete mirrors the server's key schedule against its CHALLENGE2
// and returns the session link, the next resumption secret, and whether
// the server resumed from the offered ticket. Any tampering with the
// handshake messages desynchronizes the transcript here, so the sealed
// HELLO-ACK that follows fails to open.
func (a *clientAKE) complete(secret []byte, ch *wire.Challenge2) (link *securelink.Link, rms []byte, resumed bool, err error) {
	sched := securelink.NewHandshake(securelink.HandshakeLabelV4)
	sched.MixHash(a.transcript)
	sched.MixHash(ch.Encode())
	sched.MixKey(secret)
	if ch.Resumed {
		if a.rms == nil {
			return nil, nil, false, fmt.Errorf("shieldd: server resumed a session this client did not offer")
		}
		sched.MixKey(a.rms)
	} else {
		dh, derr := a.eph.Shared(ch.KeyShare)
		if derr != nil {
			return nil, nil, false, fmt.Errorf("shieldd: server key share: %w", derr)
		}
		sched.MixKey(dh)
	}
	if _, link, err = securelink.Pair(sched.SessionSecret()); err != nil {
		return nil, nil, false, err
	}
	return link, sched.ResumptionSecret(), ch.Resumed, nil
}

// Call is one in-flight request on a pipelined session. Wait on Done (or
// call Wait); then exactly one of Resp/Err is set.
type Call struct {
	Req  wire.Message
	Resp wire.Message
	Err  error
	// Done receives the call itself when the response (or a transport
	// failure) arrives. Buffered: the reader never blocks on it.
	Done chan *Call
	// OnProgress, when non-nil, receives streamed EXPERIMENT-PROGRESS
	// frames for this call. Called from the client's read loop — it must
	// not block and must not issue requests on the same client
	// synchronously.
	OnProgress func(*wire.ExperimentProgress)

	// release returns the call's send-window slot; installed at submit
	// time, run exactly once at finish.
	release     func()
	releaseOnce sync.Once
}

func (call *Call) finish(resp wire.Message, err error) {
	if call.release != nil {
		call.releaseOnce.Do(call.release)
	}
	call.Resp, call.Err = resp, err
	call.Done <- call
}

// Wait blocks until the call completes and returns its outcome.
func (call *Call) Wait() (wire.Message, error) {
	<-call.Done
	return call.Resp, call.Err
}

// Client is one end of a shieldd session: a pipelining multiplexer. Go
// submits a request without waiting, requests are matched to responses
// by request ID, and any number of goroutines may issue requests
// concurrently (the server bounds in-flight work per session; beyond
// that, transport backpressure applies).
type Client struct {
	opt    SessionOptions
	secret []byte
	// redial opens a fresh transport to the same server for
	// AutoReconnect — on datagrams a fresh local socket too, since the
	// old one may be poisoned or its server-side peer state reaped. Nil
	// when the client has nothing to re-dial.
	redial func() (transportConn, error)
	retry  *retrier // nil unless on a datagram transport

	// backoff is the deterministic jitter source for BUSY retry delays,
	// keyed off the session seed so overload behaviour replays exactly.
	backoffMu sync.Mutex
	backoff   *stats.RNG

	// window is the send-window semaphore: Go blocks acquiring a slot
	// before allocating a request ID, and the slot is released when the
	// call finishes. BYE bypasses it (Close must not deadlock behind a
	// full window).
	window chan struct{}

	// progressFrames counts streamed EXPERIMENT-PROGRESS frames received.
	progressFrames atomic.Uint64

	mu        sync.Mutex // guards tc/link swap, pending, nextID, err
	writeMu   sync.Mutex // serializes Seal+WriteFrame pairs
	reconnMu  sync.Mutex // serializes reconnect attempts (never held with mu)
	tc        transportConn
	link      *securelink.Link
	sessionID uint64
	// ticket and rms hold the resumption state from the latest
	// handshake; reconnect offers them so a reap-then-reconnect
	// completes in one round trip with forward-secret keys and no new
	// DH.
	ticket  []byte
	rms     []byte
	resumed bool   // the latest handshake resumed from a ticket
	resumes uint64 // total resumed handshakes over the client's life
	nextID  uint64
	pending map[uint64]*Call
	// ackCum is the highest request ID through which every response has
	// been delivered; ackAbove holds delivered response IDs above a gap.
	// Sent in every request envelope so the server can prune its dedup
	// ledger.
	ackCum   uint64
	ackAbove map[uint64]struct{}
	err      error // sticky transport error
	closed   bool
	closing  bool // Close in progress: the BYE must get the highest ID
	reconns  uint64
}

// sendWindow sizes the client's send-window semaphore.
func (o SessionOptions) sendWindow() int {
	if o.Window > 0 {
		return o.Window
	}
	return defaultSendWindow
}

// Dial opens a TCP session with a shieldd server.
func Dial(addr string, secret []byte, opt SessionOptions) (*Client, error) {
	return dial(func() (transportConn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &streamConn{c: conn}, nil
	}, secret, opt)
}

// DialUDP opens a datagram session with a shieldd server's UDP
// listener: a dedicated local UDP socket, the datagram handshake
// (with retransmits), and the client-side reliability layer.
func DialUDP(addr string, secret []byte, opt SessionOptions) (*Client, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return dial(func() (transportConn, error) {
		pc, err := net.ListenPacket("udp", ":0")
		if err != nil {
			return nil, err
		}
		return &packetTC{fc: dgram.NewConn(pc, raddr)}, nil
	}, secret, opt)
}

// dial opens a first transport with redial and runs the session
// handshake over it; redial stays installed for AutoReconnect.
func dial(redial func() (transportConn, error), secret []byte, opt SessionOptions) (*Client, error) {
	tc, err := redial()
	if err != nil {
		return nil, err
	}
	c, err := newClient(tc, secret, opt, redial)
	if err != nil {
		tc.close()
		return nil, err
	}
	return c, nil
}

// NewClient runs the session handshake over an established stream
// transport.
func NewClient(conn net.Conn, secret []byte, opt SessionOptions) (*Client, error) {
	return newClient(&streamConn{c: conn}, secret, opt, nil)
}

// NewPacketClient runs the session handshake over an established packet
// socket (UDP, or an in-process faultnet endpoint) against the server at
// peer. The client becomes the socket's sole reader, and every request
// is tracked by the retransmit layer: loss is retried transparently and
// surfaced in TransportStats rather than as errors, until MaxRetries is
// exhausted.
func NewPacketClient(pc net.PacketConn, peer net.Addr, secret []byte, opt SessionOptions) (*Client, error) {
	var redial func() (transportConn, error)
	if opt.RedialPacket != nil {
		redial = func() (transportConn, error) {
			pc, peer, err := opt.RedialPacket()
			if err != nil {
				return nil, err
			}
			return &packetTC{fc: dgram.NewConn(pc, peer)}, nil
		}
	}
	return newClient(&packetTC{fc: dgram.NewConn(pc, peer)}, secret, opt, redial)
}

// newClient runs the handshake over tc, then starts the session's read
// loop and, on an unreliable transport, its retransmit loop.
func newClient(tc transportConn, secret []byte, opt SessionOptions, redial func() (transportConn, error)) (*Client, error) {
	hs, err := handshake(tc, secret, opt, nil)
	if err != nil {
		return nil, err
	}
	c := &Client{
		opt:       opt,
		secret:    secret,
		redial:    redial,
		tc:        tc,
		link:      hs.link,
		sessionID: hs.sessionID,
		ticket:    hs.ticket,
		rms:       hs.rms,
		resumed:   hs.resumed,
		nextID:    1,
		pending:   make(map[uint64]*Call),
		ackAbove:  make(map[uint64]struct{}),
		window:    make(chan struct{}, opt.sendWindow()),
		backoff:   stats.NewRNG(stats.DeriveSeed(opt.Seed, "client-busy-backoff")),
	}
	if tc.unreliable() {
		c.retry = newRetrier(c)
		go c.retry.run()
	}
	go c.readLoop(tc, hs.link)
	return c, nil
}

// handshake is the client's one handshake state machine, shared by both
// transports: HELLO → CHALLENGE2 → sealed HELLO-ACK, offering resume's
// ticket when given. On datagrams the first HELLO carries no cookie, so
// the server's stateless admission gate answers it with one; echoing it
// back proves this client receives at its claimed source address, and
// only then does the server commit any handshake state. BUSY refusals
// are honored with deterministic seeded jittered exponential backoff.
//
// One wait schedule runs on both transports: step k waits
// RetryTimeout<<k (capped at 8×) for MaxRetries+1 steps, and a handshake
// that outlives it fails with ErrHandshakeTimeout. An unreliable
// transport re-sends the HELLO at every step and drops whatever fails to
// decode or open (a duplicate CHALLENGE2 is byte-identical, so it just
// re-derives the same keys); a reliable one sends it once and fails on
// the first bad frame.
func handshake(tc transportConn, secret []byte, opt SessionOptions, resume *resumeState) (hsResult, error) {
	var zero hsResult
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return zero, fmt.Errorf("shieldd: nonce: %w", err)
	}
	hello := opt.hello(nonce)
	ake, err := newClientAKE(hello, resume)
	if err != nil {
		return zero, err
	}
	lossy := tc.unreliable()
	rto, tries := opt.retryTimeout(), opt.maxRetries()
	// Escalate the wait per step, capped at 8× the base timeout:
	// handshake datagrams are tiny and a pending server handshake
	// answers every retransmit immediately, so aggressive escalation only
	// turns an unlucky loss stretch into seconds of stall.
	wait := func(step int) time.Duration { return rto << uint(min(step, 3)) }
	backoff := stats.NewRNG(stats.DeriveSeed(opt.Seed, "client-handshake-backoff"))
	busies := 0

	var link *securelink.Link
	var rms []byte
	var resumed bool
	for step := 0; step <= tries; step++ {
		if step == 0 || lossy {
			if err := tc.writeHandshake(hello.Encode()); err != nil {
				return zero, err
			}
		}
		deadline := time.Now().Add(wait(step))
		if !lossy {
			// Nothing is re-sent, so the rest of the schedule is one
			// deadline: re-arming it could fire mid-frame and
			// desynchronize the stream.
			for step++; step <= tries; step++ {
				deadline = deadline.Add(wait(step))
			}
		}
		_ = tc.setReadDeadline(deadline)
		for {
			payload, hs, err := tc.readFrame()
			if err != nil {
				if isTimeout(err) {
					break
				}
				return zero, fmt.Errorf("shieldd: handshake read: %w", err)
			}
			if hs {
				msg, derr := wire.Decode(payload)
				switch m := msg.(type) {
				case *wire.Error:
					if m.Code == wire.CodeVersion {
						return zero, fmt.Errorf("%w: %s", ErrVersion, m.Msg)
					}
					return zero, m
				case *wire.Cookie:
					// The stateless admission gate's round trip: echo the
					// cookie and resend immediately, at no step's cost —
					// the gate answers every cookie-less HELLO, so the
					// reply races only loss. The cookie is outside the
					// transcript (Hello.TranscriptBytes), so attaching it
					// does not desynchronize the AKE already offered.
					hello.Cookie = m.Cookie
					if err := tc.writeHandshake(hello.Encode()); err != nil {
						return zero, err
					}
				case *wire.Busy:
					// Overloaded server: honor its retry-after hint with
					// seeded jittered exponential backoff, then resend.
					// Refusals are bounded like retransmits, surfacing
					// ErrServerBusy when the schedule is exhausted.
					if busies++; busies > tries {
						return zero, fmt.Errorf("%w: handshake refused %d times", ErrServerBusy, busies)
					}
					d := time.Duration(m.RetryAfterMillis) * time.Millisecond
					if d <= 0 {
						d = rto
					}
					if d <<= uint(busies - 1); d > maxRetryBackoff || d <= 0 {
						d = maxRetryBackoff
					}
					d += time.Duration(backoff.Int63() % int64(d/2+1))
					time.Sleep(d)
					if err := tc.writeHandshake(hello.Encode()); err != nil {
						return zero, err
					}
					_ = tc.setReadDeadline(time.Now().Add(wait(step)))
				case *wire.Challenge2:
					if link, rms, resumed, err = ake.complete(secret, m); err != nil {
						return zero, err
					}
					armLink(link, tc)
				default:
					// Undecodable or out of place: noise on a lossy
					// transport, a broken handshake on a reliable one.
					if !lossy {
						return zero, fmt.Errorf("shieldd: unexpected handshake reply %T (%v)", msg, derr)
					}
				}
				continue
			}
			// A sealed frame must be the HELLO-ACK under the derived keys;
			// anything else is stale or corrupt (dropped when lossy).
			var ack *wire.HelloAck
			if link != nil {
				if plain, err := link.Open(payload); err == nil {
					m, _ := wire.Decode(plain)
					ack, _ = m.(*wire.HelloAck)
				}
			}
			if ack == nil {
				if lossy {
					continue
				}
				return zero, errors.New("shieldd: handshake: no valid sealed HELLO-ACK")
			}
			if ack.Version != wire.Version {
				return zero, fmt.Errorf("%w: server acked v%d", ErrVersion, ack.Version)
			}
			_ = tc.setReadDeadline(time.Time{})
			return hsResult{link: link, sessionID: ack.SessionID,
				ticket: ack.Ticket, rms: rms, resumed: resumed}, nil
		}
	}
	return zero, fmt.Errorf("%w after %d attempts", ErrHandshakeTimeout, tries+1)
}

// isTimeout reports a deadline-style error.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded)
}

// SessionID returns the server-assigned session identifier (of the most
// recent handshake, if the client has auto-reconnected).
func (c *Client) SessionID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionID
}

// Reconnects returns how many times the client has transparently
// re-dialed and re-handshaked.
func (c *Client) Reconnects() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconns
}

// Resumed reports whether the most recent handshake resumed from a
// ticket (one round trip, no fresh DH) rather than running the full AKE.
func (c *Client) Resumed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumed
}

// Resumes returns how many of the client's handshakes were ticket
// resumptions.
func (c *Client) Resumes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumes
}

// readLoop is the demultiplexer: the sole reader of the transport,
// matching responses to pending calls by request ID. It exits when the
// transport dies, failing every pending call. On an unreliable
// transport, frames that fail to open or decode are dropped datagrams
// (duplicated responses die on the securelink window, corruption dies
// on the GCM tag) — only a transport-level read error is fatal.
//
// EnvPartial frames (streamed EXPERIMENT-PROGRESS) go to the call's
// OnProgress callback without completing the call, refreshing its
// retransmit schedule — the partial proves the server is alive and
// working — and final ordered responses feed the retrier's
// fast-retransmit detector.
func (c *Client) readLoop(tc transportConn, link *securelink.Link) {
	for {
		raw, hs, err := tc.readFrame()
		if err != nil {
			c.fail(tc, err)
			return
		}
		if hs {
			continue // late challenge retransmit after an established session
		}
		plain, err := link.Open(raw)
		var (
			id    uint64
			flags uint8
			msg   wire.Message
		)
		if err == nil {
			id, flags, _, msg, err = wire.DecodeEnvelopeV3(plain)
		}
		if err != nil {
			if tc.unreliable() {
				continue
			}
			c.fail(tc, err)
			return
		}
		if flags&wire.EnvPartial != 0 {
			// Streamed progress: the request is still executing. Do not
			// complete the call or advance the delivery cursor.
			c.progressFrames.Add(1)
			if c.retry != nil {
				c.retry.touch(id)
			}
			c.mu.Lock()
			call := c.pending[id]
			c.mu.Unlock()
			if call != nil && call.OnProgress != nil {
				if p, ok := msg.(*wire.ExperimentProgress); ok {
					call.OnProgress(p)
				}
			}
			continue
		}
		c.mu.Lock()
		call := c.pending[id]
		delete(c.pending, id)
		c.recordDelivered(id)
		c.mu.Unlock()
		if c.retry != nil {
			c.retry.ack(id)
			if call != nil && orderedKind(call.Req.Kind()) {
				// A final ordered response: ordered responses arrive in
				// ID order, so any ordered request still pending below
				// this ID has lost a datagram — count the skip toward
				// fast retransmit.
				c.retry.observe(id)
			}
		}
		if call == nil {
			continue // response to an abandoned or unknown id
		}
		switch m := msg.(type) {
		case *wire.Error:
			call.finish(nil, m)
		case *wire.Busy:
			// The server shed this request under overload; roundTrip
			// retries it with a fresh ID after a jittered backoff.
			call.finish(nil, &busyError{retryAfter: time.Duration(m.RetryAfterMillis) * time.Millisecond})
		default:
			call.finish(msg, nil)
		}
	}
}

// recordDelivered advances the cumulative-delivery cursor over a freshly
// delivered response ID. Callers hold c.mu. The cursor rides in every
// request envelope, letting the server prune its dedup ledger.
func (c *Client) recordDelivered(id uint64) {
	if id <= c.ackCum {
		return
	}
	if id != c.ackCum+1 {
		c.ackAbove[id] = struct{}{}
		return
	}
	c.ackCum++
	for {
		if _, ok := c.ackAbove[c.ackCum+1]; !ok {
			return
		}
		delete(c.ackAbove, c.ackCum+1)
		c.ackCum++
	}
}

// fail poisons the client (until a reconnect) and fails every pending
// call. Only the readLoop for the current transport may poison; a stale
// loop's error is ignored.
func (c *Client) fail(tc transportConn, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tc != tc {
		return
	}
	if c.err == nil {
		c.err = err
	}
	for id, call := range c.pending {
		delete(c.pending, id)
		if c.retry != nil {
			c.retry.ack(id)
		}
		call.finish(nil, fmt.Errorf("shieldd: session lost: %w", err))
	}
}

// resendEnvelope re-seals and re-sends a tracked request's plaintext
// envelope — the retrier's transmit path. Each retransmission claims a
// fresh securelink sequence number: a byte-identical resend would be
// replay-dropped by the server before the request ID could be examined.
// Send errors are ignored; the retry schedule (and eventual expiry)
// owns failure.
func (c *Client) resendEnvelope(env []byte) {
	c.mu.Lock()
	if c.closed || c.err != nil {
		c.mu.Unlock()
		return
	}
	tc, link := c.tc, c.link
	c.mu.Unlock()
	c.writeMu.Lock()
	_ = tc.writeFrame(link.Seal(env))
	c.writeMu.Unlock()
}

// expireCall fails a request whose retransmissions are exhausted. With
// AutoReconnect, exhaustion also poisons the session: the full retry
// schedule spans many seconds of silence, which on a datagram transport
// is the only observable signature of a server that reaped the session
// (there is no FIN), so the next request re-handshakes instead of
// feeding more retransmits to a dead peer table.
func (c *Client) expireCall(id uint64) {
	c.mu.Lock()
	call := c.pending[id]
	delete(c.pending, id)
	tc := c.tc
	c.mu.Unlock()
	if call == nil {
		return
	}
	err := fmt.Errorf("shieldd: request %d timed out after %d retransmits", id, c.retry.maxTries)
	call.finish(nil, err)
	if c.opt.AutoReconnect {
		c.fail(tc, err)
	}
}

// TransportStats reports the client-side transport counters: how many
// request datagrams were re-sent, how many requests gave up entirely
// (both always zero on stream transports), and how many streamed
// progress frames arrived. This is where the "silent" retries of Ping,
// Status, and every other call become observable.
func (c *Client) TransportStats() TransportStats {
	ts := TransportStats{ProgressFrames: c.progressFrames.Load()}
	if c.retry != nil {
		ts.Retransmits = c.retry.retransmits.Load()
		ts.Timeouts = c.retry.timeouts.Load()
	}
	return ts
}

// reconnect re-dials and re-handshakes after a transport failure.
// Requires: no pending calls (their responses died with the old
// session), a redial function, and AutoReconnect. The dial and
// handshake run WITHOUT holding c.mu — a slow or dead network must not
// freeze getters or other callers — and reconnMu serializes concurrent
// attempts so only one handshake ever runs at a time.
func (c *Client) reconnect() error {
	c.reconnMu.Lock()
	defer c.reconnMu.Unlock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	if c.err == nil {
		c.mu.Unlock()
		return nil // a concurrent attempt already restored the session
	}
	if !c.opt.AutoReconnect || c.redial == nil || len(c.pending) > 0 {
		err := c.err
		c.mu.Unlock()
		return err
	}
	// Offer the dead session's resumption ticket: after an idle reap the
	// new handshake completes in one round trip on resumed forward-secret
	// keys instead of a fresh DH. A refused or expired ticket silently
	// falls back to the full AKE.
	var resume *resumeState
	if len(c.ticket) > 0 && len(c.rms) > 0 {
		resume = &resumeState{ticket: c.ticket, rms: c.rms}
	}
	c.mu.Unlock()

	// While c.err != nil every new request routes here and queues on
	// reconnMu, so no one mutates tc/link/pending behind our back.
	tc, err := c.redial()
	if err != nil {
		return fmt.Errorf("shieldd: reconnect: %w", err)
	}
	hs, err := handshake(tc, c.secret, c.opt, resume)
	if err != nil {
		tc.close()
		return fmt.Errorf("shieldd: reconnect: %w", err)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		tc.close()
		return ErrClientClosed
	}
	old := c.tc
	c.tc, c.link, c.sessionID = tc, hs.link, hs.sessionID
	c.ticket, c.rms = hs.ticket, hs.rms
	c.resumed = hs.resumed
	if hs.resumed {
		c.resumes++
	}
	// The new session is a fresh request-ID space: the server's
	// resequencer cursor and dedup ledger start empty, so ID allocation
	// and the delivery cursor restart with them.
	c.nextID = 1
	c.ackCum = 0
	c.ackAbove = make(map[uint64]struct{})
	c.err = nil
	c.reconns++
	c.mu.Unlock()
	old.close()
	go c.readLoop(tc, hs.link)
	return nil
}

// Go submits a request and returns immediately with the in-flight Call.
// Requests pipeline: many calls may be outstanding and the server may
// complete non-scenario requests (PING, STATUS, METRICS, EXPERIMENT) out
// of order; scenario requests complete in submission order. Go blocks
// while the client-side send window (SessionOptions.Window) is full.
func (c *Client) Go(req wire.Message) *Call {
	call := &Call{Req: req, Done: make(chan *Call, 1)}
	c.submit(call)
	return call
}

// submit runs Go's body for a prepared Call (Req and any OnProgress
// set). Split out so ExperimentStream can attach its progress callback
// before the request is on the wire.
func (c *Client) submit(call *Call) *Call {
	req := call.Req

	// Claim a send-window slot before allocating an ID, so request IDs
	// hit the wire densely and in order — the server's reorder buffer is
	// sized to the same window, and a sparser ID stream would
	// let the client overrun it. BYE bypasses the window: Close must be
	// able to end a session whose window is full of stuck calls.
	if _, isBye := req.(*wire.Bye); !isBye {
		c.window <- struct{}{}
		call.release = func() { <-c.window }
	}

	c.mu.Lock()
	if c.closed || (c.closing && call.release != nil) {
		c.mu.Unlock()
		call.finish(nil, ErrClientClosed)
		return call
	}
	if c.err != nil {
		c.mu.Unlock()
		if err := c.reconnect(); err != nil {
			call.finish(nil, fmt.Errorf("shieldd: session lost: %w", err))
			return call
		}
		c.mu.Lock()
		if c.closed || c.err != nil {
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrClientClosed
			}
			call.finish(nil, fmt.Errorf("shieldd: session lost: %w", err))
			return call
		}
	}
	c.mu.Unlock()

	// Submit, with one transparent retry through reconnect: if the
	// write itself hits a connection the server already closed (the
	// idle reaper racing this request), the frame never reached the
	// server, so re-dialing and re-sending is safe and is exactly what
	// AutoReconnect promises. Without AutoReconnect the reconnect
	// attempt fails immediately and the call fails as before.
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if c.closed || c.err != nil {
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrClientClosed
			}
			call.finish(nil, fmt.Errorf("shieldd: session lost: %w", err))
			return call
		}
		tc, link := c.tc, c.link
		id := c.nextID
		c.nextID++
		c.pending[id] = call
		cum := c.ackCum
		c.mu.Unlock()

		// The cumulative-delivery cursor rides in every request so the
		// server can prune its dedup ledger. Retransmits reuse the
		// envelope verbatim — a stale cursor only delays pruning.
		env := wire.EncodeEnvelopeV3(id, 0, cum, req)
		// Seal+write as one unit so frames hit the transport in seq order.
		c.writeMu.Lock()
		err := tc.writeFrame(link.Seal(env))
		c.writeMu.Unlock()
		if c.retry != nil {
			// Datagram transport: keep the plaintext envelope for
			// retransmission until the response acks it. A send error on
			// an unreliable transport is just a dropped datagram (real
			// UDP sockets return transient ENOBUFS-style errors under
			// bursts) — the retry schedule re-sends it, and if the socket
			// is truly dead the retries exhaust into a timeout. Only a
			// closed socket poisons the session, via the readLoop.
			c.retry.track(id, env, orderedKind(req.Kind()))
			return call
		}
		if err == nil {
			return call
		}
		c.mu.Lock()
		_, still := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if !still {
			return call // readLoop already failed it
		}
		c.fail(tc, err)
		// fail() skipped this call (already deregistered); retry once.
		if attempt == 0 && c.reconnect() == nil {
			continue
		}
		call.finish(nil, err)
		return call
	}
}

// roundTrip submits a request and waits for its response. A BUSY-shed
// request is transparently retried with a fresh request ID after a
// deterministic jittered backoff honoring the server's retry-after
// hint; the retry budget reuses MaxRetries. A fresh ID is load-bearing:
// on datagram transports the shed response is dedup-cached under the
// old ID, so re-sending it verbatim could only ever replay the BUSY.
func (c *Client) roundTrip(req wire.Message) (wire.Message, error) {
	tries := c.opt.maxRetries()
	for attempt := 0; ; attempt++ {
		m, err := c.Go(req).Wait()
		if err == nil || attempt >= tries || !errors.Is(err, ErrServerBusy) {
			return m, err
		}
		time.Sleep(c.busyBackoff(err, attempt))
	}
}

// busyBackoff returns the wait before retrying a BUSY-shed operation:
// the server's retry-after hint (falling back to the retry timeout),
// doubled per consecutive refusal and capped, plus up to 50% jitter
// from the seed-keyed source — a herd of shed clients spreads out
// instead of retrying in lockstep, yet each client's schedule replays
// exactly per seed.
func (c *Client) busyBackoff(err error, attempt int) time.Duration {
	base := c.opt.retryTimeout()
	var be *busyError
	if errors.As(err, &be) && be.retryAfter > 0 {
		base = be.retryAfter
	}
	d := base << uint(attempt)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	c.backoffMu.Lock()
	j := time.Duration(c.backoff.Int63() % int64(d/2+1))
	c.backoffMu.Unlock()
	return d + j
}

// Exchange runs one protected exchange against IMD index imdIdx with the
// given command kind (wire.CmdInterrogate or wire.CmdSetTherapy).
func (c *Client) Exchange(imdIdx int, cmd uint8) (*wire.ExchangeResp, error) {
	m, err := c.roundTrip(&wire.ExchangeReq{IMD: uint8(imdIdx), Cmd: cmd})
	if err != nil {
		return nil, err
	}
	resp, ok := m.(*wire.ExchangeResp)
	if !ok {
		return nil, fmt.Errorf("shieldd: unexpected response %T", m)
	}
	return resp, nil
}

// BatchExchange runs up to wire.MaxBatch protected exchanges in one
// sealed round trip, amortizing sealing and framing; results arrive in
// item order and are identical to the same items sent as individual
// Exchange calls.
func (c *Client) BatchExchange(items []wire.ExchangeItem) ([]wire.ExchangeResp, error) {
	m, err := c.roundTrip(&wire.BatchReq{Items: items})
	if err != nil {
		return nil, err
	}
	resp, ok := m.(*wire.BatchResp)
	if !ok {
		return nil, fmt.Errorf("shieldd: unexpected response %T", m)
	}
	if len(resp.Results) != len(items) {
		return nil, fmt.Errorf("shieldd: batch returned %d results for %d items", len(resp.Results), len(items))
	}
	return resp.Results, nil
}

// Attack runs one unauthorized-command trial.
func (c *Client) Attack(cmd uint8, shieldOn bool) (*wire.AttackResp, error) {
	m, err := c.roundTrip(&wire.AttackReq{Cmd: cmd, ShieldOn: shieldOn})
	if err != nil {
		return nil, err
	}
	resp, ok := m.(*wire.AttackResp)
	if !ok {
		return nil, fmt.Errorf("shieldd: unexpected response %T", m)
	}
	return resp, nil
}

// Experiment runs a registry experiment server-side and returns its
// rendered table/figure.
func (c *Client) Experiment(req wire.ExperimentReq) (string, error) {
	return c.ExperimentStream(req, nil)
}

// ExperimentStream runs a registry experiment server-side, invoking
// onProgress for each streamed EXPERIMENT-PROGRESS frame while it runs,
// and returns the rendered table/figure. onProgress runs on the client's
// read loop: it must be fast and must not call back into
// the client synchronously. A BUSY-shed request is retried like every
// other call; progress restarts from zero on the retry.
func (c *Client) ExperimentStream(req wire.ExperimentReq, onProgress func(*wire.ExperimentProgress)) (string, error) {
	tries := c.opt.maxRetries()
	for attempt := 0; ; attempt++ {
		call := &Call{Req: &req, Done: make(chan *Call, 1), OnProgress: onProgress}
		m, err := c.submit(call).Wait()
		if err != nil {
			if attempt < tries && errors.Is(err, ErrServerBusy) {
				time.Sleep(c.busyBackoff(err, attempt))
				continue
			}
			return "", err
		}
		resp, ok := m.(*wire.ExperimentResp)
		if !ok {
			return "", fmt.Errorf("shieldd: unexpected response %T", m)
		}
		return resp.Rendered, nil
	}
}

// Status returns the server's counters.
func (c *Client) Status() (*wire.StatusResp, error) {
	m, err := c.roundTrip(&wire.StatusReq{})
	if err != nil {
		return nil, err
	}
	resp, ok := m.(*wire.StatusResp)
	if !ok {
		return nil, fmt.Errorf("shieldd: unexpected response %T", m)
	}
	return resp, nil
}

// Ping sends a keepalive probe and verifies the echoed token. The
// server answers from its reader fast path, ahead of any
// queued scenario work, so Ping also resets the idle-reap clock while
// long requests run.
func (c *Client) Ping() error {
	c.mu.Lock()
	token := c.nextID ^ 0x70696E67 // any value; uniqueness is not required
	c.mu.Unlock()
	m, err := c.roundTrip(&wire.Ping{Token: token})
	if err != nil {
		return err
	}
	pong, ok := m.(*wire.Pong)
	if !ok {
		return fmt.Errorf("shieldd: unexpected response %T", m)
	}
	if pong.Token != token {
		return fmt.Errorf("shieldd: pong token %#x does not match ping %#x", pong.Token, token)
	}
	return nil
}

// LinkStats snapshots the client side of the securelink channel: sealed
// and opened frame/byte counts, rekeys, and drops. Useful for measuring
// protocol overhead (the batched-exchange benchmarks report wire bytes
// per exchange from it).
func (c *Client) LinkStats() securelink.Stats {
	c.mu.Lock()
	link := c.link
	c.mu.Unlock()
	return link.Stats()
}

// Metrics returns the session's STATUS-METRICS snapshot.
func (c *Client) Metrics() (*wire.MetricsResp, error) {
	m, err := c.roundTrip(&wire.MetricsReq{})
	if err != nil {
		return nil, err
	}
	resp, ok := m.(*wire.MetricsResp)
	if !ok {
		return nil, fmt.Errorf("shieldd: unexpected response %T", m)
	}
	return resp, nil
}

// Close ends the session with a BYE and closes the transport. The server
// drains every in-flight request before answering the BYE, so pending
// calls complete rather than die. The BYE is sequenced after every
// earlier request, so Close refuses new submissions from the moment it
// runs — the BYE must hold the session's highest request ID, or the
// server would discard requests above it.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closing = true
	alive := c.err == nil
	c.mu.Unlock()
	if alive {
		if c.retry != nil {
			// Datagram transport: the BYE is best-effort. Give it a couple
			// of retransmit windows, then close regardless — a lost BYE
			// must not hold Close hostage to the full retry schedule (the
			// server's idle reaper collects sessions whose BYE died).
			call := c.Go(&wire.Bye{})
			timer := time.NewTimer(4 * c.retry.rto)
			select {
			case <-call.Done:
			case <-timer.C:
			}
			timer.Stop()
		} else {
			_, _ = c.roundTrip(&wire.Bye{})
		}
	}
	if c.retry != nil {
		c.retry.stop()
	}
	c.mu.Lock()
	c.closed = true
	tc := c.tc
	c.mu.Unlock()
	return tc.close()
}

// Pipe starts an in-process session against the server over a net.Pipe
// and returns the connected client — the zero-network transport for
// tests, benchmarks, and embedding.
func (s *Server) Pipe(opt SessionOptions) (*Client, error) {
	cEnd, sEnd := net.Pipe()
	go s.ServeConn(sEnd)
	c, err := NewClient(cEnd, s.cfg.Secret, opt)
	if err != nil {
		cEnd.Close()
		return nil, err
	}
	return c, nil
}

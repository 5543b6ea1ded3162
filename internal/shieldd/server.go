// Package shieldd is the concurrent shield session server: a long-lived
// daemon that owns a pool of recycled testbed scenarios (one per active
// session that runs physics) and serves the securelink-sealed wire
// protocol of internal/wire over two transport families — streams (TCP
// from cmd/shieldd, or an in-process net.Pipe for tests and embedded
// use) and datagrams (UDP via ServePacket, or any net.PacketConn such as
// the internal/faultnet impairment network), where loss, duplication,
// and reordering are handled by client retransmission, the securelink
// receive window, and server-side request deduplication.
//
// Every session owns an independent testbed.World: its own medium,
// devices, random streams, calibrated shield and standard adversaries,
// all derived from the session seed and options the client announces in
// HELLO — the same World the in-process Simulation builds for them. The
// world is built on the session's first physics request, so a session
// that only pings, scrapes metrics or runs experiments never builds
// one. The scenario pool makes worlds cheap (recycling is an RNG
// re-derivation, not a rebuild) without making sessions observable to
// each other: a session's EavesdropperBER/CancellationDB stream depends
// only on its seed and request sequence, never on which pooled scenario
// served it, when its world was built, which goroutine ran it, or what
// the server did before — the same determinism contract as the parallel
// experiment runner, extended to a network service.
//
// One protocol is served, wire.Version; a HELLO announcing any other
// version is refused with a plaintext CodeVersion error. Both transports
// share one handshake state machine (serveTransport) and one session
// loop (serveSession): every sealed frame carries a request ID, the
// client pipelines requests, and the server completes them out of order
// under a bounded in-flight window. Scenario-mutating requests
// (EXCHANGE, BATCH-EXCHANGE, ATTACK) are executed strictly in
// request-ID order by a per-session executor — that is what keeps the
// deterministic (seed, request sequence) → results contract intact under
// pipelining and datagram loss — while PING, STATUS-METRICS, and
// EXPERIMENT requests complete independently and may overtake them;
// EXPERIMENT requests stream incremental EXPERIMENT-PROGRESS frames
// while they run. See DESIGN.md "Selective repeat & streaming
// experiments".
package shieldd

import (
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"heartshield/internal/experiments"
	"heartshield/internal/imd"
	"heartshield/internal/metrics"
	"heartshield/internal/securelink"
	"heartshield/internal/shieldcore"
	"heartshield/internal/testbed"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// Session-link hardening parameters (both ends must agree; the client in
// this package uses the same constants).
const (
	// sessionRekeyEvery ratchets each direction's AEAD key every this many
	// messages, so a long-lived session link never exhausts one key.
	sessionRekeyEvery = 512
	// sessionWindow is the securelink receive window of every session:
	// large enough to absorb the reordering datagram retransmits cause,
	// far below the 63-position cap. Streams deliver in order, so it is
	// never hit there.
	sessionWindow = 32
	// maxHelloFrame bounds a plaintext handshake frame on a stream (a
	// HELLO is ~50 bytes plus a 32-byte key share and an optional
	// ~100-byte resumption ticket); an unauthenticated peer cannot make
	// the server allocate a larger buffer.
	maxHelloFrame = 512
	// handshakeTimeout bounds how long an unauthenticated connection may
	// hold a goroutine before sending its HELLO.
	handshakeTimeout = 10 * time.Second
	// cookieRotateEvery is the handshake-cookie secret rotation interval:
	// a minted cookie stays valid for one to two intervals (current +
	// previous epoch), long enough for any sane handshake retry schedule,
	// short enough that a harvested cookie is not a durable capability.
	cookieRotateEvery = 30 * time.Second
	// defaultBusyRetryAfter is the retry-after hint carried in BUSY
	// responses when the config does not set one.
	defaultBusyRetryAfter = 250 * time.Millisecond
	// ticketLifetime bounds resumption tickets: long enough to resume
	// after an idle reap, short enough that a ticket is not a durable
	// capability. The ticket sealing key rotates on the same period, so
	// any unexpired ticket is at most one rotation old and still opens.
	ticketLifetime = 5 * time.Minute
	// poolPerShape bounds the idle scenarios the pool retains per
	// scenario shape (and, times four, in total).
	poolPerShape = 16
)

// ServerConfig configures a session server.
type ServerConfig struct {
	// Secret is the provisioned master pairing secret; per-session keys
	// are derived from it and the client's HELLO nonce. Required.
	Secret []byte
	// MaxSessions bounds concurrently active sessions; what happens to
	// further handshakes is AdmissionWait's choice (by default they queue
	// until a slot frees). Default 64.
	MaxSessions int
	// ExperimentWorkers caps the Workers value of EXPERIMENT frames (the
	// deterministic per-point fan-out inside one experiment). Default 1.
	ExperimentWorkers int
	// MaxExtraIMDs caps the batched multi-IMD size a client may request.
	// Default 8.
	MaxExtraIMDs int
	// IdleTimeout, when positive, reaps sessions with no traffic and no
	// in-flight work for this long: the connection is closed and the
	// session's scenario, if it ran physics, returns to the pool. Clients
	// can hold a session open with PING keepalives and reconnect with a
	// fresh handshake after a reap. Zero disables reaping.
	IdleTimeout time.Duration

	// AdmissionWait selects what happens to a handshake when every
	// session slot is taken. Zero (the default) preserves the historical
	// behaviour: the handshake queues until a slot frees. Negative sheds
	// immediately with a BUSY response. Positive waits up to that long
	// for a slot before shedding.
	AdmissionWait time.Duration
	// HandshakeRate, when positive, rate-limits datagram handshakes per
	// source address to this many per second (with HandshakeBurst burst
	// capacity). Only cookie-verified addresses are metered, so the
	// limiter state cannot be grown by spoofed traffic. Zero disables
	// per-peer rate limiting.
	HandshakeRate float64
	// HandshakeBurst is the per-peer token-bucket burst capacity.
	// Default 4 (when HandshakeRate is set).
	HandshakeBurst int
	// MaxInFlightGlobal, when positive, bounds scenario-mutating and
	// experiment work in flight across ALL sessions; over-budget
	// requests are answered BUSY instead of queueing. Zero means
	// unlimited (per-session windows still apply).
	MaxInFlightGlobal int
	// BusyRetryAfter is the retry-after hint carried in BUSY responses.
	// Default 250ms.
	BusyRetryAfter time.Duration
}

// Server is a concurrent shield session server.
type Server struct {
	cfg  ServerConfig
	pool *scenarioPool
	sem  chan struct{}
	// gsem, when non-nil, bounds scenario/experiment work in flight
	// across all sessions (MaxInFlightGlobal); acquisition is always
	// non-blocking — over-budget work is shed with BUSY, never queued.
	gsem chan struct{}
	// cookies mints and verifies the stateless handshake cookies that
	// gate datagram session state: no goroutine, key derivation, or peer
	// registration happens for a source address that has not echoed a
	// cookie, so a spoofed-source HELLO flood costs the server one HMAC
	// and one small reply datagram per packet and zero state.
	cookies *securelink.CookieSource
	// tickets mints and redeems the single-use resumption tickets: a
	// resumption secret sealed under a rotating server key, handed out in
	// every HELLO-ACK and redeemable once for a one-round-trip reconnect.
	tickets *securelink.TicketSource
	// hsLimiter, when non-nil, rate-limits cookie-verified handshakes
	// per source address.
	hsLimiter *rateLimiter
	// dl is the most recent ServePacket listener, for peer-table
	// introspection (DatagramPeers).
	dl atomic.Pointer[dgram.Listener]

	nextSession atomic.Uint64
	met         metrics.Server
	// reg tracks live sessions' counters so Metrics() can aggregate
	// in-flight gauges without waiting for sessions to end; the sweep is
	// atomic loads under a read lock, allocation-free at any scale.
	reg *metrics.Registry
}

// NewServer builds a server from the config, applying defaults.
func NewServer(cfg ServerConfig) (*Server, error) {
	if len(cfg.Secret) == 0 {
		return nil, fmt.Errorf("shieldd: ServerConfig.Secret is required")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.ExperimentWorkers <= 0 {
		cfg.ExperimentWorkers = 1
	}
	if cfg.MaxExtraIMDs <= 0 {
		cfg.MaxExtraIMDs = 8
	}
	if cfg.BusyRetryAfter <= 0 {
		cfg.BusyRetryAfter = defaultBusyRetryAfter
	}
	if cfg.HandshakeBurst <= 0 {
		cfg.HandshakeBurst = 4
	}
	cookies, err := securelink.NewCookieSource(cookieRotateEvery)
	if err != nil {
		return nil, fmt.Errorf("shieldd: %w", err)
	}
	tickets, err := securelink.NewTicketSource(ticketLifetime, ticketLifetime)
	if err != nil {
		return nil, fmt.Errorf("shieldd: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		pool:    newScenarioPool(poolPerShape),
		sem:     make(chan struct{}, cfg.MaxSessions),
		cookies: cookies,
		tickets: tickets,
		reg:     metrics.NewRegistry(),
	}
	if cfg.MaxInFlightGlobal > 0 {
		s.gsem = make(chan struct{}, cfg.MaxInFlightGlobal)
	}
	if cfg.HandshakeRate > 0 {
		s.hsLimiter = newRateLimiter(cfg.HandshakeRate, cfg.HandshakeBurst)
	}
	return s, nil
}

// retryAfterMillis is the wire form of the BUSY retry-after hint.
func (s *Server) retryAfterMillis() uint32 {
	return uint32(s.cfg.BusyRetryAfter / time.Millisecond)
}

// admitSession takes a session slot under the AdmissionWait policy:
// block (zero), shed immediately (negative), or wait-then-shed
// (positive). It reports whether a slot was taken.
func (s *Server) admitSession() bool {
	switch {
	case s.cfg.AdmissionWait == 0:
		s.sem <- struct{}{}
		return true
	case s.cfg.AdmissionWait < 0:
		select {
		case s.sem <- struct{}{}:
			return true
		default:
			return false
		}
	default:
		select {
		case s.sem <- struct{}{}:
			return true
		default:
		}
		t := time.NewTimer(s.cfg.AdmissionWait)
		defer t.Stop()
		select {
		case s.sem <- struct{}{}:
			return true
		case <-t.C:
			return false
		}
	}
}

// acquireWork takes a slot of the global in-flight budget; it never
// blocks — over-budget work is shed, not queued. Always true when
// MaxInFlightGlobal is unset.
func (s *Server) acquireWork() bool {
	if s.gsem == nil {
		return true
	}
	select {
	case s.gsem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) releaseWork() {
	if s.gsem != nil {
		<-s.gsem
	}
}

// shedRequest counts one in-session request answered BUSY.
func (s *Server) shedRequest(sess *session) *wire.Busy {
	sess.met.Shed.Add(1)
	s.met.ShedRequests.Add(1)
	return &wire.Busy{RetryAfterMillis: s.retryAfterMillis()}
}

// Serve accepts connections until the listener is closed, running one
// session per connection. It returns the listener's Accept error.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

// srvHandshake is the server side of one handshake: the encoded
// CHALLENGE2 to send the client, the derived session link, and the fresh
// resumption ticket to embed in the sealed ack.
type srvHandshake struct {
	challenge []byte
	link      *securelink.Link
	ticket    []byte
}

// deriveSessionLink runs the key agreement for one HELLO: a
// transcript-bound HKDF schedule over the HELLO and CHALLENGE2 bytes,
// mixing the master PSK with either the X25519 ephemeral-ephemeral
// shared secret or, when the HELLO carries a redeemable ticket, the
// previous session's resumption secret (skipping the DH for a
// one-round-trip reconnect). A fresh single-use ticket bound to addr is
// minted for every handshake.
//
// A nil link with a non-empty refuse means the HELLO is malformed and
// should be refused in plaintext; a nil link with an empty refuse is an
// internal failure (exhausted entropy) and the connection just drops.
func (s *Server) deriveSessionLink(hello *wire.Hello, addr string) (hs srvHandshake, refuse string) {
	var challenge wire.Challenge2
	if _, err := rand.Read(challenge.ServerNonce[:]); err != nil {
		return srvHandshake{}, ""
	}
	// A presented ticket is redeemed (consumed) even when the handshake
	// later fails — single use means single attempt. An expired or
	// replayed ticket silently falls back to the full AKE; the client
	// learns which path ran from Challenge2.Resumed.
	var rms []byte
	if len(hello.Ticket) > 0 {
		rms, _ = s.tickets.Redeem(hello.Ticket)
	}
	secret := rms
	if rms != nil {
		challenge.Resumed = true
	} else {
		if len(hello.KeyShare) != securelink.KeyShareLen {
			return srvHandshake{}, "HELLO requires an X25519 key share"
		}
		eph, err := securelink.NewEphemeral()
		if err != nil {
			return srvHandshake{}, ""
		}
		challenge.KeyShare = eph.Public()
		if secret, err = eph.Shared(hello.KeyShare); err != nil {
			return srvHandshake{}, "invalid X25519 key share"
		}
	}
	enc := challenge.Encode()
	session, resumption := securelink.KeySchedule(s.cfg.Secret, hello.TranscriptBytes(), enc, secret)
	link, _, err := securelink.Pair(session)
	if err != nil {
		return srvHandshake{}, ""
	}
	// A mint failure only costs the client its next resumption.
	ticket, _ := s.tickets.Mint(resumption, addr)
	return srvHandshake{challenge: enc, link: link, ticket: ticket}, ""
}

// ServeConn runs one session on an established stream transport (TCP
// connection or one end of a net.Pipe) and blocks until the session
// ends. The connection is always closed on return.
func (s *Server) ServeConn(conn net.Conn) {
	s.serveTransport(&streamConn{c: conn}, conn.RemoteAddr().String())
}

// ServePacket serves datagram sessions from a packet socket (UDP, or an
// in-process faultnet endpoint) until the socket is closed: one session
// per remote address, each beginning with a plaintext HELLO datagram
// that passed handshakeGate. It returns the socket's read error.
func (s *Server) ServePacket(pc net.PacketConn) error {
	l := dgram.Listen(pc, s.handshakeGate)
	s.dl.Store(l)
	defer l.Close()
	for {
		peer, err := l.Accept()
		if err != nil {
			return err
		}
		go s.serveTransport(&packetTC{fc: peer}, peer.RemoteAddr().String())
	}
}

// DatagramPeers reports the number of registered datagram peers on the
// most recent ServePacket listener (zero when none is running) — the
// per-address session state a handshake flood would have to grow, and
// therefore the quantity the chaos tests pin at zero for cookie-less
// floods.
func (s *Server) DatagramPeers() int {
	if l := s.dl.Load(); l != nil {
		return l.PeerCount()
	}
	return 0
}

// decodeHello returns payload as a HELLO, or nil if it is anything else.
func decodeHello(payload []byte) *wire.Hello {
	msg, err := wire.Decode(payload)
	if err != nil {
		return nil
	}
	hello, _ := msg.(*wire.Hello)
	return hello
}

// handshakeGate is the stateless admission gate consulted by the
// datagram listener for every handshake datagram from an unknown source
// address, BEFORE any per-peer state exists. The full ladder:
//
//  1. the datagram must decode as a HELLO (anything else is dropped
//     silently — no reflection surface for garbage);
//  2. the HELLO must prove its address (proveAddress); an unproven one
//     is answered with a freshly minted cookie and NOT admitted — the
//     stateless round trip that proves the peer can receive at its
//     claimed source address;
//  3. a proven HELLO passes the per-peer rate limiter (only proven
//     addresses allocate limiter entries) — over-rate peers are dropped
//     silently, they already hold the proof to retry with;
//  4. finally, under a shedding admission policy, a HELLO that would
//     only queue behind a full session table is refused with a
//     plaintext BUSY carrying the retry-after hint.
//
// The gate does not look at the version byte: a verified HELLO of any
// other version is refused by serveTransport, so the refusal, like every
// other reply beyond a cookie, only ever goes to a verified address.
// Every reply is at most a few dozen bytes to a HELLO-shaped datagram
// (and for BUSY, a proven source), so the gate amplifies nothing and
// commits no state: the cost of a spoofed flood is one HMAC per packet.
func (s *Server) handshakeGate(addr net.Addr, payload []byte) (accept bool, reply []byte) {
	hello := decodeHello(payload)
	if hello == nil {
		return false, nil
	}
	if proven, cookie := s.proveAddress(addr.String(), hello); !proven {
		return false, cookie
	}
	if s.hsLimiter != nil && !s.hsLimiter.allow(addr.String()) {
		s.met.RateLimited.Add(1)
		return false, nil
	}
	if s.cfg.AdmissionWait != 0 && len(s.sem) == cap(s.sem) {
		s.met.ShedHandshakes.Add(1)
		return false, (&wire.Busy{RetryAfterMillis: s.retryAfterMillis()}).Encode()
	}
	return true, nil
}

// proveAddress is the one proof of address a datagram HELLO must give
// before it may commit state at its source address, or end the handshake
// or session registered there (handshakeGate, strayHello). A HELLO that
// echoes a cookie is proven when the cookie verifies for (addr, nonce);
// a cookie-less one by a resumption ticket issued to exactly addr —
// proof of a prior completed handshake from the address, so resumption
// stays one round trip (Peek consumes nothing; the handshake redeems).
// Anything else is counted and gets the encoded COOKIE to answer with:
// a legitimate client recovers in one round trip, an off-path spoofer
// never sees it.
func (s *Server) proveAddress(addr string, h *wire.Hello) (proven bool, cookie []byte) {
	switch {
	case len(h.Cookie) > 0:
		if s.cookies.Verify(addr, h.Nonce[:], h.Cookie) {
			return true, nil
		}
		s.met.CookieRejects.Add(1)
	case len(h.Ticket) > 0 && s.tickets.Peek(h.Ticket, addr):
		return true, nil
	}
	s.met.CookiesSent.Add(1)
	return false, (&wire.Cookie{Cookie: s.cookies.Mint(addr, h.Nonce[:])}).Encode()
}

// strayHello applies the one rule for a handshake frame that reaches
// the registered peer of addr — a pending handshake or an established
// session — whose client instance sent nonce. A HELLO with that nonce is
// the instance's own retransmit. A foreign nonce is a new client
// instance on the address (the old one died with its handshake in
// flight, or its BYE lost): it ends the handshake or session only when
// proveAddress accepts it, and an unproven one is answered with a
// cookie. The newcomer's next retransmit then reaches handshakeGate.
func (s *Server) strayHello(tc transportConn, addr string, nonce [16]byte, payload []byte) (retransmit, newcomer bool) {
	h := decodeHello(payload)
	if h == nil || h.Nonce == nonce {
		return h != nil, false
	}
	proven, cookie := s.proveAddress(addr, h)
	if !proven {
		_ = tc.writeHandshake(cookie)
	}
	return false, proven
}

// serveTransport is the server's one handshake state machine, shared by
// both transports. It runs one session on tc and blocks until it ends,
// closing tc on return:
//
//	HELLO → CHALLENGE2 + sealed HELLO-ACK → the first sealed frame that
//	opens commits a session slot → serveSession.
//
// The session keeps the HELLO's scenario options, not a scenario: its
// world is built by the executor on its first physics request, inside
// the work budget that request holds (Server.world), and teardown
// returns the scenario to the pool only if the session took one.
//
// The transport decides two things. Framing: readFrame marks plaintext
// handshake frames — a stream by position (its first frame), a datagram
// by kind byte. Retry: on an unreliable transport a frame that fails to
// decode or open is dropped instead of ending the handshake, and a later
// HELLO follows strayHello's rule, the same one an established session
// follows: a retransmit (same client nonce) is answered with the
// byte-identical CHALLENGE2 — it entered the transcript — plus a
// re-sealed ack, and the pending handshake steps aside for a foreign
// nonce only when it proves its address, so the newcomer's next
// retransmit starts fresh instead of stalling until the deadline.
//
// Pre-authentication hardening: the peer has proven nothing until its
// first sealed frame opens, so it gets a deadline (and on a stream a
// tiny plaintext frame budget) and can commit neither a session slot nor
// a scenario. A datagram peer only gets here after its HELLO passed
// handshakeGate, so a spoofed-source flood never starts a handshake.
func (s *Server) serveTransport(tc transportConn, addr string) {
	defer tc.close()
	_ = tc.setReadDeadline(time.Now().Add(handshakeTimeout))
	lossy := tc.unreliable()
	refuse := func(code uint8, msg string) {
		_ = tc.writeHandshake((&wire.Error{Code: code, Msg: msg}).Encode())
	}

	var hello *wire.Hello
	for hello == nil {
		payload, hs, err := tc.readFrame()
		if err != nil {
			return
		}
		if hs {
			hello = decodeHello(payload)
		}
		if hello == nil && !lossy {
			return
		}
	}
	// One protocol: there is nothing to negotiate down to.
	if hello.Version != wire.Version {
		refuse(wire.CodeVersion, fmt.Sprintf("wire protocol v%d not supported (server speaks v%d)", hello.Version, wire.Version))
		return
	}
	opt, err := s.scenarioOptions(hello)
	if err != nil {
		refuse(wire.CodeBadRequest, err.Error())
		return
	}
	// The session keys bind a fresh server nonce and ephemeral DH
	// alongside the client's, so a recorded session's sealed frames can
	// never open in a new one: per-message replay protection extends to
	// whole-session replay.
	hs, why := s.deriveSessionLink(hello, addr)
	if hs.link == nil {
		if why != "" {
			refuse(wire.CodeBadRequest, why)
		}
		return
	}
	link := armLink(hs.link)
	id := s.nextSession.Add(1)
	ack := &wire.HelloAck{Version: wire.Version, SessionID: id, Ticket: hs.ticket}
	// Every (re)send re-seals the ack: the client's receive window
	// accepts whichever copy lands first and replay-drops the rest.
	sendChallenge := func() bool {
		return tc.writeHandshake(hs.challenge) == nil && tc.writeFrame(link.Seal(ack.Encode())) == nil
	}
	if !sendChallenge() {
		return
	}

	var plain []byte
	for plain == nil {
		payload, hsFrame, err := tc.readFrame()
		if err != nil {
			return
		}
		if hsFrame {
			retransmit, newcomer := s.strayHello(tc, addr, hello.Nonce, payload)
			if newcomer || retransmit && !sendChallenge() {
				return
			}
			continue
		}
		if plain, err = link.Open(payload); err != nil && !lossy {
			return
		}
	}

	// Authenticated: the ID handed out in the ack only becomes a counted
	// session here. Under the default AdmissionWait=0 policy admission
	// blocks until a session slot frees; shedding policies answer the
	// first request with a sealed BUSY bound to its ID, so the client's
	// pending call fails fast. (On datagrams the gate already refuses
	// HELLOs while the table is full; this catches the table filling
	// between gate and commit.)
	if !s.admitSession() {
		s.met.ShedHandshakes.Add(1)
		if reqID, _, _, err := decodeReqEnvelope(plain); err == nil {
			busy := &wire.Busy{RetryAfterMillis: s.retryAfterMillis()}
			_ = tc.writeFrame(link.Seal(encodeRespEnvelope(envelope{id: reqID, msg: busy}, 0)))
		}
		return
	}
	s.met.TotalSessions.Add(1)
	defer func() { <-s.sem }()
	s.met.ActiveSessions.Add(1)
	defer s.met.ActiveSessions.Add(-1)

	sess := &session{id: id, link: link, addr: addr, nonce: hello.Nonce, opt: opt}
	s.reg.Register(id, &sess.met)
	defer s.reg.Unregister(id)
	// serveSession returns only after the writer has drained the
	// executor's last response, so the world the executor built (if any)
	// is visible here.
	defer func() {
		if sess.world != nil {
			s.pool.put(sess.world.Scenario)
		}
	}()
	defer s.absorbLinkStats(link)
	// Lift the handshake deadline: experiments may run for minutes.
	_ = tc.setReadDeadline(time.Time{})
	s.serveSession(tc, sess, plain)
}

// absorbLinkStats adds a finished session's link counters to the
// server counters of the same name.
func (s *Server) absorbLinkStats(link *securelink.Link) {
	st := link.Stats()
	metrics.Each(&st, "", s.met.Add)
}

// startReaper watches a session for idleness: when busy() is false and
// no frame has arrived for idle, it closes the transport (waking the
// blocked reader; the session defers return its scenario, if it took
// one, to the pool) and counts the reap. A ticker-based watcher —
// deliberately not a read deadline, which could fire mid-frame and
// desynchronize the framing. The returned stop function must be called
// at session end.
func (s *Server) startReaper(tc transportConn, lastActivity *atomic.Int64, busy func() bool) (stop func()) {
	if s.cfg.IdleTimeout <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		// A quarter of the timeout, floored so any positive timeout
		// gives time.NewTicker a positive interval.
		tick := time.NewTicker(max(s.cfg.IdleTimeout/4, time.Millisecond))
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				idleFor := time.Duration(time.Now().UnixNano() - lastActivity.Load())
				if !busy() && idleFor >= s.cfg.IdleTimeout {
					// Close before counting: whoever sees the reap counted
					// also finds the transport closed, so a stream client's
					// next frame does not race the close.
					tc.close()
					s.met.ReapedSessions.Add(1)
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// envelope pairs a request ID with the message that answers (or asks)
// it, plus the frame roles: partial marks a streamed non-final response
// (EnvPartial on the wire, never recorded in the ledger), and last
// marks the final frame of the session (the BYE response) — after
// flushing it the writer closes the transport to wake the reader into
// teardown.
type envelope struct {
	id      uint64
	msg     wire.Message
	partial bool
	last    bool
}

// decodeReqEnvelope parses a request envelope; cum is the client's
// cumulative-progress report. A client-sent partial flag is malformed.
func decodeReqEnvelope(plain []byte) (id, cum uint64, m wire.Message, err error) {
	id, flags, cum, m, err := wire.DecodeEnvelopeV3(plain)
	if err == nil && flags != 0 {
		return id, cum, nil, wire.ErrInvalid
	}
	return id, cum, m, err
}

// encodeRespEnvelope serializes a response envelope; cum is the
// server's cumulative-progress report.
func encodeRespEnvelope(e envelope, cum uint64) []byte {
	var flags uint8
	if e.partial {
		flags = wire.EnvPartial
	}
	return wire.EncodeEnvelopeV3(e.id, flags, cum, e.msg)
}

// serveSession is the multiplexed session loop. Three roles share the
// transport:
//
//   - this goroutine (the reader) owns link.Open, classifies requests,
//     and enforces the in-flight window;
//   - a per-session executor goroutine runs scenario-mutating requests
//     one at a time in request-ID order (the session ledger restores ID
//     order under datagram loss and reordering, which is what makes
//     pipelined submission deterministic);
//   - a writer goroutine owns link.Seal and transport writes, so
//     responses from the executor, experiment goroutines, and the
//     reader's own fast-path replies interleave safely.
//
// A request's slot in the window is released only after its response
// has been handed to the writer, so once the reader can claim every slot
// the session is quiescent and the channels can be torn down safely.
//
// The session ledger (ledger.go) makes execution exactly-once and in
// order over an at-least-once network, on every transport:
//
//   - request IDs pass the ledger before they take a window slot: a
//     retransmitted (or reused) ID that is still executing is dropped,
//     and one that already completed is answered again from its recorded
//     response without touching the scenario — re-execution would fork
//     the deterministic per-seed result stream — so no duplicate can
//     ever wedge the reader;
//   - ordered requests (EXCHANGE, BATCH, ATTACK, BYE) reach the executor
//     only as the ledger's cursor passes them, so an op that arrives
//     above a lost datagram waits in its entry instead of executing
//     early;
//   - every response envelope carries the server's cumulative-progress
//     report, and the client's report prunes the ledger's cache;
//   - EXPERIMENT requests stream EnvPartial EXPERIMENT-PROGRESS frames
//     while they run; partials are never recorded, so the final answer
//     still completes the request.
//
// A securelink Open failure is a dropped datagram on an unreliable
// transport (loss, duplication, and reordering are normal there) and a
// compromise that ends the session on a stream.
//
// BYE is sequenced like any ordered op: the executor answers it only
// after every lower ID has executed, drains the rest of the window, and
// marks the response `last` — the writer flushes it, then closes the
// transport to steer the reader into teardown.
func (s *Server) serveSession(tc transportConn, sess *session, firstPlain []byte) {
	link := sess.link
	window := requestWindow
	slots := make(chan struct{}, window) // filled = in flight
	exec := make(chan envelope, window)  // scenario ops, execution order
	out := make(chan envelope, window+1) // responses to the writer
	writerDone := make(chan struct{})
	l := newLedger()
	// dying closes when no further frame can ever be sent (the final BYE
	// response was flushed, or the transport broke): the reader stops
	// waiting for window slots — which may be held hostage by requests
	// waiting on a gap that can now never be filled — and falls through
	// to its read error.
	dying := make(chan struct{})
	var dyingOnce sync.Once
	die := func() { dyingOnce.Do(func() { close(dying) }) }
	// stopExec tells the executor the session is tearing down: discard
	// the requests waiting on a gap (releasing their window slots) and
	// drain exec without executing.
	stopExec := make(chan struct{})
	// leave returns one finished request's window slot.
	leave := func() {
		sess.met.LeaveFlight()
		<-slots
	}

	// Writer: sole owner of link.Seal and transport writes. On a write
	// error it closes the transport (waking the reader) and keeps
	// draining so no producer ever blocks forever. It records every
	// final response in the ledger before sending, so a retransmitted
	// request can be re-answered; partial frames are never recorded (a
	// cached partial would block the final answer forever).
	go func() {
		defer close(writerDone)
		broken := false
		for e := range out {
			if broken {
				if e.last {
					die()
				}
				continue
			}
			if !e.partial {
				l.complete(e.id, e.msg)
			}
			if err := tc.writeFrame(link.Seal(encodeRespEnvelope(e, l.cum()))); err != nil {
				broken = true
				tc.close()
				die()
				continue
			}
			if e.partial {
				sess.met.ProgressFrames.Add(1)
				s.met.TotalProgressFrames.Add(1)
			}
			if e.last {
				// The BYE response is flushed: the session is over. Close
				// the transport so the reader's blocking read returns.
				tc.close()
				die()
			}
		}
	}()

	// Executor: scenario-mutating requests one at a time, in the order
	// the ledger released them onto exec. Every envelope on exec except the
	// BYE holds one slot of the global work budget, released as soon as
	// the scenario work is done.
	go func() {
		discard := false
		stop := stopExec
		dropBuffered := func() {
			for range l.discard() {
				leave()
			}
		}
		for {
			select {
			case <-stop:
				stop = nil
				discard = true
				dropBuffered()
			case e, ok := <-exec:
				if !ok {
					return
				}
				if _, isBye := e.msg.(*wire.Bye); isBye {
					// Ordered ops below the BYE have all executed (it was
					// sequenced); anything buffered above it never will.
					dropBuffered()
					if discard {
						leave()
						continue
					}
					// Drain every other in-flight request (experiments,
					// fast-path replies) so the BYE response is provably
					// the last frame of the session, then hand the window
					// back for the reader's teardown quiesce. The drain
					// yields to stopExec: if the transport dies mid-drain
					// the reader's quiesce competes for the same window,
					// and the answer would go nowhere anyway.
					held, stopped := 1, false
					for held < window && !stopped {
						select {
						case slots <- struct{}{}:
							held++
						case <-stop:
							stopped = true
						}
					}
					if !stopped {
						out <- envelope{id: e.id, msg: &wire.Bye{}, last: true}
					}
					sess.met.LeaveFlight()
					for i := 0; i < held; i++ {
						<-slots
					}
					if stopped {
						stop = nil
					}
					discard = true
					continue
				}
				if discard {
					s.releaseWork()
					leave()
					continue
				}
				resp := s.dispatchScenario(sess, e.msg)
				s.releaseWork()
				out <- envelope{id: e.id, msg: resp}
				leave()
			}
		}
	}()

	// takeSlot claims a window slot for a fresh request, giving up if the
	// session is dying (slots may then never free again).
	takeSlot := func() bool {
		select {
		case slots <- struct{}{}:
			return true
		case <-dying:
			return false
		}
	}

	// respond enqueues a response and releases the caller's window slot.
	respond := func(id uint64, m wire.Message) {
		if _, isErr := m.(*wire.Error); isErr {
			sess.met.Errors.Add(1)
		}
		out <- envelope{id: id, msg: m}
		leave()
	}

	// sequence hands released ordered requests to the executor. Global
	// load shedding happens at release time — a request waiting on a gap
	// must not sit on server-wide work budget while it waits. A
	// well-behaved client gives BYE its highest ID; anything released
	// after it came from a misbehaving peer and is dropped unanswered (its
	// slot must not survive the executor's window drain).
	byeSeen := false
	sequence := func(rel []envelope) {
		for _, e := range rel {
			_, isBye := e.msg.(*wire.Bye)
			switch {
			case byeSeen:
				leave()
			case isBye:
				exec <- e
				byeSeen = true
			case !s.acquireWork():
				respond(e.id, s.shedRequest(sess))
			default:
				exec <- e // the executor releases the slot and work budget
			}
		}
	}

	// answer responds to a request the reader serves itself. Its ID
	// enters the ledger before the response reaches the writer, which
	// records the response in the ID's entry.
	answer := func(id uint64, m wire.Message) {
		rel := l.skip(id)
		respond(id, m)
		sequence(rel)
	}

	// claim admits a request ID through the ledger; false means a
	// duplicate, dropped — or, if it already completed, re-answered from
	// its recorded response — without taking a window slot.
	claim := func(id uint64) bool {
		fresh, cached := l.admit(id)
		if cached != nil {
			sess.met.Retransmits.Add(1)
			s.met.TotalRetransmits.Add(1)
			out <- envelope{id: id, msg: cached}
		}
		return fresh
	}

	// Idle reaper: "busy" means a request holds a window slot for live
	// work — long experiments and deep pipelines are never reaped
	// mid-work. Slots held by requests waiting on a gap do NOT count: a
	// client that died with a gap outstanding leaves them held forever,
	// and the session must still be reapable.
	var lastActivity atomic.Int64
	lastActivity.Store(time.Now().UnixNano())
	defer s.startReaper(tc, &lastActivity, func() bool { return len(slots) > l.waiting() })()

	// handle classifies one authenticated plaintext.
	handle := func(plain []byte) {
		id, cum, req, err := decodeReqEnvelope(plain)
		if err != nil {
			// Authentic but malformed: answer and keep the session. An
			// envelope too short to carry an ID is answered as ID 0; a
			// real ID must still be claimed and move the ledger's cursor,
			// or every later ordered op would wait on it forever.
			if id != 0 && !claim(id) || !takeSlot() {
				return
			}
			sess.met.EnterFlight()
			malformed := &wire.Error{Code: wire.CodeBadRequest, Msg: "malformed request"}
			if id == 0 {
				respond(id, malformed)
			} else {
				answer(id, malformed)
			}
			return
		}
		l.prune(cum)
		// Once the session's BYE is sequenced nothing fresh may enter the
		// window while the executor drains it.
		if !claim(id) || byeSeen || !takeSlot() {
			return
		}
		sess.met.EnterFlight()
		switch m := req.(type) {
		case *wire.ExchangeReq, *wire.BatchReq, *wire.AttackReq, *wire.Bye:
			sequence(l.submit(id, req))
		case *wire.ExperimentReq:
			if m.Trials > wire.MaxExperimentTrials {
				answer(id, &wire.Error{Code: wire.CodeBadRequest,
					Msg: fmt.Sprintf("experiment trials %d exceed the limit of %d", m.Trials, wire.MaxExperimentTrials)})
				return
			}
			rel := l.skip(id)
			if s.acquireWork() {
				sess.met.Experiments.Add(1)
				emit := func(p *wire.ExperimentProgress) {
					out <- envelope{id: id, msg: p, partial: true}
				}
				go func() {
					defer s.releaseWork()
					respond(id, s.handleExperiment(m, emit))
				}()
			} else {
				respond(id, s.shedRequest(sess))
			}
			sequence(rel)
		case *wire.Ping:
			sess.met.Pings.Add(1)
			s.met.TotalPings.Add(1)
			answer(id, &wire.Pong{Token: m.Token})
		case *wire.MetricsReq:
			answer(id, s.handleMetrics(sess))
		default:
			answer(id, &wire.Error{Code: wire.CodeBadRequest, Msg: "unexpected request"})
		}
	}

	// shutdown stops the executor (discarding waiting requests), waits
	// until every in-flight request has enqueued its response — the
	// reader then owns the whole window — and flushes the writer.
	shutdown := func() {
		close(stopExec)
		for i := 0; i < window; i++ {
			slots <- struct{}{}
		}
		close(exec)
		close(out)
		<-writerDone
	}

	handle(firstPlain)
	for {
		raw, hs, err := tc.readFrame()
		if err != nil {
			shutdown()
			return
		}
		if hs {
			// A handshake datagram straggling into an established session
			// is usually a late HELLO retransmit of this session: ignore
			// it, unless it proves a new client instance on this address.
			if _, newcomer := s.strayHello(tc, sess.addr, sess.nonce, raw); newcomer {
				shutdown()
				return
			}
			continue
		}
		plain, err := link.Open(raw)
		if err != nil {
			if tc.unreliable() {
				continue // normal datagram loss, visible in link.Stats()
			}
			shutdown()
			return
		}
		// Only a frame that opens is activity: the client's address is
		// spoofable, so anything else must not hold the session open.
		lastActivity.Store(time.Now().UnixNano())
		handle(plain)
		lastActivity.Store(time.Now().UnixNano())
	}
}

// scenarioOptions validates a HELLO and maps it onto normalized testbed
// options.
func (s *Server) scenarioOptions(h *wire.Hello) (testbed.Options, error) {
	var opt testbed.Options
	if int(h.ExtraIMDs) > s.cfg.MaxExtraIMDs {
		return opt, fmt.Errorf("extra IMDs %d exceeds server limit %d", h.ExtraIMDs, s.cfg.MaxExtraIMDs)
	}
	if int(h.Location) > len(testbed.Locations) {
		return opt, fmt.Errorf("location %d out of range", h.Location)
	}
	opt.Seed = h.Seed
	opt.Location = int(h.Location)
	opt.ExtraIMDs = int(h.ExtraIMDs)
	if h.Flags&wire.FlagHighPowerAdversary != 0 {
		opt.AdversaryPowerDBm = testbed.HighPowerAdvDBm
	}
	if h.Flags&wire.FlagFlatJam != 0 {
		opt.Shape = shieldcore.FlatJam
	}
	if h.Flags&wire.FlagDigitalCancel != 0 {
		opt.DigitalCancel = true
	}
	if h.Flags&wire.FlagConcerto != 0 {
		opt.Profile = imd.ConcertoCRT
	}
	return opt.Normalized(), nil
}

// session is one active session: its link and counters, the normalized
// scenario options its HELLO announced, and, once it runs physics, its
// testbed.World (the calibrated scenario and adversaries its seed and
// options determine — the world the public Simulation builds for the
// same seed). met and link are safe for concurrent use.
type session struct {
	id   uint64
	link *securelink.Link
	met  metrics.Session
	// addr and nonce identify the client instance that opened the
	// session: a handshake frame straggling into it is judged against
	// them (strayHello).
	addr  string
	nonce [16]byte
	// opt is the world's shape and seed, and what requests' implant
	// indices are checked against before anything is built.
	opt testbed.Options
	// world stays nil until Server.world builds it. Only the session's
	// executor reaches it while the session runs; teardown reads it after
	// serveSession has drained the executor.
	world *testbed.World
}

// implants is the number of implants the session's world holds (or will).
func (sess *session) implants() int { return 1 + sess.opt.ExtraIMDs }

// world returns the session's world, building it on first use from a
// pooled scenario reset to the session's seed (or a fresh build).
// Only the executor calls it, for a request that passed validation and
// holds the work budget, so refused and shed requests build nothing. A
// world is a pure function of (seed, options) and nothing draws from it
// before its first scenario request, so when it is built moves no result.
func (s *Server) world(sess *session) *testbed.World {
	if sess.world == nil {
		sess.world = testbed.NewWorld(s.pool.get(sess.opt))
	}
	return sess.world
}

// dispatchScenario executes one scenario-mutating request on the
// session's executor. Only EXCHANGE, BATCH-EXCHANGE, and ATTACK reach it;
// the first one that passes validation builds the session's world.
func (s *Server) dispatchScenario(sess *session, req wire.Message) wire.Message {
	var resp wire.Message
	switch m := req.(type) {
	case *wire.ExchangeReq:
		resp = s.handleExchange(sess, m)
	case *wire.BatchReq:
		resp = s.handleBatch(sess, m)
	case *wire.AttackReq:
		resp = s.handleAttack(sess, m)
	default:
		resp = &wire.Error{Code: wire.CodeInternal, Msg: "non-scenario request on executor"}
	}
	if _, isErr := resp.(*wire.Error); isErr {
		sess.met.Errors.Add(1)
	}
	return resp
}

// runExchange executes one protected exchange against IMD index idx on
// the session's world — the per-seed result stream of the public
// Simulation, over the wire.
func (s *Server) runExchange(sess *session, idx int, cmdKind uint8) (wire.ExchangeResp, error) {
	out, err := s.world(sess).Exchange(idx, cmdKind == wire.CmdSetTherapy)
	if err != nil {
		return wire.ExchangeResp{}, err
	}
	s.met.TotalExchanges.Add(1)
	return wire.ExchangeResp{
		Response:        out.Response.Payload,
		ResponseCommand: out.Response.Command.String(),
		EavesBER:        out.EavesdropperBER,
		CancellationDB:  out.CancellationDB,
	}, nil
}

// handleExchange runs one protected exchange.
func (s *Server) handleExchange(sess *session, m *wire.ExchangeReq) wire.Message {
	idx := int(m.IMD)
	if idx >= sess.implants() {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("IMD index %d out of range", idx)}
	}
	resp, err := s.runExchange(sess, idx, m.Cmd)
	if err != nil {
		return &wire.Error{Code: wire.CodeExchangeFailed, Msg: err.Error()}
	}
	sess.met.Exchanges.Add(1)
	return &resp
}

// handleBatch runs a BATCH-EXCHANGE: every item is validated up front (a
// bad index refuses the whole batch before any scenario mutation), then
// the items run in order against the session scenario — the identical
// result stream to the same items sent as individual EXCHANGE frames.
func (s *Server) handleBatch(sess *session, m *wire.BatchReq) wire.Message {
	if len(m.Items) == 0 {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "empty batch"}
	}
	if len(m.Items) > wire.MaxBatch {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "batch exceeds MaxBatch"}
	}
	for i, it := range m.Items {
		if int(it.IMD) >= sess.implants() {
			return &wire.Error{Code: wire.CodeBadRequest,
				Msg: fmt.Sprintf("item %d: IMD index %d out of range", i, it.IMD)}
		}
	}
	results := make([]wire.ExchangeResp, len(m.Items))
	for i, it := range m.Items {
		resp, err := s.runExchange(sess, int(it.IMD), it.Cmd)
		if err != nil {
			return &wire.Error{Code: wire.CodeExchangeFailed,
				Msg: fmt.Sprintf("item %d: %v", i, err)}
		}
		results[i] = resp
	}
	sess.met.Batches.Add(1)
	sess.met.BatchedExchanges.Add(uint64(len(m.Items)))
	s.met.TotalBatches.Add(1)
	return &wire.BatchResp{Results: results}
}

// handleAttack runs one unauthorized-command trial on the session's
// world (the Simulation.Attack sequence).
func (s *Server) handleAttack(sess *session, m *wire.AttackReq) wire.Message {
	out := s.world(sess).Attack(m.Cmd == wire.CmdSetTherapy, m.ShieldOn)
	sess.met.Attacks.Add(1)
	s.met.TotalAttacks.Add(1)
	return &wire.AttackResp{
		IMDResponded:     out.Responded,
		TherapyChanged:   out.TherapyChanged,
		ShieldJammed:     out.Jammed,
		Alarmed:          out.Alarmed,
		AdversaryRSSIDBm: out.RSSIAtShieldDBm,
	}
}

// progressChunk is the trial-count granularity of streamed
// EXPERIMENT-PROGRESS frames. Emission is count-based (every chunk of
// completed trials plus the final trial), so the NUMBER of progress
// frames an experiment produces is a pure function of its trial count —
// deterministic across runs even though the parallel runner completes
// trials in nondeterministic order.
const progressChunk = 64

// handleExperiment runs a registry experiment server-side with the
// deterministic worker fan-out bounded by the server config.
// Incremental progress is streamed through emit at progressChunk-trial
// granularity while the experiment runs.
func (s *Server) handleExperiment(m *wire.ExperimentReq, emit func(*wire.ExperimentProgress)) wire.Message {
	workers := int(m.Workers)
	if workers > s.cfg.ExperimentWorkers {
		workers = s.cfg.ExperimentWorkers
	}
	cfg := experiments.Config{
		Seed:    m.Seed,
		Trials:  int(m.Trials),
		Quick:   m.Quick,
		Workers: workers,
	}
	cfg.Progress = func(done, total int) {
		if done%progressChunk == 0 || done == total {
			emit(&wire.ExperimentProgress{
				Done:  uint32(done),
				Total: uint32(total),
				Stage: m.Name,
			})
		}
	}
	res, err := experiments.RunByName(m.Name, cfg)
	if err != nil {
		return &wire.Error{Code: wire.CodeUnknownExperiment, Msg: err.Error()}
	}
	s.met.TotalExperiments.Add(1)
	return &wire.ExperimentResp{Rendered: res.Render()}
}

// handleMetrics builds the session's STATUS-METRICS frame: the session's
// counters and its link's, then the server's under metrics.ServerScope.
func (s *Server) handleMetrics(sess *session) wire.Message {
	resp := &wire.MetricsResp{SessionID: sess.id}
	add := func(name string, v uint64) {
		resp.Counters = append(resp.Counters, wire.Counter{Name: name, Value: v})
	}
	link, srv := sess.link.Stats(), s.Metrics()
	metrics.Each(&sess.met, "", add)
	metrics.Each(&link, "", add)
	metrics.Each(&srv, metrics.ServerScope, add)
	return resp
}

// Metrics snapshots the server-wide metrics (the cmd/shieldd -metrics
// periodic dump). Cheap enough to scrape continuously under thousands
// of live sessions: the counter snapshot is pure atomic loads, the pool
// depth one counter read under the pool's lock, and the live-session
// sweep atomic loads under a read lock — no allocation anywhere.
func (s *Server) Metrics() metrics.ServerSnapshot {
	snap := s.met.Snapshot()
	snap.PooledScenarios = s.pool.idle()
	live := s.reg.Live()
	snap.LiveSessions = live.Sessions
	snap.LiveInFlight = live.InFlight
	snap.LiveInFlightHWM = live.InFlightHWM
	return snap
}

// Package shieldd is the concurrent shield session server: a long-lived
// daemon that serves the securelink-sealed wire protocol of
// internal/wire over two transport families — streams (TCP
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
// world is built fresh on the session's first physics request, so a
// session that only pings, scrapes metrics or runs experiments never
// builds one. Sessions stay unobservable to each other: a session's
// EavesdropperBER/CancellationDB stream depends only on its seed and
// request sequence, never on when its world was built, which goroutine
// ran it, or what the server did before — the same determinism contract
// as the parallel experiment runner, extended to a network service.
//
// One protocol is served, wire.Version; a HELLO announcing any other
// version is refused with a plaintext CodeVersion error. Both transports
// share one handshake machine (serverHandshake, handshake.go) and one
// session state machine (sessionMachine, machine.go), neither of which
// does I/O; a thin goroutine shell runs them, one read loop per
// transport (session.read) feeding the handshake machine every frame and
// the session machine (session.serve) every request that opens: every
// sealed frame carries a request ID, the client pipelines requests, and
// the server completes them out of order under a bounded in-flight
// window.
// Scenario-mutating requests (EXCHANGE, BATCH-EXCHANGE, ATTACK) are
// executed strictly in request-ID order, one at a time — that is what
// keeps the deterministic (seed, request sequence) → results contract
// intact under pipelining and datagram loss — while PING,
// STATUS-METRICS, and EXPERIMENT requests complete independently and may
// overtake them; EXPERIMENT requests stream incremental
// EXPERIMENT-PROGRESS frames while they run. See DESIGN.md "Request-ID
// multiplexing" and "Selective repeat & streaming experiments".
package shieldd

import (
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
	// handshakeTimeout is the pre-authentication limit: how long a
	// transport may go without committing a session before its limit
	// timer closes it, retransmits or not.
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
	// session's slot freed. Clients can hold a session open with PING
	// keepalives and reconnect with a fresh handshake after a reap. Zero
	// disables reaping.
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
	cfg ServerConfig
	sem chan struct{}
	// work counts scenario/experiment work in flight across all
	// sessions, which MaxInFlightGlobal bounds when set; acquisition never
	// blocks — over-budget work is shed with BUSY, never queued.
	work atomic.Int64
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
		sem:     make(chan struct{}, cfg.MaxSessions),
		cookies: cookies,
		tickets: tickets,
		reg:     metrics.NewRegistry(),
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
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.cfg.AdmissionWait < 0 {
		return false
	}
	var expired <-chan time.Time // nil: AdmissionWait 0 waits for good
	if s.cfg.AdmissionWait > 0 {
		t := time.NewTimer(s.cfg.AdmissionWait)
		defer t.Stop()
		expired = t.C
	}
	select {
	case s.sem <- struct{}{}:
		return true
	case <-expired:
		return false
	}
}

// acquireWork takes a slot of the global in-flight budget; it never
// blocks — over-budget work is shed, not queued. Always true when
// MaxInFlightGlobal is unset.
func (s *Server) acquireWork() bool {
	if n := s.work.Add(1); s.cfg.MaxInFlightGlobal > 0 && n > int64(s.cfg.MaxInFlightGlobal) {
		s.work.Add(-1)
		return false
	}
	return true
}

func (s *Server) releaseWork() { s.work.Add(-1) }

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

// ServeConn runs one session on an established stream transport (TCP
// connection or one end of a net.Pipe) and blocks until the session
// ends. The connection is always closed on return.
func (s *Server) ServeConn(conn net.Conn) {
	s.serveTransport(&streamConn{c: conn}, conn.RemoteAddr().String())
}

// ServePacket serves datagram sessions from a packet socket (UDP, or an
// in-process faultnet endpoint) until the socket is closed: one session
// per remote address, each beginning with a plaintext HELLO datagram
// that passed the gate. It returns the socket's read error.
func (s *Server) ServePacket(pc net.PacketConn) error {
	l := dgram.Listen(pc, func(addr net.Addr, payload []byte) (bool, []byte) {
		if hello := decodeHello(payload); hello != nil {
			return s.gate(addr.String(), hello, time.Now())
		}
		return false, nil
	})
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
	msg, _ := wire.Decode(payload)
	hello, _ := msg.(*wire.Hello)
	return hello
}

// gate is the stateless admission gate the datagram listener consults,
// at now, for every HELLO from an unknown source address, BEFORE any
// per-peer state exists (anything but a HELLO is dropped there
// silently: no reflection surface for garbage). The full ladder:
//
//  1. the HELLO must prove its address (proveAddress); an unproven one
//     is answered with a freshly minted cookie and NOT admitted — the
//     stateless round trip that proves the peer can receive at its
//     claimed source address;
//  2. a proven HELLO passes the per-peer rate limiter (only proven
//     addresses allocate limiter entries) — over-rate peers are dropped
//     silently, they already hold the proof to retry with;
//  3. finally, under a shedding admission policy, a HELLO that would
//     only queue behind a full session table is refused with a
//     plaintext BUSY carrying the retry-after hint.
//
// The gate does not look at the version byte: a verified HELLO of any
// other version is refused by the handshake machine, so the refusal,
// like every other reply beyond a cookie, only ever goes to a verified
// address. Every reply is at most a few dozen bytes to a HELLO-shaped
// datagram (and for BUSY, a proven source), so the gate amplifies
// nothing and commits no state: the cost of a spoofed flood is one HMAC
// per packet.
func (s *Server) gate(addr string, hello *wire.Hello, now time.Time) (accept bool, reply []byte) {
	if proven, cookie := s.proveAddress(addr, hello); !proven {
		return false, cookie
	}
	if s.hsLimiter != nil && !s.hsLimiter.allow(addr, now) {
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
// or session registered there (gate, serverHandshake.stray). A HELLO
// that echoes a cookie is proven when the cookie verifies for (addr,
// nonce); a cookie-less one by a resumption ticket issued to exactly
// addr — proof of a prior completed handshake from the address, so
// resumption stays one round trip (Peek consumes nothing; the handshake
// redeems). Anything else is counted and gets the encoded COOKIE to
// answer with: a legitimate client recovers in one round trip, an
// off-path spoofer never sees it.
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

// serveTransport runs one transport until it ends, closing tc on
// return. Its one read loop (session.read) feeds every frame to the
// transport's handshake machine, which admits a client instance and
// then judges every frame that reaches its session. The first request
// that opens commits the session:
//
//	HELLO → CHALLENGE2 + sealed HELLO-ACK → the first sealed frame that
//	opens takes a session slot → session.serve.
//
// The session keeps the HELLO's scenario options, not a scenario: its
// world is built by the executor on its first physics request, inside
// the work budget that request holds (Server.world).
//
// Pre-authentication hardening: the peer has proven nothing until its
// first sealed frame opens, so the machine's limit timer closes the
// transport at handshakeTimeout, a stream's plaintext frame gets a tiny
// budget (streamConn), and the peer can commit neither a session slot
// nor a scenario. A datagram peer only gets here after its HELLO passed
// the gate, so a spoofed-source flood never starts a handshake.
func (s *Server) serveTransport(tc transportConn, addr string) {
	defer tc.close()
	sess := &session{s: s, tc: tc, h: &serverHandshake{s: s, addr: addr, reliable: !tc.unreliable()}}
	sess.wake.L = &sess.mu
	sess.mu.Lock()
	sess.run(sess.h.start(time.Now()))
	sess.mu.Unlock()
	plain, ok := sess.read()
	if !ok {
		return
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
		if reqID, flags, _, _, err := wire.DecodeEnvelopeV3(plain); err == nil && flags == 0 {
			busy := &wire.Busy{RetryAfterMillis: s.retryAfterMillis()}
			_ = tc.writeFrame(sess.h.link.Seal(wire.EncodeEnvelopeV3(reqID, 0, 0, busy)))
		}
		return
	}
	s.met.TotalSessions.Add(1)
	defer func() { <-s.sem }()
	s.met.ActiveSessions.Add(1)
	defer s.met.ActiveSessions.Add(-1)
	s.reg.Register(sess.h.id, &sess.met)
	defer s.reg.Unregister(sess.h.id)
	sess.serve(plain)
}

// read is the transport's one read loop: it feeds every frame to the
// handshake machine and returns the plaintext of the next request that
// opens. ok is false once the transport has ended: it failed or closed,
// or the machine closed it. Its end stops the timer, so a transport
// that fails before its limit holds nothing until then.
func (sess *session) read() (plain []byte, ok bool) {
	for {
		raw, hs, err := sess.tc.readFrame()
		if err != nil {
			sess.timer.Stop()
			return nil, false
		}
		sess.mu.Lock()
		a, opened := sess.run(sess.h.frame(raw, hs))
		sess.mu.Unlock()
		if opened {
			return a.frame, true
		}
	}
}

// expire feeds the handshake's limit timer.
func (sess *session) expire() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.run(sess.h.timeout(time.Now()))
}

// idleTickEvery is the idle tick period: a quarter of the timeout,
// floored so any positive timeout gives a positive period.
func (s *Server) idleTickEvery() time.Duration {
	return max(s.cfg.IdleTimeout/4, time.Millisecond)
}

// serve runs one committed session until it ends: a BYE, an idle reap,
// the transport's end or a failed open on a stream (readSealed), or a
// new client instance taking over a datagram address. Teardown waits
// until no op or experiment of the session runs, then adds the link's
// counters to the server's counters of the same name.
func (sess *session) serve(firstPlain []byte) {
	s := sess.s
	sess.m = &sessionMachine{l: newLedger(), cfg: machineConfig{
		reliable:         !sess.tc.unreliable(),
		idleTimeout:      s.cfg.IdleTimeout,
		acquireWork:      s.acquireWork,
		releaseWork:      s.releaseWork,
		answerMetrics:    func() wire.Message { return s.handleMetrics(sess) },
		retryAfterMillis: s.retryAfterMillis(),
		met:              &sess.met,
		srv:              &s.met,
	}}
	if s.cfg.IdleTimeout > 0 {
		sess.mu.Lock()
		sess.timer = time.AfterFunc(s.idleTickEvery(), sess.tick)
		sess.mu.Unlock()
	}
	for plain, ok := firstPlain, true; ok; plain, ok = sess.read() {
		sess.mu.Lock()
		if a, ok := sess.run(sess.m.request(plain, time.Now())); ok {
			go sess.execute(a.env)
		}
		sess.mu.Unlock()
	}
	sess.tc.close()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.m.end()
	sess.timer.Stop()
	for sess.m.working() {
		sess.wake.Wait()
	}
	st := sess.h.link.Stats()
	metrics.Each(&st, "", s.met.Add)
}

// run carries out one event's actions in order, the session machine's
// or the handshake machine's; callers hold sess.mu. It returns the
// action its caller goes on with, if any: the ordered op the event
// released for execution (the executor runs it next, any other caller
// starts an executor for it), or the request that opened. A failed
// session write ends the session: the transport is closed (waking the
// reader) and the machine stops sending. A failed handshake write
// closes the transport.
func (sess *session) run(acts []action) (next action, ok bool) {
	for _, a := range acts {
		switch a.kind {
		case actSend:
			e := a.env
			if sess.tc.writeFrame(sess.h.link.Seal(wire.EncodeEnvelopeV3(e.id, e.flags, a.cum, e.msg))) != nil {
				sess.tc.close()
				sess.m.end()
			}
		case actExecute, actOpen:
			next, ok = a, true
		case actStart:
			go sess.experiment(a.env.id, a.env.msg.(*wire.ExperimentReq))
		case actClose:
			sess.tc.close()
		case actReap:
			sess.tc.close()
			sess.s.met.ReapedSessions.Add(1)
		case actHandshake, actSealed:
			write := sess.tc.writeFrame
			if a.kind == actHandshake {
				write = sess.tc.writeHandshake
			}
			if write(a.frame) != nil {
				sess.tc.close()
			}
		case actArm:
			if a.at.IsZero() {
				sess.timer.Stop()
			} else {
				sess.timer = time.AfterFunc(time.Until(a.at), sess.expire)
			}
		}
	}
	sess.wake.Signal()
	return next, ok
}

// execute is the session's executor: it runs ordered ops one at a time,
// in the order the machine hands them out, and exits when none is
// queued. Only it touches the session's world while the session runs.
func (sess *session) execute(op envelope) {
	for more := true; more; {
		resp := sess.s.dispatchScenario(sess, op.msg)
		sess.mu.Lock()
		next, ok := sess.run(sess.m.done(op.id, resp))
		sess.mu.Unlock()
		op, more = next.env, ok
	}
}

// experiment runs one started experiment, streaming its progress; its
// goroutine becomes the executor if its answer releases an ordered op.
func (sess *session) experiment(id uint64, req *wire.ExperimentReq) {
	resp := sess.s.handleExperiment(req, func(p *wire.ExperimentProgress) {
		sess.mu.Lock()
		sess.run(sess.m.progress(id, p))
		sess.mu.Unlock()
	})
	sess.mu.Lock()
	next, ok := sess.run(sess.m.done(id, resp))
	sess.mu.Unlock()
	if ok {
		sess.execute(next.env)
	}
}

// tick feeds one idle tick and re-arms the timer while the session
// lives.
func (sess *session) tick() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.run(sess.m.tick(time.Now()))
	if !sess.m.over {
		sess.timer.Reset(sess.s.idleTickEvery())
	}
}

// scenarioOptions validates a HELLO and maps it onto testbed options.
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
	return opt, nil
}

// session is one active session: its link and counters, the scenario
// options its HELLO announced, once it runs physics its
// testbed.World (the calibrated scenario and adversaries its seed and
// options determine — the world the public Simulation builds for the
// same seed), and the goroutine shell around its machine (machine.go).
//
// One mutex serializes the machine. The reader feeds it each request
// plaintext it opens, the executor each ordered op's result, an
// experiment's goroutine its partial and final answers, and an idle
// timer its ticks, and each carries out the actions its event returns on
// its own goroutine: a reply is sealed and written by the goroutine whose
// event produced it, so a PING's PONG leaves from the reader and an
// ordered op's reply from the goroutine that executed it. The executor
// runs only while ordered ops are queued, so a session that has run none
// holds its reader, plus one goroutine per running experiment.
type session struct {
	s   *Server
	tc  transportConn
	met metrics.Session
	// h is the transport's handshake machine. Its ID, link and options,
	// the world's shape and seed that requests' implant indices are
	// checked against before anything is built, are the session's.
	h *serverHandshake
	// world stays nil until Server.world builds it. Only the session's
	// executor reaches it.
	world *testbed.World

	mu sync.Mutex
	m  *sessionMachine
	// wake wakes the reader when an event lets teardown finish; the
	// reader is its only waiter.
	wake sync.Cond
	// timer is the handshake's limit timer until the commit, then the
	// idle ticks' timer, when IdleTimeout is set.
	timer *time.Timer
}

// implants is the number of implants the session's world holds (or will).
func (sess *session) implants() int { return 1 + sess.h.opt.ExtraIMDs }

// world returns the session's world, building it on first use and
// counting the build. Only the executor calls it, for a request that
// passed validation and holds the work budget, so refused and shed
// requests build nothing. A world is a pure function of (seed, options)
// and nothing draws from it before its first scenario request, so when
// it is built moves no result.
func (s *Server) world(sess *session) *testbed.World {
	if sess.world == nil {
		sess.world = testbed.NewWorld(testbed.NewScenario(sess.h.opt))
		s.met.TotalWorlds.Add(1)
	}
	return sess.world
}

// dispatchScenario executes one scenario-mutating request on the
// session's executor. Only EXCHANGE, BATCH-EXCHANGE, and ATTACK reach it;
// the first one that passes validation builds the session's world.
func (s *Server) dispatchScenario(sess *session, req wire.Message) wire.Message {
	switch m := req.(type) {
	case *wire.ExchangeReq:
		return s.handleExchange(sess, m)
	case *wire.BatchReq:
		return s.handleBatch(sess, m)
	case *wire.AttackReq:
		return s.handleAttack(sess, m)
	}
	return &wire.Error{Code: wire.CodeInternal, Msg: "non-scenario request on executor"}
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
	cfg := experiments.Config{
		Seed:    m.Seed,
		Trials:  int(m.Trials),
		Quick:   m.Quick,
		Workers: min(int(m.Workers), s.cfg.ExperimentWorkers),
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
	resp := &wire.MetricsResp{SessionID: sess.h.id}
	add := func(name string, v uint64) {
		resp.Counters = append(resp.Counters, wire.Counter{Name: name, Value: v})
	}
	link, srv := sess.h.link.Stats(), s.Metrics()
	metrics.Each(&sess.met, "", add)
	metrics.Each(&link, "", add)
	metrics.Each(&srv, metrics.ServerScope, add)
	return resp
}

// Metrics snapshots the server-wide metrics (the cmd/shieldd -metrics
// periodic dump). Cheap enough to scrape continuously under thousands
// of live sessions: the counter snapshot is pure atomic loads and the
// live-session sweep atomic loads under a read lock — no allocation
// anywhere.
func (s *Server) Metrics() metrics.ServerSnapshot {
	snap := s.met.Snapshot()
	live := s.reg.Live()
	snap.LiveSessions = live.Sessions
	snap.LiveInFlight = live.InFlight
	snap.LiveInFlightHWM = live.InFlightHWM
	return snap
}

package shieldd

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"heartshield/internal/securelink"
	"heartshield/internal/stats"
	"heartshield/internal/testbed"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// ErrClientClosed is returned for requests submitted after Close began;
// the calls Close finds still pending when it finishes end with
// ErrSessionLost wrapping it. Every error a call ends with matches
// ErrClientClosed, ErrSessionLost, ErrRequestTimeout or ErrServerBusy
// with errors.Is, or is the server's *wire.Error.
var ErrClientClosed = errors.New("shieldd: client closed")

// ErrSessionLost reports a call that ended with its session: the
// transport failed, a reconnect failed, or another request ran out of
// retransmissions. It wraps the cause, so a session ended by an expired
// request also matches ErrRequestTimeout. Match with errors.Is.
var ErrSessionLost = errors.New("shieldd: session lost")

// ErrRequestTimeout reports a request on a datagram session that got no
// answer after MaxRetries retransmissions; its session ends with it.
// Match with errors.Is.
var ErrRequestTimeout = errors.New("shieldd: request timed out")

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
	// re-handshake on its next request once its session has ended: the
	// server's idle reaper closed it, the transport failed, or on a
	// datagram session a request ran out of retransmissions (there is no
	// FIN, so that is how a reaped datagram session shows). The calls in
	// flight when it ended fail with ErrSessionLost; submits parked
	// behind the window or the reconnect go to the new session. The new
	// session derives fresh keys from fresh nonces; the deterministic
	// result stream restarts at the session seed. Only effective for
	// clients created with Dial or DialUDP, or given RedialPacket (a
	// pipe/NewClient client has nothing to re-dial).
	AutoReconnect bool

	// RedialPacket supplies fresh packet transports for AutoReconnect on
	// datagram sessions created with NewPacketClient (DialUDP installs
	// its own). Each call must return a new local socket and the server
	// address to aim it at; the old socket is closed after the swap.
	RedialPacket func() (net.PacketConn, net.Addr, error)

	// RetryTimeout is the initial retransmission timeout (0 = 250ms);
	// each further retransmit of a request on a datagram session doubles
	// it up to a cap. The handshake's timer waits out step k of its
	// schedule for RetryTimeout<<min(k,3) on both transports, re-sending
	// its HELLO only on datagrams.
	RetryTimeout time.Duration
	// MaxRetries bounds retransmissions per request on datagram sessions
	// (0 = 8). A request that runs out of them fails with
	// ErrRequestTimeout and ends its session, with or without
	// AutoReconnect: the server can never fill the gap its ID leaves. The
	// other calls in flight fail with ErrSessionLost. MaxRetries also
	// bounds the steps of the handshake's wait schedule on both
	// transports.
	MaxRetries int
}

// hello builds the session's HELLO. Location and ExtraIMDs travel as
// single bytes, so a value outside their range is refused here rather
// than wrapped onto another world.
func (o SessionOptions) hello(nonce [16]byte) (*wire.Hello, error) {
	if o.Location < 0 || o.Location > len(testbed.Locations) {
		return nil, fmt.Errorf("shieldd: SessionOptions.Location %d out of range 0..%d", o.Location, len(testbed.Locations))
	}
	if o.ExtraIMDs < 0 || o.ExtraIMDs > math.MaxUint8 {
		return nil, fmt.Errorf("shieldd: SessionOptions.ExtraIMDs %d out of range 0..%d", o.ExtraIMDs, math.MaxUint8)
	}
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
	return h, nil
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

	// The call's record in its client's machine, guarded by the client's
	// mu: where it waits, its request ID and plaintext envelope
	// id||flags||cum||msg once sent, and on a datagram session its retry
	// state: the tries so far, when the next retransmit is due, and the
	// ordered answers with higher IDs seen while it was pending.
	phase callPhase
	id    uint64
	env   []byte
	tries int
	due   time.Time
	skips int
}

// Wait blocks until the call completes and returns its outcome.
func (call *Call) Wait() (wire.Message, error) {
	<-call.Done
	return call.Resp, call.Err
}

// Client is one end of a shieldd session: a pipelining multiplexer. Go
// submits a request without waiting, requests are matched to responses
// by request ID, and any number of goroutines may issue requests
// concurrently (the session's window bounds how many are in flight).
//
// The session's protocol is a clientMachine (clientmachine.go), each
// handshake's a clientHandshake (handshake.go), and the Client is their
// shell, serialized by mu. The read loop feeds the handshake machine
// each frame until it commits, then the session machine each frame it
// opens; one time.AfterFunc timer feeds the handshake its steps and a
// datagram session its retry timeouts; a submitter feeds the session
// machine its call and waits on cond while the machine parks it; Close
// feeds it the BYE. Whoever feeds an event carries out its actions (run,
// runHandshake): it arms the timer under mu, then releases mu to seal
// and write, finish calls, run OnProgress, close the transport or
// reconnect. No goroutine holds mu across a transport write or while it
// waits for writeMu: a net.Pipe write blocks until the peer reads, the
// peer's reader may be blocked writing to this client, and this
// client's read loop needs mu before it reads again. For the same reason
// the read loop writes nothing but a handshake's cookie echo, which no
// stream server asks for.
type Client struct {
	opt    SessionOptions
	secret []byte
	// redial opens a fresh transport to the same server for
	// AutoReconnect — on datagrams a fresh local socket too, since the
	// old one may be poisoned or its server-side peer state reaped. Nil
	// when the client has nothing to re-dial.
	redial func() (transportConn, error)

	mu sync.Mutex // guards everything below but writeMu
	// cond wakes the submitters the machine parked; run broadcasts after
	// every event.
	cond sync.Cond
	m    *clientMachine
	// hs is the handshake in flight on tc, nil once it commits or fails.
	hs *clientHandshake
	// retry is the handshake's and the session machine's timer, made on
	// its first arm.
	retry     *time.Timer
	tc        transportConn
	link      *securelink.Link
	sessionID uint64
	// ticket and rms hold the resumption state from the latest
	// handshake, which the next one offers.
	ticket  []byte
	rms     []byte
	resumed bool   // the latest handshake resumed from a ticket
	resumes uint64 // total resumed handshakes over the client's life
	reconns uint64

	writeMu sync.Mutex // serializes Seal+WriteFrame pairs: frames leave in seal order
}

// Dial opens a TCP session with a shieldd server. A failed handshake
// closes the connection.
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
// (with retransmits), and the client-side reliability layer. A failed
// handshake closes the socket.
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
	return newClient(tc, secret, opt, redial)
}

// NewClient runs the session handshake over an established stream
// transport. A failed handshake closes conn.
func NewClient(conn net.Conn, secret []byte, opt SessionOptions) (*Client, error) {
	return newClient(&streamConn{c: conn}, secret, opt, nil)
}

// NewPacketClient runs the session handshake over an established packet
// socket (UDP, or an in-process faultnet endpoint) against the server at
// peer. The client becomes the socket's sole reader, and every request
// is tracked by the retransmit layer: loss is retried transparently and
// surfaced in TransportStats rather than as errors, until MaxRetries is
// exhausted. A failed handshake closes pc.
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

// newClient runs the handshake over tc; its read loop then serves the
// session.
func newClient(tc transportConn, secret []byte, opt SessionOptions, redial func() (transportConn, error)) (*Client, error) {
	c := &Client{
		opt:    opt,
		secret: secret,
		redial: redial,
		m: &clientMachine{cfg: clientConfig{
			lossy:     tc.unreliable(),
			rto:       opt.retryTimeout(),
			maxTries:  opt.maxRetries(),
			reconnect: opt.AutoReconnect && redial != nil,
			backoff:   stats.NewRNG(stats.DeriveSeed(opt.Seed, "client-busy-backoff")),
		}},
	}
	c.cond.L = &c.mu
	if err := c.handshake(tc); err != nil {
		return nil, err
	}
	return c, nil
}

// handshake runs a handshake on tc, offering the last session's ticket
// so that after an idle reap the new one completes in one round trip on
// resumed forward-secret keys (a refused or expired ticket falls back
// to the full AKE). It sends the HELLO and runs tc's read loop on the
// calling goroutine until the handshake commits, making tc the session's
// transport and leaving the loop to a goroutine of its own, or fails,
// closing tc. Callers do not hold c.mu.
func (c *Client) handshake(tc transportConn) error {
	c.mu.Lock()
	h, err := newClientHandshake(c.secret, c.opt, c.m.cfg, c.ticket, c.rms)
	if err != nil {
		c.mu.Unlock()
		tc.close()
		return err
	}
	c.tc, c.hs = tc, h
	c.run(h.start(time.Now()))
	if link := c.readLoop(tc, nil); link != nil {
		go c.readLoop(tc, link)
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return h.err
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

// readLoop is tc's sole reader. Without a session link it feeds tc's
// handshake machine every frame and the transport's end, and returns
// the link once the handshake commits, or nil once it has failed. With
// the link it is the session's demultiplexer, feeding the session
// machine each response and partial it opens, and the transport's end.
// On an unreliable transport a frame that fails to open or decode is a
// dropped datagram (a duplicate dies on the securelink window,
// corruption on the GCM tag, a late CHALLENGE2 or ack copy is out of
// place); on a stream it ends the session. A frame read after a
// reconnect has replaced tc is dropped and the loop ends: request IDs
// restart at 1 on the new session, so a stale answer could otherwise
// finish a new call.
func (c *Client) readLoop(tc transportConn, link *securelink.Link) *securelink.Link {
	for {
		raw, hs, err := tc.readFrame()
		if link == nil {
			c.mu.Lock()
			h := c.hs
			if h.over() {
				c.mu.Unlock()
				return nil
			}
			if c.run(h.frame(raw, hs, err, time.Now())); h.ack != nil {
				return h.link
			}
			continue
		}
		if err == nil && hs {
			continue
		}
		var (
			id    uint64
			flags uint8
			msg   wire.Message
		)
		if err == nil {
			var plain []byte
			if plain, err = link.Open(raw); err == nil {
				id, flags, _, msg, err = wire.DecodeEnvelopeV3(plain)
			}
			if err != nil && tc.unreliable() {
				continue
			}
		}
		c.mu.Lock()
		if c.tc != tc {
			c.mu.Unlock()
			return nil
		}
		if err != nil {
			c.run(c.m.transportFailed(err))
			return nil
		}
		c.run(c.m.response(id, flags, msg, time.Now()))
	}
}

// run carries out one event's actions. Called with c.mu held, it points
// the retry timer and wakes the parked submitters, then releases c.mu
// and does the rest in order: it seals and writes each envelope under
// writeMu and yields, finishes calls, runs OnProgress, closes the
// transport, and reconnects. A failed stream write closes the
// transport, so the read loop reads its end; a failed datagram write is
// a dropped datagram, which the retry schedule owns. run returns the
// error of a transport close.
func (c *Client) run(acts []clientAction) (err error) {
	var buf [4]clientAction
	todo := append(buf[:0], acts...)
	tc, link := c.tc, c.link
	for _, a := range todo {
		switch h := c.hs; a.kind {
		case caArm:
			c.arm(a.at)
		case caCommit:
			c.hs, c.link, c.sessionID = nil, h.link, h.ack.SessionID
			c.ticket, c.rms, c.resumed = h.ack.Ticket, h.rms, h.resumed
			if h.resumed {
				c.resumes++
			}
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, a := range todo {
		switch a.kind {
		case caSend:
			c.writeMu.Lock()
			werr := tc.writeFrame(link.Seal(a.call.env))
			c.writeMu.Unlock()
			if werr != nil && !tc.unreliable() {
				tc.close()
			}
			// Yield once the frame is out. Its answer comes from other
			// goroutines (the server's reader, then the read loop), and
			// Gosched wakes a thread on an idle processor, which then
			// picks up their hand-offs while it spins. Without it, with
			// both ends in one process, a hand-off often waits for a
			// parked thread's futex or epoll wake-up, and the round
			// trip's latency follows the host's scheduling noise.
			runtime.Gosched()
		case caFinish:
			a.call.Resp, a.call.Err = a.msg, a.err
			a.call.Done <- a.call
		case caProgress:
			a.call.OnProgress(a.msg.(*wire.ExperimentProgress))
		case caClose:
			err = tc.close()
		case caReconnect:
			c.reconnect(a.call)
		case caHello:
			if tc.writeHandshake(a.frame) != nil {
				tc.close()
			}
		}
	}
	return err
}

// arm points the retry timer at at, or stops it for a zero at. Callers
// hold c.mu. The machine's first arm has a time.
func (c *Client) arm(at time.Time) {
	switch {
	case c.retry == nil:
		c.retry = time.AfterFunc(time.Until(at), func() {
			c.mu.Lock()
			if h := c.hs; h != nil {
				c.run(h.timeout(time.Now()))
			} else {
				c.run(c.m.timeout(time.Now()))
			}
		})
	case at.IsZero():
		c.retry.Stop()
	default:
		c.retry.Reset(time.Until(at))
	}
}

// TransportStats reports the client-side transport counters: how many
// request datagrams were re-sent, how many requests gave up entirely
// (both always zero on stream transports), and how many streamed
// progress frames arrived. This is where the "silent" retries of Ping,
// Metrics, and every other call become observable.
func (c *Client) TransportStats() TransportStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.stats
}

// reconnect carries out the machine's caReconnect: it re-dials and
// handshakes without c.mu held — a slow or dead network must not freeze
// getters or other callers — and feeds the outcome back. The machine
// runs one reconnect at a time.
func (c *Client) reconnect(call *Call) {
	tc, err := c.redial()
	if err == nil {
		err = c.handshake(tc)
	}
	c.mu.Lock()
	if err != nil {
		c.run(c.m.reconnectFailed(call, fmt.Errorf("shieldd: reconnect: %w", err)))
		return
	}
	acts := c.m.reconnected()
	if c.m.state == clientLive {
		c.reconns++
	}
	c.run(acts)
}

// Go submits a request and returns immediately with the in-flight Call.
// Requests pipeline: many calls may be outstanding and the server may
// complete non-scenario requests (PING, STATUS-METRICS, EXPERIMENT) out
// of order; scenario requests complete in submission order. Go blocks
// while the session's request window is full — while the request's ID
// would be requestWindow (16) or more above the lowest ID still
// unanswered — and while a reconnect runs.
func (c *Client) Go(req wire.Message) *Call {
	return c.submit(&Call{Req: req, Done: make(chan *Call, 1)})
}

// submit runs Go's body for a prepared Call (Req and any OnProgress
// set). Split out so roundTrip can attach a progress callback before the
// request is on the wire. While the machine parks the call, submit waits
// on c.cond and tries again after every event.
func (c *Client) submit(call *Call) *Call {
	c.mu.Lock()
	for {
		acts := c.m.submit(call, time.Now())
		parked := call.phase == callParked
		if parked && len(acts) == 0 {
			c.cond.Wait()
			continue
		}
		c.run(acts)
		if !parked {
			return call
		}
		c.mu.Lock()
	}
}

// roundTrip submits a request and waits for its response, passing any
// streamed EXPERIMENT-PROGRESS frames to onProgress (nil ignores them).
// A BUSY-shed request is transparently retried with a fresh request ID
// after a deterministic jittered backoff honoring the server's
// retry-after hint; the retry budget reuses MaxRetries, and streamed
// progress restarts from zero on the retry. A fresh ID is load-bearing:
// on datagram transports the shed response is dedup-cached under the
// old ID, so re-sending it verbatim could only ever replay the BUSY.
func (c *Client) roundTrip(req wire.Message, onProgress func(*wire.ExperimentProgress)) (wire.Message, error) {
	tries := c.opt.maxRetries()
	for attempt := 0; ; attempt++ {
		call := &Call{Req: req, Done: make(chan *Call, 1), OnProgress: onProgress}
		m, err := c.submit(call).Wait()
		if err == nil || attempt >= tries || !errors.Is(err, ErrServerBusy) {
			return m, err
		}
		time.Sleep(c.busyBackoff(err, attempt))
	}
}

// request runs one roundTrip and checks that the response is a T.
func request[T wire.Message](c *Client, req wire.Message, onProgress func(*wire.ExperimentProgress)) (T, error) {
	m, err := c.roundTrip(req, onProgress)
	resp, ok := m.(T)
	if err == nil && !ok {
		err = fmt.Errorf("shieldd: unexpected response %T", m)
	}
	return resp, err
}

// busyBackoff returns the wait before retrying an operation after its
// attempt-th consecutive BUSY refusal (from 0).
func (c *Client) busyBackoff(err error, attempt int) time.Duration {
	var hint time.Duration
	var be *busyError
	if errors.As(err, &be) {
		hint = be.retryAfter
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return busyDelay(hint, c.opt.retryTimeout(), attempt, c.m.cfg.backoff)
}

// busyDelay is the wait after the n-th consecutive BUSY refusal (from
// 0), for handshakes and requests alike: the server's retry-after hint
// (the retry timeout rto when it gave none), doubled per refusal and
// capped at maxRetryBackoff, plus up to 50% jitter drawn from the
// caller's seed-keyed rng. A herd of shed clients spreads out instead of
// retrying in lockstep, yet each client's schedule replays exactly per
// seed.
func busyDelay(hint, rto time.Duration, n int, rng *stats.RNG) time.Duration {
	d := hint
	if d <= 0 {
		d = rto
	}
	if d <<= uint(n); d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	return d + time.Duration(rng.Int63()%int64(d/2+1))
}

// Exchange runs one protected exchange against IMD index imdIdx with the
// given command kind (wire.CmdInterrogate or wire.CmdSetTherapy).
func (c *Client) Exchange(imdIdx int, cmd uint8) (*wire.ExchangeResp, error) {
	return request[*wire.ExchangeResp](c, &wire.ExchangeReq{IMD: uint8(imdIdx), Cmd: cmd}, nil)
}

// BatchExchange runs up to wire.MaxBatch protected exchanges in one
// sealed round trip, amortizing sealing and framing; results arrive in
// item order and are identical to the same items sent as individual
// Exchange calls.
func (c *Client) BatchExchange(items []wire.ExchangeItem) ([]wire.ExchangeResp, error) {
	resp, err := request[*wire.BatchResp](c, &wire.BatchReq{Items: items}, nil)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(items) {
		return nil, fmt.Errorf("shieldd: batch returned %d results for %d items", len(resp.Results), len(items))
	}
	return resp.Results, nil
}

// Attack runs one unauthorized-command trial.
func (c *Client) Attack(cmd uint8, shieldOn bool) (*wire.AttackResp, error) {
	return request[*wire.AttackResp](c, &wire.AttackReq{Cmd: cmd, ShieldOn: shieldOn}, nil)
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
	resp, err := request[*wire.ExperimentResp](c, &req, onProgress)
	if err != nil {
		return "", err
	}
	return resp.Rendered, nil
}

// Ping sends a keepalive probe and verifies the echoed token. The
// server answers from its reader fast path, ahead of any
// queued scenario work, so Ping also resets the idle-reap clock while
// long requests run.
func (c *Client) Ping() error {
	c.mu.Lock()
	token := c.m.lastID ^ 0x70696E67 // any value; uniqueness is not required
	c.mu.Unlock()
	pong, err := request[*wire.Pong](c, &wire.Ping{Token: token}, nil)
	if err != nil {
		return err
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

// Metrics returns the session's STATUS-METRICS frame.
func (c *Client) Metrics() (*wire.MetricsResp, error) {
	return request[*wire.MetricsResp](c, &wire.MetricsReq{}, nil)
}

// Close ends the session with a BYE and closes the transport. The server
// drains every in-flight request before answering the BYE, so pending
// calls complete rather than die. From the moment Close runs a submit
// takes no ID and fails with ErrClientClosed: the BYE must hold the
// session's highest request ID, or the server would discard requests
// above it. On a datagram session the BYE is best-effort: Close waits
// four retry timeouts for its answer, then closes regardless (the
// server's idle reaper collects a session whose BYE died); calls still
// pending then end with ErrSessionLost wrapping ErrClientClosed.
func (c *Client) Close() error {
	bye := &Call{Req: &wire.Bye{}, Done: make(chan *Call, 1)}
	c.mu.Lock()
	c.run(c.m.bye(bye, time.Now()))
	if c.m.cfg.lossy {
		timer := time.NewTimer(4 * c.m.cfg.rto)
		select {
		case <-bye.Done:
		case <-timer.C:
		}
		timer.Stop()
	} else {
		<-bye.Done
	}
	c.mu.Lock()
	return c.run(c.m.close())
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

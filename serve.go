package heartshield

import (
	"fmt"
	"net"
	"time"

	"heartshield/internal/metrics"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
)

// ErrServerBusy reports that the server shed a request or handshake
// under overload. Match with errors.Is.
var ErrServerBusy = shieldd.ErrServerBusy

// ErrProtocolVersion reports a session refused over the wire protocol
// version: there is one version, and a peer (or a man in the middle
// rewriting the HELLO) that announces any other is refused, with nothing
// to downgrade to. Match with errors.Is.
var ErrProtocolVersion = shieldd.ErrVersion

// ServeOptions configures a shield session server.
type ServeOptions struct {
	// Secret is the provisioned master pairing secret shared with
	// authorized programmers; per-session keys are derived from it.
	// Required.
	Secret []byte
	// MaxSessions bounds concurrently active sessions (default 64);
	// further handshakes queue until a slot frees.
	MaxSessions int
	// ExperimentWorkers caps the deterministic per-point fan-out of
	// remotely requested experiments (default 1).
	ExperimentWorkers int
	// MaxExtraIMDs caps the batched multi-IMD size a session may request
	// (default 8).
	MaxExtraIMDs int
	// InFlightPerSession bounds how many pipelined requests one session
	// may have outstanding (default 16); beyond it, transport
	// backpressure applies.
	InFlightPerSession int
	// IdleTimeout, when positive, reaps sessions with no traffic and no
	// in-flight work for this long, returning their scenarios to the
	// pool. Clients hold sessions open with Ping keepalives and may
	// auto-reconnect with a fresh handshake after a reap. Zero disables.
	IdleTimeout time.Duration
	// AdmissionWait selects what happens to a handshake when every
	// session slot is taken: zero queues until a slot frees (the
	// default), negative sheds immediately with a BUSY response,
	// positive waits up to that long before shedding.
	AdmissionWait time.Duration
	// HandshakeRate, when positive, rate-limits datagram handshakes per
	// source address to this many per second (burst HandshakeBurst,
	// default 4). Only cookie-verified addresses are metered.
	HandshakeRate  float64
	HandshakeBurst int
	// MaxInFlightGlobal, when positive, bounds scenario/experiment work
	// in flight across all sessions; over-budget requests are answered
	// BUSY instead of queueing.
	MaxInFlightGlobal int
	// TicketLifetime bounds how long a resumption ticket stays
	// redeemable (and how often the ticket-sealing key rotates).
	// Zero means 5 minutes.
	TicketLifetime time.Duration
	// BusyRetryAfter is the retry-after hint carried in BUSY responses
	// (default 250ms).
	BusyRetryAfter time.Duration
}

// Server is a running shield session service: it owns a pool of recycled
// testbed scenarios and serves the securelink-sealed wire protocol over
// any net.Conn transport. Results are deterministic per session seed
// regardless of concurrency, pooling, or transport.
type Server struct {
	s *shieldd.Server
}

// NewServer builds a session server.
func NewServer(opt ServeOptions) (*Server, error) {
	s, err := shieldd.NewServer(shieldd.ServerConfig{
		Secret:             opt.Secret,
		MaxSessions:        opt.MaxSessions,
		ExperimentWorkers:  opt.ExperimentWorkers,
		MaxExtraIMDs:       opt.MaxExtraIMDs,
		InFlightPerSession: opt.InFlightPerSession,
		IdleTimeout:        opt.IdleTimeout,
		AdmissionWait:      opt.AdmissionWait,
		HandshakeRate:      opt.HandshakeRate,
		HandshakeBurst:     opt.HandshakeBurst,
		MaxInFlightGlobal:  opt.MaxInFlightGlobal,
		BusyRetryAfter:     opt.BusyRetryAfter,
		TicketLifetime:     opt.TicketLifetime,
	})
	if err != nil {
		return nil, err
	}
	return &Server{s: s}, nil
}

// ServerMetrics is a point-in-time snapshot of server-wide counters
// (sessions, request mix, sealed/opened traffic) — what the cmd/shieldd
// -metrics flag dumps periodically.
type ServerMetrics struct {
	TotalSessions    uint64
	ActiveSessions   int64
	ReapedSessions   uint64
	TotalExchanges   uint64
	TotalBatches     uint64
	TotalAttacks     uint64
	TotalExperiments uint64
	TotalPings       uint64
	// TotalRetransmits counts responses re-sent from session dedup
	// caches (the server-side cost of transport loss).
	TotalRetransmits uint64
	// TotalProgressFrames counts streamed EXPERIMENT-PROGRESS frames
	// written to sessions.
	TotalProgressFrames uint64
	BytesSealed         uint64
	BytesOpened         uint64
	Rekeys              uint64
	ReplayDrops         uint64
	// LateDrops counts frames that arrived behind the securelink receive
	// window; WindowAccepts counts out-of-order frames it absorbed.
	LateDrops     uint64
	WindowAccepts uint64
	// Overload/admission counters: stateless-cookie activity on datagram
	// handshakes, BUSY answers at admission and inside sessions, and
	// handshakes dropped by the per-peer rate limiter.
	CookiesSent    uint64
	CookieRejects  uint64
	ShedHandshakes uint64
	ShedRequests   uint64
	RateLimited    uint64
	// PooledScenarios is the idle scenario-pool depth; LiveSessions,
	// LiveInFlight, and LiveInFlightHWM aggregate the live sessions'
	// gauges at snapshot time (current total pipelining depth and the
	// deepest per-session high-water mark).
	PooledScenarios int
	LiveSessions    int
	LiveInFlight    int64
	LiveInFlightHWM int64
}

// String renders the snapshot as one log line.
func (m ServerMetrics) String() string { return metrics.ServerSnapshot(m).String() }

// Metrics snapshots the server's aggregate counters.
func (s *Server) Metrics() ServerMetrics {
	return ServerMetrics(s.s.Metrics())
}

// Serve accepts and serves sessions until the listener is closed.
func (s *Server) Serve(l net.Listener) error { return s.s.Serve(l) }

// ServePacket serves datagram sessions from a packet socket (UDP, or
// any net.PacketConn such as an in-process fault-injection network)
// until the socket is closed. Datagram sessions speak the same protocol
// as stream sessions, with client-side retransmission and server-side
// request deduplication, so exchanges complete — and stay deterministic
// per seed — over links that drop, duplicate, and reorder datagrams.
func (s *Server) ServePacket(pc net.PacketConn) error { return s.s.ServePacket(pc) }

// Pipe opens an in-process session (zero-network transport) against this
// server.
func (s *Server) Pipe(opt DialOptions) (*RemoteSimulation, error) {
	c, err := s.s.Pipe(opt.session())
	if err != nil {
		return nil, err
	}
	return &RemoteSimulation{c: c}, nil
}

// Serve runs a session server on the listener until it is closed — the
// one-call entry point cmd/shieldd uses.
func Serve(l net.Listener, opt ServeOptions) error {
	s, err := NewServer(opt)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// DialOptions configures a remote session.
type DialOptions struct {
	// SimOptions selects the simulated world, exactly as NewSimulation
	// does for the in-process path; equal seeds give equal results on
	// either path.
	SimOptions
	// ExtraIMDs adds additional implants (same model, distinct serials)
	// to the session's shared medium; ProtectedExchangeWith addresses
	// them by index (0 = primary).
	ExtraIMDs int
	// AutoReconnect makes a dialed session transparently re-dial and
	// re-handshake after the server's idle reaper (or a network fault)
	// closes the connection and no requests are in flight. The fresh
	// session restarts the deterministic result stream at the seed.
	AutoReconnect bool
	// RetryTimeout is the initial per-request retransmission timeout on
	// datagram sessions (0 = 250ms), doubling per retransmit. The
	// handshake waits out the same schedule on both transports before
	// failing.
	RetryTimeout time.Duration
	// MaxRetries bounds per-request retransmissions on datagram sessions
	// before the call fails, and the handshake's wait schedule on both
	// transports (0 = 8).
	MaxRetries int
	// Window bounds the client-side send window: how many pipelined
	// requests may await responses before submission blocks (0 = 16,
	// matching the server's default per-session in-flight window).
	Window int
}

func (o DialOptions) session() shieldd.SessionOptions {
	return shieldd.SessionOptions{
		Seed:               o.Seed,
		Location:           o.Location,
		HighPowerAdversary: o.HighPowerAdversary,
		FlatJam:            o.FlatJam,
		DigitalCancel:      o.DigitalCancel,
		Concerto:           o.Concerto,
		ExtraIMDs:          o.ExtraIMDs,
		AutoReconnect:      o.AutoReconnect,
		RetryTimeout:       o.RetryTimeout,
		MaxRetries:         o.MaxRetries,
		Window:             o.Window,
	}
}

// RemoteSimulation is a Simulation driven over a shieldd session: the
// same exchanges and attack trials, executed server-side in the session's
// own deterministic world, sealed end-to-end with securelink.
type RemoteSimulation struct {
	c *shieldd.Client
}

// Dial opens a TCP session with a shield session server.
func Dial(addr string, secret []byte, opt DialOptions) (*RemoteSimulation, error) {
	c, err := shieldd.Dial(addr, secret, opt.session())
	if err != nil {
		return nil, err
	}
	return &RemoteSimulation{c: c}, nil
}

// DialUDP opens a datagram session with a shield session server's UDP
// listener. The session sends one datagram per sealed frame, with
// transparent client-side retransmission; retry counts are
// surfaced in SessionMetrics and TransportStats rather than as errors.
func DialUDP(addr string, secret []byte, opt DialOptions) (*RemoteSimulation, error) {
	c, err := shieldd.DialUDP(addr, secret, opt.session())
	if err != nil {
		return nil, err
	}
	return &RemoteSimulation{c: c}, nil
}

// DialPacket opens a datagram session over an established packet socket
// against the server at peer — the transport-agnostic form of DialUDP,
// used to run sessions through in-process fault-injection networks. The
// client becomes the socket's sole reader.
func DialPacket(pc net.PacketConn, peer net.Addr, secret []byte, opt DialOptions) (*RemoteSimulation, error) {
	c, err := shieldd.NewPacketClient(pc, peer, secret, opt.session())
	if err != nil {
		return nil, err
	}
	return &RemoteSimulation{c: c}, nil
}

// SessionID returns the server-assigned session identifier.
func (r *RemoteSimulation) SessionID() uint64 { return r.c.SessionID() }

func wireCmd(kind CommandKind) uint8 {
	if kind == SetTherapy {
		return wire.CmdSetTherapy
	}
	return wire.CmdInterrogate
}

// ProtectedExchange runs one shield-proxied exchange with the primary
// IMD, equivalent to Simulation.ProtectedExchange at the same seed.
func (r *RemoteSimulation) ProtectedExchange(kind CommandKind) (ExchangeReport, error) {
	return r.ProtectedExchangeWith(0, kind)
}

// ProtectedExchangeWith runs one shield-proxied exchange with the implant
// at the given index (batched multi-IMD sessions).
func (r *RemoteSimulation) ProtectedExchangeWith(imdIdx int, kind CommandKind) (ExchangeReport, error) {
	var rep ExchangeReport
	resp, err := r.c.Exchange(imdIdx, wireCmd(kind))
	if err != nil {
		return rep, err
	}
	rep.Response = resp.Response
	rep.ResponseCommand = resp.ResponseCommand
	rep.EavesdropperBER = resp.EavesBER
	rep.CancellationDB = resp.CancellationDB
	return rep, nil
}

// PendingExchange is an in-flight pipelined exchange started with
// StartProtectedExchange. Wait blocks for its result; results complete
// in submission order (the server executes exchanges in request order
// regardless of how the transport delivers them).
type PendingExchange struct {
	call *shieldd.Call
}

// Wait blocks until the exchange completes and returns its report.
func (p *PendingExchange) Wait() (ExchangeReport, error) {
	var rep ExchangeReport
	m, err := p.call.Wait()
	if err != nil {
		return rep, err
	}
	resp, ok := m.(*wire.ExchangeResp)
	if !ok {
		return rep, fmt.Errorf("heartshield: unexpected response %T", m)
	}
	rep.Response = resp.Response
	rep.ResponseCommand = resp.ResponseCommand
	rep.EavesdropperBER = resp.EavesBER
	rep.CancellationDB = resp.CancellationDB
	return rep, nil
}

// StartProtectedExchange submits a shield-proxied exchange with the
// implant at imdIdx without waiting for the result, so one goroutine
// can keep a full send window of exchanges in flight (on datagram
// sessions, a lost request then delays only itself — the selective
// repeat layer retransmits just the missing ID). It blocks only while
// the client send window (DialOptions.Window) is full. Results are
// deterministic in submission order, identical to the same sequence of
// blocking ProtectedExchangeWith calls. Unlike the blocking calls, a
// BUSY shed under server overload surfaces as an error (matching
// ErrServerBusy via errors.Is) instead of being retried transparently.
func (r *RemoteSimulation) StartProtectedExchange(imdIdx int, kind CommandKind) *PendingExchange {
	return &PendingExchange{call: r.c.Go(&wire.ExchangeReq{IMD: uint8(imdIdx), Cmd: wireCmd(kind)})}
}

// BatchItem addresses one exchange inside ProtectedExchangeBatch.
type BatchItem struct {
	// IMD is the implant index (0 = primary).
	IMD int
	// Command is the exchange's command kind.
	Command CommandKind
}

// ProtectedExchangeBatch runs up to 256 protected exchanges in one
// sealed round trip (the BATCH-EXCHANGE frame), amortizing sealing
// and framing. Results arrive in item order and are identical to the
// same items run as individual ProtectedExchangeWith calls.
func (r *RemoteSimulation) ProtectedExchangeBatch(items []BatchItem) ([]ExchangeReport, error) {
	wireItems := make([]wire.ExchangeItem, len(items))
	for i, it := range items {
		wireItems[i] = wire.ExchangeItem{IMD: uint8(it.IMD), Cmd: wireCmd(it.Command)}
	}
	results, err := r.c.BatchExchange(wireItems)
	if err != nil {
		return nil, err
	}
	reports := make([]ExchangeReport, len(results))
	for i, res := range results {
		reports[i] = ExchangeReport{
			Response:        res.Response,
			ResponseCommand: res.ResponseCommand,
			EavesdropperBER: res.EavesBER,
			CancellationDB:  res.CancellationDB,
		}
	}
	return reports, nil
}

// Ping sends a keepalive probe; the server answers ahead of any queued
// scenario work and the probe resets the idle-reap clock.
func (r *RemoteSimulation) Ping() error { return r.c.Ping() }

// SessionMetrics reports this session's counters (the STATUS-METRICS
// frame): request mix, batching, pipelining depth, link traffic, and —
// on datagram sessions — the transport-level retransmission activity on
// both sides, so loss is observable instead of silently absorbed by the
// retry layer.
type SessionMetrics struct {
	SessionID        uint64
	Protocol         uint8
	Exchanges        uint64
	Batches          uint64
	BatchedExchanges uint64
	Attacks          uint64
	Experiments      uint64
	Pings            uint64
	Errors           uint64
	// Retransmits counts responses the server re-sent from its dedup
	// cache (a request retransmit arrived after the original response
	// was lost, or a client reused a request ID). 0 on a well-behaved
	// stream session.
	Retransmits uint64
	Rekeys      uint64
	ReplayDrops uint64
	// WindowAccepts counts out-of-order frames the server's securelink
	// receive window absorbed.
	WindowAccepts uint64
	BytesSealed   uint64
	BytesOpened   uint64
	InFlight      uint32
	InFlightHWM   uint32
	// Shed counts this session's requests answered BUSY by the global
	// load-shedding gate.
	Shed uint64
	// ProgressFrames counts streamed EXPERIMENT-PROGRESS frames the
	// server wrote to this session.
	ProgressFrames uint64
	// ClientRetransmits and ClientTimeouts are the client-side retry
	// counters (local, not from the wire): request datagrams re-sent,
	// and requests abandoned after exhausting retransmission. Always 0
	// on stream transports.
	ClientRetransmits uint64
	ClientTimeouts    uint64
}

// SessionMetrics returns the session's STATUS-METRICS snapshot merged
// with the client-side transport retry counters.
func (r *RemoteSimulation) SessionMetrics() (SessionMetrics, error) {
	m, err := r.c.Metrics()
	if err != nil {
		return SessionMetrics{}, err
	}
	ts := r.c.TransportStats()
	return SessionMetrics{
		SessionID:         m.SessionID,
		Protocol:          m.Protocol,
		Exchanges:         m.Exchanges,
		Batches:           m.Batches,
		BatchedExchanges:  m.BatchedExchanges,
		Attacks:           m.Attacks,
		Experiments:       m.Experiments,
		Pings:             m.Pings,
		Errors:            m.Errors,
		Retransmits:       m.Retransmits,
		Rekeys:            m.Rekeys,
		ReplayDrops:       m.ReplayDrops,
		WindowAccepts:     m.WindowAccepts,
		BytesSealed:       m.BytesSealed,
		BytesOpened:       m.BytesOpened,
		InFlight:          m.InFlight,
		InFlightHWM:       m.InFlightHWM,
		Shed:              m.Shed,
		ProgressFrames:    m.ProgressFrames,
		ClientRetransmits: ts.Retransmits,
		ClientTimeouts:    ts.Timeouts,
	}, nil
}

// TransportStats reports the client-side transport counters of a
// session: datagram retries (always zero on stream transports) and
// streamed experiment progress frames received.
type TransportStats struct {
	// Retransmits is the number of request datagrams re-sent after a
	// retry timeout.
	Retransmits uint64
	// Timeouts is the number of requests that failed after exhausting
	// every retransmission.
	Timeouts uint64
	// ProgressFrames is the number of streamed EXPERIMENT-PROGRESS
	// frames received.
	ProgressFrames uint64
}

// TransportStats returns the session's client-side retry counters.
func (r *RemoteSimulation) TransportStats() TransportStats {
	return TransportStats(r.c.TransportStats())
}

// Attack runs one unauthorized-command trial, equivalent to
// Simulation.Attack at the same seed.
func (r *RemoteSimulation) Attack(kind CommandKind, shieldOn bool) (AttackReport, error) {
	var rep AttackReport
	resp, err := r.c.Attack(wireCmd(kind), shieldOn)
	if err != nil {
		return rep, err
	}
	rep.ShieldOn = shieldOn
	rep.IMDResponded = resp.IMDResponded
	rep.TherapyChanged = resp.TherapyChanged
	rep.ShieldJammed = resp.ShieldJammed
	rep.Alarmed = resp.Alarmed
	rep.AdversaryRSSIDBm = resp.AdversaryRSSIDBm
	return rep, nil
}

// RunExperiment runs a registry experiment server-side and returns its
// rendered table/figure.
func (r *RemoteSimulation) RunExperiment(name string, cfg ExperimentConfig) (string, error) {
	return r.c.Experiment(wire.ExperimentReq{
		Name:    name,
		Seed:    cfg.Seed,
		Trials:  int32(cfg.Trials),
		Quick:   cfg.Quick,
		Workers: uint8(min(cfg.Workers, 255)),
	})
}

// ExperimentProgress is one streamed progress report from a server-side
// experiment run.
type ExperimentProgress struct {
	// Done and Total count completed trials out of the run's total.
	Done, Total int
	// Stage names what is running (currently the experiment name).
	Stage string
}

// RunExperimentStream runs a registry experiment server-side, invoking
// onProgress with incremental trial-completion reports while it runs,
// and returns the rendered table/figure. onProgress runs on the
// session's read loop: it must return quickly and must not call
// back into this session synchronously. The rendered result is
// byte-identical to RunExperiment with the same configuration.
func (r *RemoteSimulation) RunExperimentStream(name string, cfg ExperimentConfig, onProgress func(ExperimentProgress)) (string, error) {
	var cb func(*wire.ExperimentProgress)
	if onProgress != nil {
		cb = func(p *wire.ExperimentProgress) {
			onProgress(ExperimentProgress{Done: int(p.Done), Total: int(p.Total), Stage: p.Stage})
		}
	}
	return r.c.ExperimentStream(wire.ExperimentReq{
		Name:    name,
		Seed:    cfg.Seed,
		Trials:  int32(cfg.Trials),
		Quick:   cfg.Quick,
		Workers: uint8(min(cfg.Workers, 255)),
	}, cb)
}

// Status returns the server's session/exchange counters.
func (r *RemoteSimulation) Status() (ServerStatus, error) {
	st, err := r.c.Status()
	if err != nil {
		return ServerStatus{}, err
	}
	return ServerStatus{
		ActiveSessions:   int(st.ActiveSessions),
		PooledScenarios:  int(st.PooledScenarios),
		TotalSessions:    st.TotalSessions,
		TotalExchanges:   st.TotalExchanges,
		TotalExperiments: st.TotalExperiments,
	}, nil
}

// Close ends the session.
func (r *RemoteSimulation) Close() error { return r.c.Close() }

// ServerStatus reports server-wide counters.
type ServerStatus struct {
	ActiveSessions   int
	PooledScenarios  int
	TotalSessions    uint64
	TotalExchanges   uint64
	TotalExperiments uint64
}

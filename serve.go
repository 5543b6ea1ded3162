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

// ServeOptions configures a shield session server: the master secret,
// session and in-flight bounds, idle reaping, and admission control.
// Each option is documented on shieldd.ServerConfig; zero values select
// the defaults.
type ServeOptions = shieldd.ServerConfig

// Server is a running shield session service: it serves the
// securelink-sealed wire protocol over any net.Conn transport, and each
// session that runs physics builds its own testbed world. Results are
// deterministic per session seed regardless of concurrency or transport.
type Server struct {
	s *shieldd.Server
}

// NewServer builds a session server.
func NewServer(opt ServeOptions) (*Server, error) {
	s, err := shieldd.NewServer(opt)
	if err != nil {
		return nil, err
	}
	return &Server{s: s}, nil
}

// ServerMetrics is a point-in-time snapshot of server-wide counters
// (sessions, request mix, sealed/opened traffic, admission, and
// scrape-time gauges) — what the cmd/shieldd -metrics flag dumps
// periodically. Its String is that dump line; Get reads a counter by
// its name in the line.
type ServerMetrics = metrics.ServerSnapshot

// Metrics snapshots the server's aggregate counters.
func (s *Server) Metrics() ServerMetrics { return s.s.Metrics() }

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
	// re-handshake on its next request once its session has ended: the
	// server's idle reaper or a network fault closed the connection, or
	// on a datagram session a request ran out of retransmissions. Calls
	// in flight when it ended fail; the fresh session restarts the
	// deterministic result stream at the seed.
	AutoReconnect bool
	// RetryTimeout is the initial per-request retransmission timeout on
	// datagram sessions (0 = 250ms), doubling per retransmit. The
	// handshake waits out the same schedule on both transports before
	// failing.
	RetryTimeout time.Duration
	// MaxRetries bounds per-request retransmissions on datagram sessions
	// (0 = 8). A request that runs out of them fails and ends its
	// session, with or without AutoReconnect: the server could never fill
	// the gap its ID leaves. It also bounds the handshake's wait schedule
	// on both transports.
	MaxRetries int
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
// client becomes the socket's sole reader; a failed handshake closes pc.
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
	resp, err := r.c.Exchange(imdIdx, wireCmd(kind))
	if err != nil {
		return ExchangeReport{}, err
	}
	return exchangeReport(resp), nil
}

// exchangeReport converts a wire exchange result to its public form.
func exchangeReport(resp *wire.ExchangeResp) ExchangeReport {
	return ExchangeReport{
		Response:        resp.Response,
		ResponseCommand: resp.ResponseCommand,
		EavesdropperBER: resp.EavesBER,
		CancellationDB:  resp.CancellationDB,
	}
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
	m, err := p.call.Wait()
	if err != nil {
		return ExchangeReport{}, err
	}
	resp, ok := m.(*wire.ExchangeResp)
	if !ok {
		return ExchangeReport{}, fmt.Errorf("heartshield: unexpected response %T", m)
	}
	return exchangeReport(resp), nil
}

// StartProtectedExchange submits a shield-proxied exchange with the
// implant at imdIdx without waiting for the result, so one goroutine
// can keep a full send window of exchanges in flight (on datagram
// sessions, a lost request then delays only itself — the selective
// repeat layer retransmits just the missing ID). It blocks only while
// the session's window is full — while the request's ID would be 16 or
// more above the oldest request still unanswered — or a reconnect
// runs. Results are
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
	for i := range results {
		reports[i] = exchangeReport(&results[i])
	}
	return reports, nil
}

// Ping sends a keepalive probe; the server answers ahead of any queued
// scenario work and the probe resets the idle-reap clock.
func (r *RemoteSimulation) Ping() error { return r.c.Ping() }

// SessionMetrics reports one session's counters by name. Counters
// holds the session's STATUS-METRICS frame — its request mix, batching,
// pipelining depth and link traffic, then the server's counters under
// the "server." scope — followed by the client's TransportStats under
// "client.", so datagram loss is observable on both sides instead of
// silently absorbed by the retry layer. Get reads one counter; a name
// the server does not report reads 0.
type SessionMetrics struct {
	SessionID uint64
	Counters
}

// Counters is a list of named counters; Get reads one by name.
type Counters = wire.Counters

// SessionMetrics returns the session's STATUS-METRICS frame followed by
// the client-side transport counters.
func (r *RemoteSimulation) SessionMetrics() (SessionMetrics, error) {
	m, err := r.c.Metrics()
	if err != nil {
		return SessionMetrics{}, err
	}
	ts := r.c.TransportStats()
	metrics.Each(&ts, metrics.ClientScope, func(name string, v uint64) {
		m.Counters = append(m.Counters, wire.Counter{Name: name, Value: v})
	})
	return SessionMetrics{SessionID: m.SessionID, Counters: m.Counters}, nil
}

// TransportStats reports the client-side transport counters of a
// session: datagram retransmits and timeouts (always zero on stream
// transports) and streamed experiment progress frames received.
type TransportStats = shieldd.TransportStats

// TransportStats returns the session's client-side retry counters.
func (r *RemoteSimulation) TransportStats() TransportStats { return r.c.TransportStats() }

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
	return r.RunExperimentStream(name, cfg, nil)
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
// byte-identical to RunExperiment with the same configuration. Trials
// must lie in 0..4096, the most a server runs per point; a negative
// Workers means serial.
func (r *RemoteSimulation) RunExperimentStream(name string, cfg ExperimentConfig, onProgress func(ExperimentProgress)) (string, error) {
	if cfg.Trials < 0 || cfg.Trials > wire.MaxExperimentTrials {
		return "", fmt.Errorf("heartshield: ExperimentConfig.Trials %d out of range 0..%d", cfg.Trials, wire.MaxExperimentTrials)
	}
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
		Workers: uint8(min(max(cfg.Workers, 0), 255)),
	}, cb)
}

// Close ends the session.
func (r *RemoteSimulation) Close() error { return r.c.Close() }

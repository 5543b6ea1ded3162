package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heartshield"
	"heartshield/internal/shieldd"
	"heartshield/internal/stats"
	"heartshield/internal/wire"
)

// Mix is the per-session op mix as integer weights: each op of a
// session is drawn from the weighted distribution by the session's own
// seeded RNG, so the exact op sequence of session i is a pure function
// of (seed, i) — independent of which worker runs it and when.
type Mix struct {
	Exchange   int `json:"exchange"`
	Batch      int `json:"batch"`
	Ping       int `json:"ping"`
	Experiment int `json:"experiment"`
}

// DefaultMix exercises the scenario executor and the fast path without
// experiment-sized stalls.
var DefaultMix = Mix{Exchange: 2, Batch: 1, Ping: 5}

func (m Mix) total() int { return m.Exchange + m.Batch + m.Ping + m.Experiment }

// String renders the mix in ParseMix form.
func (m Mix) String() string {
	return fmt.Sprintf("exchange=%d,batch=%d,ping=%d,experiment=%d",
		m.Exchange, m.Batch, m.Ping, m.Experiment)
}

// ParseMix parses "exchange=2,batch=1,ping=5,experiment=0" (absent keys
// are zero).
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix term %q is not key=weight", part)
		}
		w, err := strconv.Atoi(v)
		if err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q must be a non-negative integer", v)
		}
		switch k {
		case "exchange":
			m.Exchange = w
		case "batch":
			m.Batch = w
		case "ping":
			m.Ping = w
		case "experiment":
			m.Experiment = w
		default:
			return m, fmt.Errorf("loadgen: unknown mix op %q", k)
		}
	}
	if m.total() == 0 {
		return m, errors.New("loadgen: mix has zero total weight")
	}
	return m, nil
}

// Endpoint is one dialable daemon transport.
type Endpoint struct {
	Daemon    int    `json:"daemon"`
	Transport string `json:"transport"` // "tcp" or "udp"
	Addr      string `json:"addr"`
}

// Config shapes one load run.
type Config struct {
	// Seed keys every session's sim seed and op stream.
	Seed int64
	// Secret is the pairing secret shared with the daemons.
	Secret []byte
	// Sessions is the total session count in fixed-count mode; ignored
	// in duration mode (Duration > 0), where workers cycle sessions
	// until the deadline.
	Sessions int
	// Workers is the client worker-pool size; each worker drives one
	// session at a time, so Workers is also the concurrency ceiling.
	Workers int
	// OpsPerSession is how many mix-drawn ops each session runs after
	// its opening ping.
	OpsPerSession int
	// Mix weights the op kinds (zero value = DefaultMix).
	Mix Mix
	// BatchSize is the exchanges per BATCH op (default 8).
	BatchSize int
	// Experiment names the registry experiment EXPERIMENT ops run
	// (default "fig7", always Quick).
	Experiment string
	// Duration switches to duration mode: workers cycle sessions until
	// the deadline instead of counting to Sessions.
	Duration time.Duration
	// OpenBarrier holds every session at a barrier after its open+ping
	// until all Sessions are open, proving Sessions-wide concurrency
	// before any scenario work begins. Requires Workers == Sessions and
	// fixed-count mode.
	OpenBarrier bool
	// OpenConcurrency caps how many sessions may be inside dial+open at
	// once (0 = unlimited). Opened sessions keep running; only the
	// handshake is gated. Without a cap, thousands of simultaneous HELLO
	// datagrams overflow the daemons' UDP receive buffers and the lost
	// handshakes stall for a full retransmission timeout.
	OpenConcurrency int
	// RetryTimeout/MaxRetries tune the datagram retransmission schedule
	// (0 = client defaults). Generous values keep a CPU-saturated soak
	// from failing sessions on spurious timeouts.
	RetryTimeout time.Duration
	MaxRetries   int
}

func (c Config) withDefaults() (Config, error) {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.BatchSize > 256 {
		return c, errors.New("loadgen: batch size exceeds wire.MaxBatch")
	}
	if c.Experiment == "" {
		c.Experiment = "fig7"
	}
	if c.OpsPerSession < 0 {
		return c, errors.New("loadgen: negative ops per session")
	}
	if c.Duration <= 0 && c.Sessions <= 0 {
		return c, errors.New("loadgen: set Sessions (fixed-count) or Duration (soak)")
	}
	if c.OpenBarrier {
		if c.Duration > 0 {
			return c, errors.New("loadgen: OpenBarrier requires fixed-count mode")
		}
		if c.Workers != c.Sessions {
			return c, errors.New("loadgen: OpenBarrier requires Workers == Sessions")
		}
	}
	if len(c.Secret) == 0 {
		return c, errors.New("loadgen: Secret is required")
	}
	return c, nil
}

// opCounts tallies client-observed ops. The Sim* counters are exchanges
// the serving system executed correctly but the simulated lossy channel
// failed — the paper's physics, not a harness defect: the session stays
// healthy and the outcome is deterministic per (seed, session, op). A
// batch aborts at its first failing item, so PartialBatchExchanges
// carries the items that did execute (the server counted them).
type opCounts struct {
	Exchanges             uint64 `json:"exchanges"`
	Batches               uint64 `json:"batches"`
	BatchedExchanges      uint64 `json:"batched_exchanges"`
	Pings                 uint64 `json:"pings"`
	Experiments           uint64 `json:"experiments"`
	SimFailedExchanges    uint64 `json:"sim_failed_exchanges"`
	SimFailedBatches      uint64 `json:"sim_failed_batches"`
	PartialBatchExchanges uint64 `json:"partial_batch_exchanges"`
	ClientRetransmits     uint64 `json:"client_retransmits"`
	ClientTimeouts        uint64 `json:"client_timeouts"`
	// ProgressFrames counts streamed EXPERIMENT-PROGRESS frames the
	// experiment ops observed. Transport-dependent on lossy links
	// (progress frames are fire-and-forget), so Normalize zeroes it.
	ProgressFrames uint64 `json:"progress_frames"`
}

func (a *opCounts) add(b opCounts) {
	a.Exchanges += b.Exchanges
	a.Batches += b.Batches
	a.BatchedExchanges += b.BatchedExchanges
	a.Pings += b.Pings
	a.Experiments += b.Experiments
	a.SimFailedExchanges += b.SimFailedExchanges
	a.SimFailedBatches += b.SimFailedBatches
	a.PartialBatchExchanges += b.PartialBatchExchanges
	a.ClientRetransmits += b.ClientRetransmits
	a.ClientTimeouts += b.ClientTimeouts
	a.ProgressFrames += b.ProgressFrames
}

// simFail reports whether err is a simulated exchange failure (the
// session is healthy; the modeled channel lost the exchange) and how
// many batch items completed server-side before it — the server's
// mid-batch abort message names the failing item index, which equals
// the completed-item count.
func simFail(err error) (completed int, ok bool) {
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeExchangeFailed {
		return 0, false
	}
	var item int
	if n, _ := fmt.Sscanf(we.Msg, "item %d:", &item); n == 1 {
		return item, true
	}
	return 0, true
}

// workerState is one worker's private accumulation; merged after the run.
type workerState struct {
	open        Hist
	op          Hist
	counts      opCounts
	survived    uint64
	failed      map[string]uint64
	closeErrors uint64
}

func (w *workerState) fail(reason string) {
	if w.failed == nil {
		w.failed = make(map[string]uint64)
	}
	w.failed[reason]++
}

// runner shares the run-wide state across workers.
type runner struct {
	cfg       Config
	endpoints []Endpoint
	next      atomic.Int64
	deadline  time.Time

	concurrent    atomic.Int64
	maxConcurrent atomic.Int64

	barrier chan struct{} // closed when every barrier session has resolved
	opened  atomic.Int64  // barrier arrivals (opens AND failed opens)
	openSem chan struct{} // bounds concurrent dial+open when non-nil
}

// Run drives the configured workload against the endpoints and returns
// the client half of the fleet report (daemon metrics and reconciliation
// are attached by RunFleet, which knows the daemons).
func Run(cfg Config, endpoints []Endpoint) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(endpoints) == 0 {
		return nil, errors.New("loadgen: no endpoints")
	}
	r := &runner{cfg: cfg, endpoints: endpoints}
	if cfg.OpenBarrier {
		r.barrier = make(chan struct{})
	}
	if cfg.OpenConcurrency > 0 {
		r.openSem = make(chan struct{}, cfg.OpenConcurrency)
	}
	if cfg.Duration > 0 {
		r.deadline = time.Now().Add(cfg.Duration)
	}

	states := make([]*workerState, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range states {
		states[i] = &workerState{}
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			r.work(w)
		}(states[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge the per-worker states; merge order cannot matter (tested).
	var open, op Hist
	var counts opCounts
	var survived, closeErrors uint64
	failed := make(map[string]uint64)
	for _, w := range states {
		open.Merge(&w.open)
		op.Merge(&w.op)
		counts.add(w.counts)
		survived += w.survived
		closeErrors += w.closeErrors
		for k, v := range w.failed {
			failed[k] += v
		}
	}
	var failedTotal uint64
	for _, v := range failed {
		failedTotal += v
	}
	if len(failed) == 0 {
		failed = nil
	}

	opened := open.Count()
	rep := &Report{
		Schema: reportSchema,
		Config: ReportConfig{
			Seed:          cfg.Seed,
			Sessions:      cfg.Sessions,
			Workers:       cfg.Workers,
			OpsPerSession: cfg.OpsPerSession,
			Mix:           cfg.Mix,
			BatchSize:     cfg.BatchSize,
			Experiment:    cfg.Experiment,
			DurationSec:   cfg.Duration.Seconds(),
			OpenBarrier:   cfg.OpenBarrier,
		},
		Endpoints: endpoints,
		Sessions: SessionStats{
			Opened:        opened,
			Survived:      survived,
			Failed:        failedTotal,
			FailReasons:   failed,
			CloseErrors:   closeErrors,
			MaxConcurrent: r.maxConcurrent.Load(),
		},
		Ops: counts,
	}
	rep.Latency.Open = open.Summary()
	rep.Latency.Op = op.Summary()
	rep.Throughput = Throughput{
		ElapsedSec:     elapsed.Seconds(),
		SessionsPerSec: float64(opened) / elapsed.Seconds(),
		OpsPerSec:      float64(op.Count()) / elapsed.Seconds(),
	}
	return rep, nil
}

// work is one worker's loop: claim the next session index until the
// fixed count is exhausted or the deadline passes.
func (r *runner) work(w *workerState) {
	for {
		idx := int(r.next.Add(1) - 1)
		if r.cfg.Duration > 0 {
			if time.Now().After(r.deadline) {
				return
			}
		} else if idx >= r.cfg.Sessions {
			return
		}
		r.runSession(idx, w)
		if r.cfg.OpenBarrier {
			return // barrier mode: exactly one session per worker
		}
	}
}

// barrierArrive marks one session's open attempt as resolved — success
// or failure — and, for successes, holds the session until every attempt
// has resolved. Failed opens MUST arrive too: if they didn't, one failed
// dial would strand the other Sessions-1 workers on the barrier forever.
// A shortfall surfaces through MaxConcurrent (and the -min-concurrent
// gate), not a hang.
func (r *runner) barrierArrive(wait bool) {
	if !r.cfg.OpenBarrier {
		return
	}
	if int(r.opened.Add(1)) == r.cfg.Sessions {
		close(r.barrier)
	}
	if wait {
		<-r.barrier
	}
}

// errClass folds an op error into a stable reason label (error strings
// carry addresses and timings; the report must stay schema-stable).
func errClass(err error) string {
	switch {
	case errors.Is(err, shieldd.ErrServerBusy):
		return "busy"
	case errors.Is(err, shieldd.ErrHandshakeTimeout):
		return "handshake-timeout"
	default:
		var nerr interface{ Timeout() bool }
		if errors.As(err, &nerr) && nerr.Timeout() {
			return "timeout"
		}
		return "error"
	}
}

// openSession dials and commits one session, inside the open-concurrency
// gate when one is configured. The opening ping commits the session
// server-side (admission + scenario build happen at the first sealed
// frame), so "opened" means "counted in the daemon's TotalSessions" —
// the invariant the reconciliation checks lean on — and open latency
// covers the full cost of a session becoming usable.
func (r *runner) openSession(ep Endpoint, seed int64, w *workerState) *heartshield.RemoteSimulation {
	if r.openSem != nil {
		r.openSem <- struct{}{}
		defer func() { <-r.openSem }()
	}
	opt := heartshield.DialOptions{
		SimOptions:   heartshield.SimOptions{Seed: seed},
		RetryTimeout: r.cfg.RetryTimeout,
		MaxRetries:   r.cfg.MaxRetries,
	}
	t0 := time.Now()
	var sim *heartshield.RemoteSimulation
	var err error
	switch ep.Transport {
	case "udp":
		sim, err = heartshield.DialUDP(ep.Addr, r.cfg.Secret, opt)
	default:
		sim, err = heartshield.Dial(ep.Addr, r.cfg.Secret, opt)
	}
	if err != nil {
		w.fail("dial-" + errClass(err))
		return nil
	}
	if err := sim.Ping(); err != nil {
		w.fail("open-ping-" + errClass(err))
		_ = sim.Close()
		return nil
	}
	w.counts.Pings++
	w.open.Record(time.Since(t0))
	return sim
}

// runSession opens, commits, and drives one session end to end.
func (r *runner) runSession(idx int, w *workerState) {
	ep := r.endpoints[idx%len(r.endpoints)]
	seed := stats.TrialSeed(r.cfg.Seed, idx)
	sim := r.openSession(ep, seed, w)
	if sim == nil {
		r.barrierArrive(false)
		return
	}

	cur := r.concurrent.Add(1)
	for {
		hwm := r.maxConcurrent.Load()
		if cur <= hwm || r.maxConcurrent.CompareAndSwap(hwm, cur) {
			break
		}
	}
	defer r.concurrent.Add(-1)

	r.barrierArrive(true)

	rng := rand.New(rand.NewSource(stats.DeriveSeed(seed, "loadgen-ops")))
	ok := true
	// Counted atomically: progress callbacks run on the session's read
	// loop, not this worker goroutine.
	var progressFrames uint64
	var err error
	for i := 0; i < r.cfg.OpsPerSession; i++ {
		kind := r.pickOp(rng)
		t := time.Now()
		switch kind {
		case "exchange":
			_, err = sim.ProtectedExchange(heartshield.Interrogate)
		case "batch":
			items := make([]heartshield.BatchItem, r.cfg.BatchSize)
			for j := range items {
				items[j] = heartshield.BatchItem{IMD: 0, Command: heartshield.Interrogate}
			}
			_, err = sim.ProtectedExchangeBatch(items)
		case "ping":
			err = sim.Ping()
		case "experiment":
			_, err = sim.RunExperimentStream(r.cfg.Experiment, heartshield.ExperimentConfig{
				Seed:  seed,
				Quick: true,
			}, func(heartshield.ExperimentProgress) {
				atomic.AddUint64(&progressFrames, 1)
			})
		}
		simFailed := false
		if err != nil {
			if completed, isSim := simFail(err); isSim {
				// The serving system round-tripped correctly; the modeled
				// channel failed the exchange. The session lives on.
				simFailed = true
				err = nil
				switch kind {
				case "exchange":
					w.counts.SimFailedExchanges++
				case "batch":
					w.counts.SimFailedBatches++
					w.counts.PartialBatchExchanges += uint64(completed)
				}
			} else {
				w.fail("op-" + kind + "-" + errClass(err))
				ok = false
				break
			}
		}
		w.op.Record(time.Since(t))
		if simFailed {
			continue
		}
		switch kind {
		case "exchange":
			w.counts.Exchanges++
		case "batch":
			w.counts.Batches++
			w.counts.BatchedExchanges += uint64(r.cfg.BatchSize)
		case "ping":
			w.counts.Pings++
		case "experiment":
			w.counts.Experiments++
		}
	}

	ts := sim.TransportStats()
	w.counts.ClientRetransmits += ts.Retransmits
	w.counts.ClientTimeouts += ts.Timeouts
	w.counts.ProgressFrames += atomic.LoadUint64(&progressFrames)
	if err := sim.Close(); err != nil {
		w.closeErrors++
	}
	if ok {
		w.survived++
	}
}

// pickOp draws one op kind from the weighted mix.
func (r *runner) pickOp(rng *rand.Rand) string {
	n := rng.Intn(r.cfg.Mix.total())
	if n < r.cfg.Mix.Exchange {
		return "exchange"
	}
	n -= r.cfg.Mix.Exchange
	if n < r.cfg.Mix.Batch {
		return "batch"
	}
	n -= r.cfg.Mix.Batch
	if n < r.cfg.Mix.Ping {
		return "ping"
	}
	return "experiment"
}

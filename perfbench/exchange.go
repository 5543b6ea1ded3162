package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"heartshield"
	"heartshield/internal/loadgen"
	"heartshield/internal/stats"
	"heartshield/internal/wire"
)

// checkPrefix is how many of each session's first exchanges the
// exchange workload re-runs in process to check the remote results.
const checkPrefix = 32

// outcome is one protected exchange as the client saw it.
type outcome struct {
	response  []byte
	ber, canc float64
	// simFailed marks an exchange the simulated channel lost (the server
	// answered CodeExchangeFailed): the paper's physics, not a fault.
	simFailed bool
	latency   time.Duration
}

func (o outcome) equal(p outcome) bool {
	if o.simFailed || p.simFailed {
		return o.simFailed == p.simFailed
	}
	return bytes.Equal(o.response, p.response) && o.ber == p.ber && o.canc == p.canc
}

// exchangeRig is the exchange workload: one in-process server and two
// long-lived sessions, session i over transport i (TCP, UDP).
type exchangeRig struct {
	daemon loadgen.Daemon
	sims   [exchangeSessions]*heartshield.RemoteSimulation
	names  [exchangeSessions]string // transport of session i
	seeds  [exchangeSessions]int64
	// results[i] is session i's outcome stream from its first exchange.
	results [exchangeSessions][]outcome
}

// startDaemon starts an in-process server on loopback TCP and UDP.
func startDaemon() (loadgen.Daemon, error) {
	return loadgen.StartInprocDaemon(0, []string{"tcp", "udp"}, heartshield.ServeOptions{Secret: secret})
}

func dial(ep loadgen.Endpoint, opt heartshield.DialOptions) (*heartshield.RemoteSimulation, error) {
	if ep.Transport == "udp" {
		return heartshield.DialUDP(ep.Addr, secret, opt)
	}
	return heartshield.Dial(ep.Addr, secret, opt)
}

// setupExchange starts the server and dials both sessions. Each session's
// first exchange commits it server-side and warms the plan and template
// caches; it is outcome 0 of the session's stream.
func setupExchange(seed int64) (runner, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	r := &exchangeRig{daemon: d}
	eps := d.Endpoints()
	for i := range r.sims {
		ep := eps[i%len(eps)]
		r.names[i] = ep.Transport
		r.seeds[i] = stats.TrialSeed(seed, i)
		sim, err := dial(ep, heartshield.DialOptions{SimOptions: heartshield.SimOptions{Seed: r.seeds[i]}})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("dial %s: %w", ep.Transport, err)
		}
		r.sims[i] = sim
		o, err := remoteExchange(sim)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("first exchange over %s: %w", ep.Transport, err)
		}
		r.results[i] = append(r.results[i], o)
	}
	return r, nil
}

// remoteExchange runs one client-timed ProtectedExchange. A simulated
// channel loss is an outcome, not an error.
func remoteExchange(sim *heartshield.RemoteSimulation) (outcome, error) {
	t := time.Now()
	rep, err := sim.ProtectedExchange(heartshield.Interrogate)
	o := outcome{latency: time.Since(t)}
	if err != nil {
		var we *wire.Error
		if errors.As(err, &we) && we.Code == wire.CodeExchangeFailed {
			o.simFailed = true
			return o, nil
		}
		return o, err
	}
	o.response, o.ber, o.canc = rep.Response, rep.EavesdropperBER, rep.CancellationDB
	return o, nil
}

// measure runs the exchange loop until deadline.
func (r *exchangeRig) measure(deadline time.Time, tr *tracer) (*leg, error) {
	before, err := r.daemon.Metrics()
	if err != nil {
		return nil, err
	}
	type clientLeg struct {
		op                timings
		attempted, failed int64
		simFailed         int64
		err               error
	}
	var per [exchangeSessions]clientLeg
	start := time.Now()
	lg := &leg{}
	// One closed loop takes the sessions in turn, so one exchange is in
	// flight at a time and the second core is left to the server's
	// transport goroutines and the garbage collector. (Two concurrent
	// loops on the 2-core reference machine measured the scheduler: p50
	// moved by up to 28% from run to run.)
	for i := 0; time.Now().Before(deadline); i = (i + 1) % exchangeSessions {
		c := &per[i]
		o, err := remoteExchange(r.sims[i])
		end := time.Now()
		c.attempted++
		if err != nil {
			c.failed++
			c.err = err
			break
		}
		tr.record("shieldd.exchange_"+r.names[i], "", int64(i)<<32|int64(len(r.results[i])), end.Add(-o.latency), end)
		c.op.add(o.latency)
		if o.simFailed {
			c.simFailed++
		}
		r.results[i] = append(r.results[i], o)
	}
	lg.wall = time.Since(start)
	var simFailed int64
	for i := range per {
		c := &per[i]
		lg.op.merge(&c.op)
		lg.attempted += c.attempted
		lg.failed += c.failed
		simFailed += c.simFailed
		if c.err != nil {
			fmt.Printf("exchange over %s failed: %v\n", r.names[i], c.err)
		}
	}
	lg.ops = int64(lg.op.count())
	lg.requests = lg.ops
	if err := r.serverDelta(lg, before); err != nil {
		return nil, err
	}
	lg.report = []string{
		fmt.Sprintf("tcp_p50_ms=%.4f udp_p50_ms=%.4f", per[0].op.quantile(0.5).Seconds()*1e3,
			per[1].op.quantile(0.5).Seconds()*1e3),
		fmt.Sprintf("simulated channel losses=%d of %d (checked exactly on the first %d per session)",
			simFailed, lg.ops, checkPrefix),
	}
	return lg, nil
}

// serverDelta records the server counters the leg moved and the sessions'
// client-side retransmissions.
func (r *exchangeRig) serverDelta(lg *leg, before heartshield.ServerMetrics) error {
	after, err := r.daemon.Metrics()
	if err != nil {
		return err
	}
	lg.server = metricsDelta(after, before)
	for _, sim := range r.sims {
		lg.clientRetransmits += sim.TransportStats().Retransmits
	}
	return nil
}

// check re-runs each session's first checkPrefix exchanges in process with
// NewSimulation at the session's seed: every remote result, simulated
// losses included, must match exactly.
func (r *exchangeRig) check() error {
	for i, res := range r.results {
		sim := heartshield.NewSimulation(heartshield.SimOptions{Seed: r.seeds[i]})
		for k := 0; k < min(checkPrefix, len(res)); k++ {
			want := localExchange(sim)
			if !res[k].equal(want) {
				return fmt.Errorf("session %d (%s) exchange %d: remote %+v != in-process %+v",
					i, r.names[i], k, res[k], want)
			}
		}
		var lost int
		for _, o := range res {
			if o.simFailed {
				lost++
			}
		}
		// The testbed loses well under 1% of exchanges; a high rate means
		// the physics broke even if the prefix agreed.
		if lost*20 > len(res) {
			return fmt.Errorf("session %d: %d of %d exchanges lost", i, lost, len(res))
		}
	}
	return nil
}

func localExchange(sim *heartshield.Simulation) outcome {
	rep, err := sim.ProtectedExchange(heartshield.Interrogate)
	if err != nil {
		return outcome{simFailed: true}
	}
	return outcome{response: rep.Response, ber: rep.EavesdropperBER, canc: rep.CancellationDB}
}

func (r *exchangeRig) close() {
	for _, sim := range r.sims {
		if sim != nil {
			_ = sim.Close() // teardown; the counters were already read
		}
	}
	_ = r.daemon.Close()
}

// metricsDelta subtracts the server counters the benchmark reads.
func metricsDelta(a, b heartshield.ServerMetrics) heartshield.ServerMetrics {
	return heartshield.ServerMetrics{
		TotalSessions:    a.TotalSessions - b.TotalSessions,
		TotalExchanges:   a.TotalExchanges - b.TotalExchanges,
		TotalBatches:     a.TotalBatches - b.TotalBatches,
		TotalAttacks:     a.TotalAttacks - b.TotalAttacks,
		TotalExperiments: a.TotalExperiments - b.TotalExperiments,
		TotalPings:       a.TotalPings - b.TotalPings,
		TotalRetransmits: a.TotalRetransmits - b.TotalRetransmits,
		BytesSealed:      a.BytesSealed - b.BytesSealed,
		ReplayDrops:      a.ReplayDrops - b.ReplayDrops,
		WindowAccepts:    a.WindowAccepts - b.WindowAccepts,
		CookiesSent:      a.CookiesSent - b.CookiesSent,
		CookieRejects:    a.CookieRejects - b.CookieRejects,
		ShedHandshakes:   a.ShedHandshakes - b.ShedHandshakes,
		ShedRequests:     a.ShedRequests - b.ShedRequests,
		RateLimited:      a.RateLimited - b.RateLimited,
	}
}

package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"heartshield"
	"heartshield/internal/loadgen"
	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// pingsPerSession is how many pings a churn session sends after the
// opening ping that commits it.
const pingsPerSession = 16

// churnRig is the churn workload: one in-process server that a closed
// loop repeatedly opens sessions against. Session i dials transport i%2 (TCP,
// UDP) at Fig. 6 location 1+i%18 with sim seed TrialSeed(seed, i).
type churnRig struct {
	seed   int64
	daemon loadgen.Daemon
	eps    []loadgen.Endpoint
	// next is the next session index; it continues across legs so every
	// session of a run has its own seed.
	next atomic.Int64
	// opened and pings are the client ledger since the first leg, and
	// server the server's counters moved since then; check reconciles them.
	opened, pings uint64
	baseline      *heartshield.ServerMetrics
	server        heartshield.ServerMetrics
}

// churnLeg is the client side of a leg.
type churnLeg struct {
	// session times a whole session, dial to close; open times dial to the
	// opening ping's reply.
	session, open     timings
	close             timings
	ping              [2]timings // by transport
	sessions, pings   uint64
	attempted, failed int64
	retransmits       uint64
	err               error
}

// setupChurn starts the server and warms it (pool, plan and template
// caches) with one session per transport.
func setupChurn(seed int64) (runner, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	r := &churnRig{seed: seed, daemon: d, eps: d.Endpoints()}
	var warm churnLeg
	for range r.eps {
		r.session(&warm, nil)
	}
	if warm.err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up session: %w", warm.err)
	}
	return r, nil
}

// session opens, uses and closes session r.next, adding to c.
func (r *churnRig) session(c *churnLeg, tr *tracer) {
	i := r.next.Add(1) - 1
	ep := r.eps[int(i)%len(r.eps)]
	opt := heartshield.DialOptions{SimOptions: heartshield.SimOptions{
		Seed:     stats.TrialSeed(r.seed, int(i)),
		Location: 1 + int(i)%len(testbed.Locations),
	}}
	c.attempted++
	fail := func(err error) {
		c.failed++
		if c.err == nil {
			c.err = fmt.Errorf("session %d over %s: %w", i, ep.Transport, err)
		}
	}
	t0 := time.Now()
	sim, err := dial(ep, opt)
	t1 := time.Now()
	if err != nil {
		fail(err)
		return
	}
	err = sim.Ping()
	t2 := time.Now()
	if err != nil {
		fail(err)
		_ = sim.Close() // the session already failed
		return
	}
	c.pings++
	c.open.add(t2.Sub(t0))
	tr.record("shieldd.dial_"+ep.Transport, "shieldd.session", i, t0, t1)
	tr.record("shieldd.first_ping", "shieldd.session", i, t1, t2)

	tp := 0
	if ep.Transport == "udp" {
		tp = 1
	}
	for k := 0; k < pingsPerSession; k++ {
		ts := time.Now()
		if err := sim.Ping(); err != nil {
			fail(err)
			_ = sim.Close() // the session already failed
			return
		}
		te := time.Now()
		c.pings++
		c.ping[tp].add(te.Sub(ts))
		tr.record("shieldd.ping_"+ep.Transport, "shieldd.session", i, ts, te)
	}
	c.retransmits += sim.TransportStats().Retransmits
	tc := time.Now()
	err = sim.Close()
	te := time.Now()
	if err != nil {
		fail(err)
		return
	}
	c.close.add(te.Sub(tc))
	c.session.add(te.Sub(t0))
	c.sessions++
	tr.record("shieldd.close", "shieldd.session", i, tc, te)
	tr.record("shieldd.session", "", i, t0, te)
}

// measure runs one closed loop of sessions until deadline, then waits for
// the server to tear every session down before reading its counters. (Two
// concurrent loops kept both cores of the 2-core reference machine busy
// with the AKE, and the open latency moved by up to 22% from run to run.)
func (r *churnRig) measure(deadline time.Time, tr *tracer) (*leg, error) {
	if err := r.drain(); err != nil {
		return nil, err
	}
	before, err := r.daemon.Metrics()
	if err != nil {
		return nil, err
	}
	if r.baseline == nil {
		r.baseline = &before
	}
	var all churnLeg
	start := time.Now()
	for all.err == nil && time.Now().Before(deadline) {
		r.session(&all, tr)
	}
	lg := &leg{wall: time.Since(start), attempted: all.attempted, failed: all.failed,
		clientRetransmits: all.retransmits}
	if all.err != nil {
		fmt.Println("churn:", all.err)
	}
	if err := r.drain(); err != nil {
		return nil, err
	}
	after, err := r.daemon.Metrics()
	if err != nil {
		return nil, err
	}
	lg.server = metricsDelta(after, before)
	r.opened += all.sessions
	r.pings += all.pings
	r.server = metricsDelta(after, *r.baseline)
	lg.op = all.session
	lg.ops = int64(all.sessions)
	lg.requests = int64(all.pings + 2*all.sessions) // + dial and close
	var pings timings
	pings.merge(&all.ping[0])
	pings.merge(&all.ping[1])
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 }
	open := &all.open
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	lg.report = []string{
		fmt.Sprintf("open_iqm_ms=%.4f ms (p50 %.4f ms, mean of the slowest 5%% %.4f ms)",
			ms(open.iqm()), ms(open.quantile(0.5)), ms(open.tailMean())),
		fmt.Sprintf("ping_p50_us=%.1f us", us(pings.quantile(0.5))),
		fmt.Sprintf("ping_p99_us=%.1f us (p%g, n=%d)", us(pings.quantile(pings.tailQuantile())),
			pings.tailQuantile()*100, pings.count()),
		fmt.Sprintf("ping_tcp_p50_us=%.1f ping_udp_p50_us=%.1f close_p50_us=%.1f",
			us(all.ping[0].quantile(0.5)), us(all.ping[1].quantile(0.5)), us(all.close.quantile(0.5))),
		fmt.Sprintf("open p90/p95/p98/p99/p99.9 ms over the whole window = %.3f/%.3f/%.3f/%.3f/%.3f",
			ms(open.quantile(0.9)), ms(open.quantile(0.95)), ms(open.quantile(0.98)),
			ms(open.quantile(0.99)), ms(open.quantile(0.999))),
	}
	return lg, nil
}

// drain waits until the server has torn down every closed session.
func (r *churnRig) drain() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := r.daemon.Metrics()
		if err != nil {
			return err
		}
		if m.ActiveSessions == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server still holds %d sessions after the clients closed them", m.ActiveSessions)
		}
		time.Sleep(time.Millisecond)
	}
}

// check reconciles the client ledger with the server's counter deltas
// through loadgen's reconciliation, and requires that nothing was
// shed, refused or rate-limited.
func (r *churnRig) check() error {
	rep := &loadgen.Report{Sessions: loadgen.SessionStats{Opened: r.opened}}
	rep.Ops.Pings = r.pings
	rep.Reconcile([]loadgen.DaemonReport{{ID: 0, Metrics: r.server}})
	var errs []error
	for _, c := range rep.Reconciliation.Checks {
		if !c.OK {
			errs = append(errs, fmt.Errorf("%s: client %d, server %d", c.Name, c.Client, c.Server))
		}
	}
	m := r.server
	if n := m.ShedHandshakes + m.ShedRequests + m.RateLimited + m.CookieRejects; n != 0 {
		errs = append(errs, fmt.Errorf("server shed, limited or refused %d requests", n))
	}
	if r.opened == 0 {
		errs = append(errs, errors.New("no session completed"))
	}
	return errors.Join(errs...)
}

func (r *churnRig) close() { _ = r.daemon.Close() }

package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"heartshield"
)

const (
	// probeWindow is how long the traced run drives a churn leg when the
	// workload is not churn, so every layer is measured on every workload.
	probeWindow = 1500 * time.Millisecond
	// phaseSumTolerance bounds |1 - testbed.phase_sum_ratio|: the replayed
	// phases must account for the whole replayed exchange.
	phaseSumTolerance = 0.02
)

// perLayer lists every metric the traced run reports, in BENCHMARK.json
// order.
var perLayer = []struct{ name, unit string }{
	{"testbed.new_trial_us", "us"},
	{"testbed.prepare_shield_us", "us"},
	{"testbed.exchange_us", "us"},
	{"testbed.phase_sum_ratio", "ratio"},
	{"testbed.reset_us", "us"},
	{"testbed.calibrate_us", "us"},
	{"testbed.new_scenario_ms", "ms"},
	{"testbed.new_trial_at_us", "us"},
	{"testbed.attack_trial_us", "us"},
	{"shieldcore.cancellation_us", "us"},
	{"shieldcore.place_command_us", "us"},
	{"shieldcore.collect_us", "us"},
	{"shieldcore.defend_window_us", "us"},
	{"imd.process_window_us", "us"},
	{"imd.attack_window_us", "us"},
	{"adversary.intercept_ber_us", "us"},
	{"adversary.replay_us", "us"},
	{"dsp.fft256_ns", "ns"},
	{"dsp.fft8192_ns", "ns"},
	{"dsp.rfft1024_ns", "ns"},
	{"dsp.fir129_ns", "ns"},
	{"stats.norm_ns", "ns"},
	{"experiments.ablation-antidote_ms", "ms"},
	{"experiments.ablation-bthresh_ms", "ms"},
	{"experiments.ablation-digital_ms", "ms"},
	{"experiments.ablation-probe_ms", "ms"},
	{"experiments.battery_ms", "ms"},
	{"experiments.fig11_ms", "ms"},
	{"experiments.fig12_ms", "ms"},
	{"experiments.fig13_ms", "ms"},
	{"experiments.fig3_ms", "ms"},
	{"experiments.fig4_ms", "ms"},
	{"experiments.fig5_ms", "ms"},
	{"experiments.fig7_ms", "ms"},
	{"experiments.fig8_ms", "ms"},
	{"experiments.fig9_ms", "ms"},
	{"experiments.mimo_ms", "ms"},
	{"experiments.ofdm_ms", "ms"},
	{"experiments.table1_ms", "ms"},
	{"experiments.table2_ms", "ms"},
	{"experiments.parallel_efficiency", "ratio"},
	{"shieldd.dial_tcp_us", "us"},
	{"shieldd.dial_udp_us", "us"},
	{"shieldd.first_ping_us", "us"},
	{"shieldd.close_us", "us"},
	{"shieldd.ping_tcp_us", "us"},
	{"shieldd.ping_udp_us", "us"},
	{"shieldd.exchange_tcp_ms", "ms"},
	{"shieldd.exchange_udp_ms", "ms"},
	{"shieldd.exchange_overhead_us", "us"},
	{"shieldd.retransmits_per_op", "count"},
	{"shieldd.client_retransmits_per_op", "count"},
	{"shieldd.replay_drops", "count"},
	{"shieldd.window_accepts", "count"},
	{"shieldd.cookies_sent_per_session", "count"},
	{"shieldd.shed_requests", "count"},
	{"securelink.x25519_us", "us"},
	{"securelink.key_schedule_us", "us"},
	{"securelink.ticket_mint_us", "us"},
	{"securelink.ticket_redeem_us", "us"},
	{"securelink.cookie_mint_ns", "ns"},
	{"securelink.cookie_verify_ns", "ns"},
	{"securelink.seal_ns", "ns"},
	{"securelink.open_ns", "ns"},
	{"securelink.bytes_sealed_per_op", "B"},
	{"wire.encode_env_ns", "ns"},
	{"wire.decode_env_ns", "ns"},
	{"dgram.encode_ns", "ns"},
	{"dgram.decode_ns", "ns"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead_frac", "ratio"},
}

// spanMetrics maps per-layer time metrics to the span they average.
// Experiments are added from the registry.
var spanMetrics = map[string]string{
	"testbed.new_trial_us":        "testbed.new_trial",
	"testbed.prepare_shield_us":   "testbed.prepare_shield",
	"testbed.exchange_us":         "testbed.exchange",
	"testbed.reset_us":            "testbed.reset",
	"testbed.calibrate_us":        "testbed.calibrate",
	"testbed.new_scenario_ms":     "testbed.new_scenario",
	"testbed.new_trial_at_us":     "testbed.new_trial_at",
	"testbed.attack_trial_us":     "testbed.attack_trial",
	"shieldcore.cancellation_us":  "shieldcore.cancellation",
	"shieldcore.place_command_us": "shieldcore.place_command",
	"shieldcore.collect_us":       "shieldcore.collect",
	"shieldcore.defend_window_us": "shieldcore.defend_window",
	"imd.process_window_us":       "imd.process_window",
	"imd.attack_window_us":        "imd.attack_window",
	"adversary.intercept_ber_us":  "adversary.intercept_ber",
	"adversary.replay_us":         "adversary.replay",
	"shieldd.dial_tcp_us":         "shieldd.dial_tcp",
	"shieldd.dial_udp_us":         "shieldd.dial_udp",
	"shieldd.first_ping_us":       "shieldd.first_ping",
	"shieldd.close_us":            "shieldd.close",
	"shieldd.ping_tcp_us":         "shieldd.ping_tcp",
	"shieldd.ping_udp_us":         "shieldd.ping_udp",
	"shieldd.exchange_tcp_ms":     "shieldd.exchange_tcp",
	"shieldd.exchange_udp_ms":     "shieldd.exchange_udp",
}

// unitScale converts nanoseconds to a time unit.
var unitScale = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

// runTraced is the per-layer run: the workload's own leg twice (untraced,
// then traced, for the tracing overhead), paired remote and replayed
// exchanges, a short churn leg, call-by-call replays of the attack path,
// the scenario lifecycle and the experiments, and isolated probes of the
// kernels, crypto and codecs. DESIGN.md lists what each part measures.
func runTraced(w workload, r runner, seed int64, window time.Duration) (*result, error) {
	half := window / 2
	base, err := r.measure(time.Now().Add(half), nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	own, err := r.measure(time.Now().Add(window-half), tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	runtime.ReadMemStats(&m1)
	ops := float64(max(own.ops, 1))
	m := map[string]metric{
		"runtime.alloc_bytes_per_op": {float64(m1.TotalAlloc-m0.TotalAlloc) / ops, "B"},
		"runtime.allocs_per_op":      {float64(m1.Mallocs-m0.Mallocs) / ops, "count"},
		"runtime.gc_cycles":          {float64(m1.NumGC - m0.NumGC), "count"},
		"bench.trace_overhead_frac":  {own.op.quantile(0.5).Seconds()/base.op.quantile(0.5).Seconds() - 1, "ratio"},
	}
	res := &result{Correct: true, Metrics: m}
	res.Attempted, res.Failed = base.attempted+own.attempted, base.failed+own.failed
	var gates []error
	if err := r.check(); err != nil {
		gates = append(gates, fmt.Errorf("%s: %w", w.name, err))
	}

	// Exchanges: paired remote and replayed runs attribute the time.
	attr, err := attributeExchanges(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("exchange attribution: %w", err)
	}
	serving := []*leg{attr.leg}
	if w.name != "figures" {
		serving = append(serving, own)
	}
	if w.name != "churn" {
		// A short churn leg times the session lifecycle spans.
		cr, err := setupChurn(seed)
		if err != nil {
			return nil, fmt.Errorf("churn probe set-up: %w", err)
		}
		defer cr.close()
		lg, err := cr.measure(time.Now().Add(probeWindow), tr)
		if err != nil {
			return nil, fmt.Errorf("churn probe: %w", err)
		}
		if err := cr.check(); err != nil {
			gates = append(gates, fmt.Errorf("churn probe: %w", err))
		}
		res.Attempted += lg.attempted
		res.Failed += lg.failed
		serving = append(serving, lg)
	}
	servingLayers(serving, m)
	if res.Failed > 0 {
		gates = append(gates, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted))
	}

	if _, err := replayAttacks(seed, tr); err != nil {
		gates = append(gates, err)
	}
	replayLifecycle(seed, tr)

	var figuresS float64
	if w.name == "figures" {
		figuresS = own.op.quantile(0.5).Seconds()
	}
	if err := experimentLayers(seed, tr, figuresS, m); err != nil {
		gates = append(gates, err)
	}

	probeKernels(seed, m)
	resp, err := firstResponse(seed)
	if err != nil {
		return nil, err
	}
	envs, err := probeWire(resp, m)
	if err != nil {
		return nil, err
	}
	if err := probeSecurelink(envs, m); err != nil {
		return nil, err
	}

	spans := spanStats(tr.hists())
	for metricName, spanName := range spanMetrics {
		ns, err := spans.meanNS(spanName)
		if err != nil {
			return nil, err
		}
		unit := metricName[strings.LastIndexByte(metricName, '_')+1:]
		m[metricName] = metric{ns / unitScale[unit], unit}
	}
	if err := exchangeSplit(attr, spans, m); err != nil {
		gates = append(gates, err)
	}
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			return nil, fmt.Errorf("traced run did not measure %s", pl.name)
		}
	}
	if err := tr.dump(fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", w.name, seed)); err != nil {
		fmt.Println("span dump skipped:", err)
	}
	if err := errors.Join(gates...); err != nil {
		res.Correct = false
		return res, err
	}
	return res, nil
}

// servingLayers derives the server and transport counters per client
// request from the serving legs.
func servingLayers(legs []*leg, m map[string]metric) {
	var s heartshield.ServerMetrics
	var req int64
	var cli uint64
	for _, lg := range legs {
		s.TotalSessions += lg.server.TotalSessions
		s.TotalRetransmits += lg.server.TotalRetransmits
		s.BytesSealed += lg.server.BytesSealed
		s.ReplayDrops += lg.server.ReplayDrops
		s.WindowAccepts += lg.server.WindowAccepts
		s.CookiesSent += lg.server.CookiesSent
		s.ShedRequests += lg.server.ShedRequests
		req += lg.requests
		cli += lg.clientRetransmits
	}
	perReq := func(v uint64) float64 { return float64(v) / float64(max(req, 1)) }
	m["shieldd.retransmits_per_op"] = metric{perReq(s.TotalRetransmits), "count"}
	m["shieldd.client_retransmits_per_op"] = metric{perReq(cli), "count"}
	m["shieldd.replay_drops"] = metric{float64(s.ReplayDrops), "count"}
	m["shieldd.window_accepts"] = metric{float64(s.WindowAccepts), "count"}
	m["shieldd.cookies_sent_per_session"] = metric{float64(s.CookiesSent) / float64(max(s.TotalSessions, 1)), "count"}
	m["shieldd.shed_requests"] = metric{float64(s.ShedRequests), "count"}
	m["securelink.bytes_sealed_per_op"] = metric{perReq(s.BytesSealed), "B"}
}

// experimentLayers renders the registry serially (one span per
// experiment) and, unless the figures workload already timed it, once at
// figuresWorkers; the two renders must be identical.
func experimentLayers(seed int64, tr *tracer, figuresS float64, m map[string]metric) error {
	rr, err := setupFigures(seed)
	if err != nil {
		return err
	}
	fr := rr.(*figuresRig)
	t := time.Now()
	serial := fr.pass(1, tr, "experiments.", 0)
	serialS := time.Since(t).Seconds()
	t = time.Now()
	parallel := fr.pass(figuresWorkers, nil, "", 0)
	if figuresS == 0 {
		figuresS = time.Since(t).Seconds()
	}
	m["experiments.parallel_efficiency"] = metric{serialS / (figuresWorkers * figuresS), "ratio"}
	spans := spanStats(tr.hists())
	for _, e := range fr.entries {
		ns, err := spans.meanNS("experiments." + e.Name)
		if err != nil {
			return err
		}
		m["experiments."+e.Name+"_ms"] = metric{ns / 1e6, "ms"}
	}
	for name, out := range serial {
		if parallel[name] != out {
			return fmt.Errorf("%s: Workers=1 and Workers=%d renders differ", name, figuresWorkers)
		}
	}
	return nil
}

// exchangeSplit attributes one exchange's time to its layers: the
// replayed physics phases, and the serving overhead (remote exchange on
// the same sessions and indices minus the replay). It prints the "where
// an exchange's time goes" table and gates the layer sum.
func exchangeSplit(a *attribution, spans spanStats, m map[string]metric) error {
	if a.overhead.count() == 0 {
		return errors.New("no exchange was replayed to attribute")
	}
	wholeNS := spans.totalNS("testbed.exchange")
	var phaseNS float64
	for _, p := range exchangePhases {
		phaseNS += spans.totalNS(p)
	}
	ratio := phaseNS / wholeNS
	m["testbed.phase_sum_ratio"] = metric{ratio, "ratio"}
	overheadUS := a.overhead.quantile(0.5).Seconds() * 1e6
	m["shieldd.exchange_overhead_us"] = metric{overheadUS, "us"}

	// Means add up: remote = replayed phases + unattributed + serving.
	remoteUS := a.remote.mean().Seconds() * 1e6
	calls := float64(max(spans["testbed.exchange"].Count(), 1))
	fmt.Printf("where an exchange's time goes (means over %d remote exchanges, each paired with its replay)\n",
		a.remote.count())
	row := func(name string, us float64) {
		fmt.Printf("  %-28s %10.1f us %6.1f%%\n", name, us, 100*us/remoteUS)
	}
	for _, p := range exchangePhases {
		row(p, spans.totalNS(p)/calls/1e3)
	}
	row("(unattributed replay)", (wholeNS-phaseNS)/calls/1e3)
	row("shieldd serving", remoteUS-a.replay.mean().Seconds()*1e6)
	row("remote exchange", remoteUS)
	fmt.Printf("  shieldd.exchange_overhead_us (median of pairs) = %.1f us\n", overheadUS)

	var errs []error
	if math.Abs(1-ratio) > phaseSumTolerance {
		errs = append(errs, fmt.Errorf("testbed.phase_sum_ratio %.4f is outside 1±%g", ratio, phaseSumTolerance))
	}
	if overheadUS < 0 {
		errs = append(errs, fmt.Errorf("shieldd.exchange_overhead_us %.1f is negative", overheadUS))
	}
	return errors.Join(errs...)
}

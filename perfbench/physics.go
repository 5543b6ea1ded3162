package main

import (
	"fmt"
	"time"

	"heartshield/internal/adversary"
	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// Replay budgets: how long the traced run spends re-running each physics
// path call by call.
const (
	replayBudget    = 3 * time.Second
	attackBudget    = 800 * time.Millisecond
	lifecycleBudget = 600 * time.Millisecond
)

// exchangePhases are the spans of one replayed exchange, in the order
// Scenario.RunProtectedExchange makes the calls.
var exchangePhases = []string{
	"testbed.new_trial",
	"testbed.prepare_shield",
	"shieldcore.cancellation",
	"shieldcore.place_command",
	"imd.process_window",
	"shieldcore.collect",
	"adversary.intercept_ber",
}

// lapper records consecutive spans of one request under one parent.
type lapper struct {
	tr     *tracer
	parent string
	req    int64
	last   time.Time
}

func (l *lapper) lap(name string) {
	now := time.Now()
	l.tr.record(name, l.parent, l.req, l.last, now)
	l.last = now
}

// newSessionScenario builds the world a server session at seed runs in,
// exactly as heartshield.NewSimulation and the server do.
func newSessionScenario(seed int64) (*testbed.Scenario, *adversary.Eavesdropper) {
	sc := testbed.NewScenario(testbed.Options{Seed: seed})
	sc.CalibrateShieldRSSI()
	cfo := testbed.IMDCFOHz
	return sc, &adversary.Eavesdropper{
		Antenna: testbed.AntEavesdropper,
		Medium:  sc.Medium,
		RX:      sc.EavesRX,
		Modem:   sc.FSK,
		CFOHint: &cfo,
	}
}

// replayExchange runs one protected exchange of the primary IMD through
// the exported calls Scenario.RunProtectedExchange makes, in its order,
// timing each call.
func replayExchange(sc *testbed.Scenario, eaves *adversary.Eavesdropper, tr *tracer, req int64) (outcome, time.Duration) {
	const whole = "testbed.exchange"
	cmd := sc.InterrogateFrame()
	t0 := time.Now()
	l := lapper{tr: tr, parent: whole, req: req, last: t0}
	done := func(o outcome) (outcome, time.Duration) {
		end := time.Now()
		tr.record(whole, "", req, t0, end)
		return o, end.Sub(t0)
	}
	sc.NewTrial()
	l.lap(exchangePhases[0])
	sc.PrepareShield()
	l.lap(exchangePhases[1])
	canc := sc.Shield.CancellationDB(4096)
	l.lap(exchangePhases[2])
	pending, err := sc.Shield.PlaceCommand(cmd, 0)
	l.lap(exchangePhases[3])
	if err != nil {
		return done(outcome{simFailed: true})
	}
	re := sc.IMDs[0].ProcessWindow(0, 12000)
	l.lap(exchangePhases[4])
	if !re.Responded {
		return done(outcome{simFailed: true})
	}
	res := pending.Collect()
	l.lap(exchangePhases[5])
	if res.Response == nil {
		return done(outcome{simFailed: true})
	}
	truth := re.Response.MarshalBits()
	ber := eaves.InterceptBER(sc.Channel(), re.ResponseBurst.Start, truth)
	l.lap(exchangePhases[6])
	return done(outcome{response: res.Response.Payload, ber: ber, canc: canc})
}

// attribution pairs remote exchanges with their in-process replays.
type attribution struct {
	// remote and replay time the same exchanges (same session seed and
	// index), each session's first exchange excluded: it warmed the caches.
	remote, replay timings
	// overhead is remote minus replay, pair by pair: the serving path.
	overhead timings
	leg      *leg
}

// attributeExchanges opens the exchange workload's two sessions on a
// fresh server and, taking the sessions in turn from one loop as the
// workload does, runs each remote exchange followed by its in-process
// replay at the same seed and index, until replayBudget is spent.
// Interleaving the pair puts both under the same machine conditions, so
// their difference is the serving path. Every replayed outcome must equal
// the remote one.
func attributeExchanges(seed int64, tr *tracer) (*attribution, error) {
	rr, err := setupExchange(seed)
	if err != nil {
		return nil, err
	}
	r := rr.(*exchangeRig)
	defer r.close()
	before, err := r.daemon.Metrics()
	if err != nil {
		return nil, err
	}
	var per [exchangeSessions]attribution
	var scs [exchangeSessions]*testbed.Scenario
	var eaves [exchangeSessions]*adversary.Eavesdropper
	for i := range scs {
		scs[i], eaves[i] = newSessionScenario(r.seeds[i])
	}
	deadline := time.Now().Add(replayBudget)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		for i := range r.sims {
			a := &per[i]
			req := int64(i)<<32 | int64(k)
			want := r.results[i][0] // the set-up exchange
			if k > 0 {
				var err error
				if want, err = remoteExchange(r.sims[i]); err != nil {
					return nil, fmt.Errorf("session %d exchange %d: %w", i, k, err)
				}
				end := time.Now()
				tr.record("shieldd.exchange_"+r.names[i], "", req, end.Add(-want.latency), end)
			}
			got, d := replayExchange(scs[i], eaves[i], tr, req)
			if !got.equal(want) {
				return nil, fmt.Errorf("replay of session %d exchange %d: %+v != remote %+v", i, k, got, want)
			}
			if k > 0 {
				a.remote.add(want.latency)
				a.replay.add(d)
				a.overhead.add(want.latency - d)
			}
		}
	}
	out := &attribution{leg: &leg{}}
	for i := range per {
		out.remote.merge(&per[i].remote)
		out.replay.merge(&per[i].replay)
		out.overhead.merge(&per[i].overhead)
	}
	out.leg.requests = int64(out.remote.count())
	if err := r.serverDelta(out.leg, before); err != nil {
		return nil, err
	}
	return out, nil
}

// replayAttack runs one shield-on replay attack through the exported calls
// Scenario.RunAttackTrial makes, in its order, timing each call.
func replayAttack(sc *testbed.Scenario, adv *adversary.Active, tr *tracer, req int64) testbed.AttackOutcome {
	const whole = "testbed.attack_trial"
	cmd := sc.InterrogateFrame()
	t0 := time.Now()
	l := lapper{tr: tr, parent: whole, req: req, last: t0}
	var out testbed.AttackOutcome
	sc.NewTrial()
	alarmsBefore := len(sc.Shield.Alarms())
	sc.PrepareShield()
	l.lap("testbed.attack_prepare")
	b := adv.Replay(sc.Channel(), 1000, cmd)
	l.lap("adversary.replay")
	window := int(b.End()) + 2500
	dr := sc.Shield.DefendWindow(0, window)
	l.lap("shieldcore.defend_window")
	out.Jammed = dr.Jammed
	out.RSSIAtShieldDBm = dr.RSSIDBm
	out.Alarmed = len(sc.Shield.Alarms()) > alarmsBefore
	re := sc.IMD.ProcessWindow(0, window)
	l.lap("imd.attack_window")
	out.Responded = re.Responded
	out.TherapyChanged = re.TherapyChanged
	tr.record(whole, "", req, t0, time.Now())
	return out
}

func newAttackScenario(seed int64) (*testbed.Scenario, *adversary.Active) {
	sc := testbed.NewScenario(testbed.Options{Seed: seed})
	sc.CalibrateShieldRSSI()
	return sc, &adversary.Active{
		Antenna: testbed.AntAdversary,
		Medium:  sc.Medium,
		TX:      sc.AdvTX,
		RX:      sc.AdvRX,
		Modem:   sc.FSK,
	}
}

// replayAttacks replays keyed attack trials (the experiments' NewTrialAt
// reseed, then the attack) on one scenario and runs the same trials
// through RunAttackTrial on a twin; the outcomes must agree.
func replayAttacks(seed int64, tr *tracer) (int, error) {
	sc, adv := newAttackScenario(stats.DeriveSeed(seed, "perfbench-attack"))
	twin, twinAdv := newAttackScenario(stats.DeriveSeed(seed, "perfbench-attack"))
	deadline := time.Now().Add(attackBudget)
	n := 0
	for ; n == 0 || time.Now().Before(deadline); n++ {
		t := time.Now()
		sc.NewTrialAt(n)
		tr.record("testbed.new_trial_at", "", int64(n), t, time.Now())
		got := replayAttack(sc, adv, tr, int64(n))
		twin.NewTrialAt(n)
		want := twin.RunAttackTrial(twinAdv, twin.InterrogateFrame(), true)
		if got != want {
			return n, fmt.Errorf("replay of attack trial %d: %+v != RunAttackTrial %+v", n, got, want)
		}
	}
	return n, nil
}

// replayLifecycle times the session lifecycle calls of the server's
// scenario pool: a fresh scenario (NewScenario + CalibrateShieldRSSI), and
// a recycled one (Reset to a new session seed + CalibrateIMD).
func replayLifecycle(seed int64, tr *tracer) {
	deadline := time.Now().Add(lifecycleBudget)
	var sc *testbed.Scenario
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		s := stats.TrialSeed(seed, i)
		t := time.Now()
		if i%8 == 0 {
			sc = testbed.NewScenario(testbed.Options{Seed: s})
			sc.CalibrateShieldRSSI()
			tr.record("testbed.new_scenario", "", int64(i), t, time.Now())
			continue
		}
		sc.Reset(s)
		t1 := time.Now()
		sc.CalibrateIMD(0)
		tr.record("testbed.reset", "", int64(i), t, t1)
		tr.record("testbed.calibrate", "", int64(i), t1, time.Now())
	}
}

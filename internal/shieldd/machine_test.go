package shieldd

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"heartshield/internal/metrics"
	"heartshield/internal/wire"
)

// machineRig runs a session machine with no goroutine, socket or clock:
// a fake work budget (0 means unlimited), a fake STATUS-METRICS answer,
// and virtual time.
type machineRig struct {
	m      *sessionMachine
	met    metrics.Session
	srv    metrics.Server
	budget int
	used   int
	now    time.Time
}

// rigIdle is the idle timeout of every rig.
const rigIdle = time.Second

func newMachineRig(budget int, reliable bool) *machineRig {
	r := &machineRig{budget: budget, now: time.Unix(1000, 0)}
	r.m = &sessionMachine{l: newLedger(), cfg: machineConfig{
		reliable:    reliable,
		idleTimeout: rigIdle,
		acquireWork: func() bool {
			if r.budget > 0 && r.used == r.budget {
				return false
			}
			r.used++
			return true
		},
		releaseWork:      func() { r.used-- },
		answerMetrics:    func() wire.Message { return &wire.MetricsResp{SessionID: 7} },
		retryAfterMillis: 5,
		met:              &r.met,
		srv:              &r.srv,
	}}
	return r
}

// Request kinds the rig sends and the fuzzer's client submits.
const (
	reqPing = iota
	reqExchange
	reqBatch
	reqAttack
	reqExperiment
	reqOverBound // an EXPERIMENT above wire.MaxExperimentTrials
	reqMetrics
	reqMalformed  // a readable ID over an undecodable message
	reqFlagged    // a request envelope with the partial flag set
	reqUnexpected // a well-formed message that is not a request
	reqBye
)

// requestMessage returns the message of a request kind; nil for
// reqMalformed and reqFlagged.
func requestMessage(kind int, id uint64) wire.Message {
	switch kind {
	case reqPing:
		return &wire.Ping{Token: id}
	case reqExchange:
		return &wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate}
	case reqBatch:
		return &wire.BatchReq{Items: []wire.ExchangeItem{{IMD: 0, Cmd: wire.CmdInterrogate}}}
	case reqAttack:
		return &wire.AttackReq{Cmd: wire.CmdSetTherapy, ShieldOn: true}
	case reqExperiment:
		return &wire.ExperimentReq{Name: "fig7", Seed: int64(id), Trials: 64}
	case reqOverBound:
		return &wire.ExperimentReq{Name: "fig7", Trials: wire.MaxExperimentTrials + 1}
	case reqMetrics:
		return &wire.MetricsReq{}
	case reqUnexpected:
		return &wire.Pong{Token: id}
	case reqBye:
		return &wire.Bye{}
	}
	return nil
}

// requestPlain is the plaintext of request kind under id and the
// client's cumulative report cum.
func requestPlain(kind int, id, cum uint64) []byte {
	switch kind {
	case reqMalformed:
		b := wire.EncodeEnvelopeV3(id, 0, cum, &wire.Ping{Token: id})
		b[17] = 0xEE // no such message kind
		return b
	case reqFlagged:
		return wire.EncodeEnvelopeV3(id, wire.EnvPartial, cum, &wire.Ping{Token: id})
	}
	return wire.EncodeEnvelopeV3(id, 0, cum, requestMessage(kind, id))
}

// shortPlain is an authentic plaintext too short to carry an ID.
var shortPlain = []byte{0xde, 0xad}

// opResult is the fake result of an ordered op.
func opResult(id uint64) wire.Message { return &wire.ExchangeResp{EavesBER: float64(id)} }

// experimentResult is the fake final answer of an experiment.
func experimentResult(id uint64) wire.Message {
	return &wire.ExperimentResp{Rendered: fmt.Sprint("experiment ", id)}
}

// msgName is a short name of a response for the rule tables.
func msgName(m wire.Message) string {
	switch r := m.(type) {
	case *wire.Pong:
		return "pong"
	case *wire.Busy:
		return "busy"
	case *wire.Error:
		if r.Code == wire.CodeBadRequest {
			return "bad"
		}
		return fmt.Sprintf("error%d", r.Code)
	case *wire.Bye:
		return "bye"
	case *wire.ExchangeResp:
		return "result"
	case *wire.ExperimentResp:
		return "experiment"
	case *wire.ExperimentProgress:
		return "progress"
	case *wire.MetricsResp:
		return "metrics"
	}
	return fmt.Sprintf("%T", m)
}

// render writes one event's actions as text, e.g. "send 1 pong; exec 2".
func render(acts []action) string {
	var parts []string
	for _, a := range acts {
		switch a.kind {
		case actSend:
			parts = append(parts, fmt.Sprintf("send %d %s", a.env.id, msgName(a.env.msg)))
		case actExecute:
			parts = append(parts, fmt.Sprintf("exec %d", a.env.id))
		case actStart:
			parts = append(parts, fmt.Sprintf("start %d", a.env.id))
		case actClose:
			parts = append(parts, "close")
		case actReap:
			parts = append(parts, "reap")
		}
	}
	return strings.Join(parts, "; ")
}

// machineStep is one event of a rule table and what it must render;
// state, when set, is checked after the event (see rigState).
type machineStep struct {
	ev    func(*machineRig) []action
	want  string
	state string
}

func rq(id uint64, kind int) func(*machineRig) []action {
	return func(r *machineRig) []action { return r.m.request(requestPlain(kind, id, 0), r.now) }
}

func rqShort() func(*machineRig) []action {
	return func(r *machineRig) []action { return r.m.request(shortPlain, r.now) }
}

func executed(id uint64) func(*machineRig) []action {
	return func(r *machineRig) []action { return r.m.done(id, opResult(id)) }
}

func partial(id uint64) func(*machineRig) []action {
	return func(r *machineRig) []action { return r.m.progress(id, &wire.ExperimentProgress{Done: 1}) }
}

func finished(id uint64) func(*machineRig) []action {
	return func(r *machineRig) []action { return r.m.done(id, experimentResult(id)) }
}

func tickAfter(d time.Duration) func(*machineRig) []action {
	return func(r *machineRig) []action {
		r.now = r.now.Add(d)
		return r.m.tick(r.now)
	}
}

func transportEnds() func(*machineRig) []action {
	return func(r *machineRig) []action {
		r.m.end()
		return nil
	}
}

// rigState renders what the rule tables check besides actions.
func rigState(r *machineRig) string {
	return fmt.Sprintf("inflight=%d budget=%d", r.met.InFlight(), r.used)
}

// TestMachineRules drives the session machine directly, in virtual
// time, through the rules that otherwise only socket-and-clock tests
// reach.
func TestMachineRules(t *testing.T) {
	for _, tc := range []struct {
		name     string
		budget   int
		reliable bool
		steps    []machineStep
	}{
		{name: "an idle tick reaps a quiet session", steps: []machineStep{
			{ev: rq(1, reqPing), want: "send 1 pong"},
			{ev: tickAfter(rigIdle - time.Millisecond), want: ""},
			{ev: rq(2, reqPing), want: "send 2 pong"},
			{ev: tickAfter(rigIdle - time.Millisecond), want: ""},
			{ev: tickAfter(time.Millisecond), want: "reap", state: "inflight=0 budget=0"},
			{ev: rq(3, reqPing), want: ""},
		}},
		{name: "requests waiting above a gap are not live work", steps: []machineStep{
			{ev: rq(2, reqExchange), want: ""},
			{ev: rq(3, reqBye), want: "", state: "inflight=2 budget=0"},
			{ev: tickAfter(rigIdle), want: "reap", state: "inflight=0 budget=0"},
			{ev: rq(1, reqExchange), want: ""},
		}},
		{name: "a running experiment or op is live work", steps: []machineStep{
			{ev: rq(1, reqExperiment), want: "start 1"},
			{ev: tickAfter(2 * rigIdle), want: ""},
			{ev: partial(1), want: "send 1 progress"},
			{ev: finished(1), want: "send 1 experiment"},
			{ev: rq(2, reqAttack), want: "exec 2"},
			{ev: tickAfter(2 * rigIdle), want: ""},
			{ev: executed(2), want: "send 2 result"},
			{ev: tickAfter(rigIdle), want: "reap"},
		}},
		{name: "an ordered op refused the work budget is answered BUSY and lets the cursor pass", budget: 1, steps: []machineStep{
			{ev: rq(1, reqExperiment), want: "start 1", state: "inflight=1 budget=1"},
			{ev: rq(3, reqExchange), want: ""},
			{ev: rq(2, reqExchange), want: "send 2 busy; send 3 busy", state: "inflight=1 budget=1"},
			{ev: rq(4, reqBatch), want: "send 4 busy"},
			{ev: finished(1), want: "send 1 experiment", state: "inflight=0 budget=0"},
			{ev: rq(5, reqExchange), want: "exec 5", state: "inflight=1 budget=1"},
			{ev: rq(6, reqExperiment), want: "send 6 busy"},
			{ev: executed(5), want: "send 5 result", state: "inflight=0 budget=0"},
		}},
		{name: "ordered ops execute one at a time in ID order", steps: []machineStep{
			{ev: rq(2, reqBatch), want: ""},
			{ev: rq(4, reqAttack), want: ""},
			{ev: rq(3, reqPing), want: "send 3 pong"},
			{ev: rq(1, reqExchange), want: "exec 1", state: "inflight=3 budget=3"},
			{ev: executed(1), want: "send 1 result; exec 2"},
			{ev: executed(2), want: "send 2 result; exec 4"},
			{ev: executed(4), want: "send 4 result", state: "inflight=0 budget=0"},
		}},
		{name: "the BYE waits to be the only request in flight and its reply is last", steps: []machineStep{
			{ev: rq(1, reqExperiment), want: "start 1"},
			{ev: rq(2, reqExchange), want: "exec 2"},
			{ev: rq(3, reqBye), want: ""},
			{ev: rq(4, reqPing), want: "", state: "inflight=3 budget=2"},
			{ev: executed(2), want: "send 2 result"},
			{ev: partial(1), want: "send 1 progress"},
			{ev: finished(1), want: "send 1 experiment; send 3 bye; close", state: "inflight=0 budget=0"},
			{ev: rq(1, reqExperiment), want: ""},
			{ev: tickAfter(2 * rigIdle), want: ""},
		}},
		{name: "ordered ops released above the BYE are dropped unanswered", steps: []machineStep{
			{ev: rq(2, reqBye), want: ""},
			{ev: rq(3, reqExchange), want: ""},
			{ev: rq(5, reqAttack), want: "", state: "inflight=3 budget=0"},
			{ev: rq(1, reqExchange), want: "exec 1", state: "inflight=2 budget=1"},
			{ev: rq(4, reqPing), want: ""},
			{ev: executed(1), want: "send 1 result; send 2 bye; close", state: "inflight=0 budget=0"},
		}},
		{name: "a fresh request that meets a full window is dropped, and its retransmit after a slot frees is admitted", steps: append(
			startExperiments(1, requestWindow),
			machineStep{ev: rq(requestWindow+1, reqPing), want: "", state: "inflight=16 budget=16"},
			machineStep{ev: partial(3), want: "send 3 progress", state: "inflight=16 budget=16"},
			machineStep{ev: finished(3), want: "send 3 experiment", state: "inflight=15 budget=15"},
			machineStep{ev: rq(requestWindow+1, reqPing), want: "send 17 pong", state: "inflight=15 budget=15"},
			machineStep{ev: rq(requestWindow+2, reqExchange), want: "exec 18"},
			machineStep{ev: rq(requestWindow+3, reqAttack), want: "", state: "inflight=16 budget=16"},
			machineStep{ev: executed(requestWindow + 2), want: "send 18 result", state: "inflight=15 budget=15"},
			machineStep{ev: rq(requestWindow+3, reqAttack), want: "exec 19", state: "inflight=16 budget=16"},
		)},
		{name: "a peer that never sends ID 1 has exactly a window of its PINGs answered", steps: append(
			pingsAboveGap(2, 100_001, requestWindow+1),
			machineStep{ev: rq(1, reqPing), want: "send 1 pong", state: "inflight=0 budget=0"},
			machineStep{ev: rq(requestWindow+2, reqPing), want: "send 18 pong"},
		)},
		{name: "the BYE's slot is outside the window", steps: append(
			waitingAboveGap(2, requestWindow),
			machineStep{ev: rq(requestWindow+1, reqBye), want: "", state: "inflight=16 budget=0"},
			machineStep{ev: rq(requestWindow+2, reqBye), want: ""},
			machineStep{ev: rq(1, reqExchange), want: "exec 1", state: "inflight=17 budget=16"},
		)},
		{name: "the transport's end drops waiting requests", steps: append(
			startExperiments(2, requestWindow),
			machineStep{ev: rq(requestWindow+1, reqExchange), want: "", state: "inflight=16 budget=15"},
			machineStep{ev: transportEnds(), want: "", state: "inflight=15 budget=15"},
			machineStep{ev: finished(2), want: "", state: "inflight=14 budget=14"},
			machineStep{ev: rq(1, reqPing), want: ""},
		)},
		{name: "a malformed envelope is answered under its ID, or as ID 0", steps: []machineStep{
			{ev: rqShort(), want: "send 0 bad", state: "inflight=0 budget=0"},
			{ev: rq(2, reqExchange), want: ""},
			{ev: rq(1, reqMalformed), want: "send 1 bad; exec 2"},
			{ev: rq(3, reqUnexpected), want: "send 3 bad"},
			{ev: rq(4, reqOverBound), want: "send 4 bad", state: "inflight=1 budget=1"},
			{ev: rqShort(), want: "send 0 bad"},
		}},
		{name: "a duplicate is answered again from the ledger, or dropped while it runs", steps: []machineStep{
			{ev: rq(1, reqPing), want: "send 1 pong"},
			{ev: rq(2, reqExperiment), want: "start 2"},
			{ev: rq(1, reqPing), want: "send 1 pong"},
			{ev: rq(2, reqExperiment), want: ""},
			{ev: rq(1, reqMalformed), want: "send 1 pong"},
			{ev: finished(2), want: "send 2 experiment"},
			{ev: rq(2, reqExperiment), want: "send 2 experiment"},
			{ev: rq(0, reqPing), want: ""},
		}},
		{name: "a duplicate on a stream is dropped", reliable: true, steps: []machineStep{
			{ev: rq(1, reqPing), want: "send 1 pong"},
			{ev: rq(1, reqPing), want: ""},
			{ev: rq(2, reqMetrics), want: "send 2 metrics"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newMachineRig(tc.budget, tc.reliable)
			for i, st := range tc.steps {
				if got := render(st.ev(r)); got != st.want {
					t.Fatalf("step %d: actions %q, want %q", i, got, st.want)
				}
				if st.state != "" {
					if got := rigState(r); got != st.state {
						t.Fatalf("step %d: state %q, want %q", i, got, st.state)
					}
				}
			}
		})
	}
}

// startExperiments starts experiments with IDs from..to.
func startExperiments(from, to uint64) []machineStep {
	var steps []machineStep
	for id := from; id <= to; id++ {
		steps = append(steps, machineStep{ev: rq(id, reqExperiment), want: fmt.Sprintf("start %d", id)})
	}
	return steps
}

// pingsAboveGap sends PINGs with IDs from..to above the gap below from;
// those up to answeredTo are answered, the rest dropped above the window.
func pingsAboveGap(from, to, answeredTo uint64) []machineStep {
	steps := make([]machineStep, 0, to-from+1)
	for id := from; id <= to; id++ {
		want := ""
		if id <= answeredTo {
			want = fmt.Sprintf("send %d pong", id)
		}
		steps = append(steps, machineStep{ev: rq(id, reqPing), want: want})
	}
	return steps
}

// waitingAboveGap sends exchanges with IDs from..to, which wait above
// the gap below from.
func waitingAboveGap(from, to uint64) []machineStep {
	var steps []machineStep
	for id := from; id <= to; id++ {
		steps = append(steps, machineStep{ev: rq(id, reqExchange), want: ""})
	}
	return steps
}

// TestReapClosesBeforeCounting pins the shell's order for a reap: the
// transport is closed before the reap is counted, so whoever sees the
// count finds the transport closed.
func TestReapClosesBeforeCounting(t *testing.T) {
	srv, err := NewServer(ServerConfig{Secret: []byte("reap-order")})
	if err != nil {
		t.Fatal(err)
	}
	tc := &countingClose{met: &srv.met}
	sess := &session{s: srv, tc: tc}
	sess.run([]action{{kind: actReap}})
	if tc.closes != 1 || tc.reapedAtClose != 0 || srv.met.ReapedSessions.Load() != 1 {
		t.Fatalf("closes %d, reaped at close %d, reaped after %d: want 1, 0, 1",
			tc.closes, tc.reapedAtClose, srv.met.ReapedSessions.Load())
	}
}

// countingClose is a transport that only records its closes.
type countingClose struct {
	transportConn
	met           *metrics.Server
	closes        int
	reapedAtClose uint64
}

func (c *countingClose) close() error {
	c.closes++
	c.reapedAtClose = c.met.ReapedSessions.Load()
	return nil
}

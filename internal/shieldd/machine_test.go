package shieldd

import (
	"bytes"
	"fmt"
	"slices"
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

// Request kinds the rig and the fuzzer's model client send.
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
	return fmt.Sprintf("inflight=%d budget=%d parked=%v", r.met.InFlight(), r.used, r.m.stalled())
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
			{ev: tickAfter(time.Millisecond), want: "reap", state: "inflight=0 budget=0 parked=false"},
			{ev: rq(3, reqPing), want: ""},
		}},
		{name: "requests waiting above a gap are not live work", steps: []machineStep{
			{ev: rq(2, reqExchange), want: ""},
			{ev: rq(3, reqBye), want: "", state: "inflight=2 budget=0 parked=false"},
			{ev: tickAfter(rigIdle), want: "reap", state: "inflight=0 budget=0 parked=false"},
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
			{ev: rq(1, reqExperiment), want: "start 1", state: "inflight=1 budget=1 parked=false"},
			{ev: rq(3, reqExchange), want: ""},
			{ev: rq(2, reqExchange), want: "send 2 busy; send 3 busy", state: "inflight=1 budget=1 parked=false"},
			{ev: rq(4, reqBatch), want: "send 4 busy"},
			{ev: finished(1), want: "send 1 experiment", state: "inflight=0 budget=0 parked=false"},
			{ev: rq(5, reqExchange), want: "exec 5", state: "inflight=1 budget=1 parked=false"},
			{ev: rq(6, reqExperiment), want: "send 6 busy"},
			{ev: executed(5), want: "send 5 result", state: "inflight=0 budget=0 parked=false"},
		}},
		{name: "ordered ops execute one at a time in ID order", steps: []machineStep{
			{ev: rq(2, reqBatch), want: ""},
			{ev: rq(4, reqAttack), want: ""},
			{ev: rq(3, reqPing), want: "send 3 pong"},
			{ev: rq(1, reqExchange), want: "exec 1", state: "inflight=3 budget=3 parked=false"},
			{ev: executed(1), want: "send 1 result; exec 2"},
			{ev: executed(2), want: "send 2 result; exec 4"},
			{ev: executed(4), want: "send 4 result", state: "inflight=0 budget=0 parked=false"},
		}},
		{name: "the BYE waits to be the only request in flight and its reply is last", steps: []machineStep{
			{ev: rq(1, reqExperiment), want: "start 1"},
			{ev: rq(2, reqExchange), want: "exec 2"},
			{ev: rq(3, reqBye), want: ""},
			{ev: rq(4, reqPing), want: "", state: "inflight=3 budget=2 parked=false"},
			{ev: executed(2), want: "send 2 result"},
			{ev: partial(1), want: "send 1 progress"},
			{ev: finished(1), want: "send 1 experiment; send 3 bye; close", state: "inflight=0 budget=0 parked=false"},
			{ev: rq(1, reqExperiment), want: ""},
			{ev: tickAfter(2 * rigIdle), want: ""},
		}},
		{name: "ordered ops released above the BYE are dropped unanswered", steps: []machineStep{
			{ev: rq(2, reqBye), want: ""},
			{ev: rq(3, reqExchange), want: ""},
			{ev: rq(5, reqAttack), want: "", state: "inflight=3 budget=0 parked=false"},
			{ev: rq(1, reqExchange), want: "exec 1", state: "inflight=2 budget=1 parked=false"},
			{ev: rq(4, reqPing), want: ""},
			{ev: executed(1), want: "send 1 result; send 2 bye; close", state: "inflight=0 budget=0 parked=false"},
		}},
		{name: "a fresh request beyond the window is parked until a slot frees", steps: append(
			startExperiments(1, requestWindow),
			machineStep{ev: rq(requestWindow+1, reqPing), want: "", state: "inflight=16 budget=16 parked=true"},
			machineStep{ev: partial(3), want: "send 3 progress", state: "inflight=16 budget=16 parked=true"},
			machineStep{ev: finished(3), want: "send 3 experiment; send 17 pong", state: "inflight=15 budget=15 parked=false"},
			machineStep{ev: rq(requestWindow+2, reqExchange), want: "exec 18"},
			machineStep{ev: rq(requestWindow+3, reqAttack), want: "", state: "inflight=16 budget=16 parked=true"},
			machineStep{ev: executed(requestWindow + 2), want: "send 18 result; exec 19", state: "inflight=16 budget=16 parked=false"},
		)},
		{name: "the BYE's slot is outside the window", steps: append(
			waitingAboveGap(2, requestWindow),
			machineStep{ev: rq(requestWindow+1, reqBye), want: "", state: "inflight=16 budget=0 parked=false"},
			machineStep{ev: rq(requestWindow+2, reqBye), want: ""},
			machineStep{ev: rq(1, reqExchange), want: "exec 1", state: "inflight=17 budget=16 parked=false"},
		)},
		{name: "the transport's end drops parked and waiting requests", steps: append(
			startExperiments(2, requestWindow),
			machineStep{ev: rq(requestWindow+1, reqExchange), want: "", state: "inflight=16 budget=15 parked=false"},
			machineStep{ev: rq(1, reqPing), want: "", state: "inflight=16 budget=15 parked=true"},
			machineStep{ev: transportEnds(), want: "", state: "inflight=15 budget=15 parked=false"},
			machineStep{ev: finished(2), want: "", state: "inflight=14 budget=14 parked=false"},
			machineStep{ev: rq(1, reqPing), want: ""},
		)},
		{name: "a malformed envelope is answered under its ID, or as ID 0", steps: []machineStep{
			{ev: rqShort(), want: "send 0 bad", state: "inflight=0 budget=0 parked=false"},
			{ev: rq(2, reqExchange), want: ""},
			{ev: rq(1, reqMalformed), want: "send 1 bad; exec 2"},
			{ev: rq(3, reqUnexpected), want: "send 3 bad"},
			{ev: rq(4, reqOverBound), want: "send 4 bad", state: "inflight=1 budget=1 parked=false"},
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

// The fuzzer's schedule ops: one byte each, the op in the high nibble
// and its argument in the low one. Its first byte configures the
// session: bits 0-1 are the work budget (0 unlimited), bit 2 a stream
// transport, bit 3 a client that keeps sending after its BYE.
const (
	opSendPing = iota
	opSendExchange
	opSendBatch
	opSendAttack
	opSendExperiment // arg bit 3: over the trials bound
	opSendOther      // arg%4: metrics, malformed (bit 2: flagged), unexpected, short
	opSendBye
	opDeliver   // uplink[arg]
	opDrop      // uplink[arg]
	opDuplicate // uplink[arg]
	opRetransmit
	opExecuted   // the running ordered op finishes
	opExperiment // running experiment arg: bit 3 finishes it, else a partial
	opReceive    // downlink[arg]; bit 3 drops it instead
	opTick       // advance (arg+1)×100 ms, then tick
	opTransportEnd
)

// schedule is FuzzSessionSchedule's world: one session machine, the
// model client that talks to it over an uplink and a downlink that the
// fuzz bytes may drop, duplicate and reorder, the work the machine asked
// for, virtual time, and the record every check reads.
type schedule struct {
	t        *testing.T
	r        *machineRig
	reliable bool

	// The model client. Its send window is selective repeat's: a fresh
	// ID is sent only below its lowest unanswered ID plus requestWindow.
	// The BYE bypasses the window, as the real client's does, and is its
	// last fresh request unless the client is rude.
	rude    bool
	nextID  uint64
	sent    map[uint64][]byte // each request's plaintext; retransmits resend it
	got     map[uint64]bool   // final answers the client received
	cum     uint64            // every ID at or below it was received
	bye     uint64
	byeIn   bool // the BYE reached the machine: it holds a slot
	uplink  [][]byte
	down    []envelope
	lastCum uint64

	// The server's record, as the harness sees every action.
	delivered  map[uint64]bool
	undeliv    uint64                  // lowest ID never delivered
	answers    map[uint64]wire.Message // each ID's first final answer
	started    map[uint64]bool         // executed or started, ever
	lastOp     uint64                  // the last ordered op executed
	executing  *envelope
	running    []uint64 // experiments running, in start order
	over       bool
	byeReplied bool

	pings, retransmits, shed, errors uint64
}

func newSchedule(t *testing.T, cfg byte) *schedule {
	return &schedule{
		t:         t,
		r:         newMachineRig(int(cfg&3), cfg&4 != 0),
		reliable:  cfg&4 != 0,
		rude:      cfg&8 != 0,
		nextID:    1,
		sent:      map[uint64][]byte{},
		got:       map[uint64]bool{},
		delivered: map[uint64]bool{},
		undeliv:   1,
		answers:   map[uint64]wire.Message{},
		started:   map[uint64]bool{},
	}
}

// unanswered lists the client's requests without a received answer, in
// ID order.
func (s *schedule) unanswered() []uint64 {
	var ids []uint64
	for id := range s.sent {
		if !s.got[id] {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// send has the client send a fresh request of kind, if its window and
// the BYE allow it.
func (s *schedule) send(kind int) {
	if s.bye != 0 && (!s.rude || kind == reqBye) {
		return
	}
	low := s.nextID
	if ids := s.unanswered(); len(ids) > 0 {
		low = ids[0]
	}
	if kind != reqBye && s.nextID >= low+requestWindow {
		return
	}
	id := s.nextID
	s.nextID++
	s.sent[id] = requestPlain(kind, id, s.cum)
	s.uplink = append(s.uplink, s.sent[id])
	if kind == reqBye {
		s.bye = id
	}
}

// pick removes and returns uplink[i]; a stream delivers in order.
func (s *schedule) pick(arg int) []byte {
	i := arg % len(s.uplink)
	if s.reliable {
		i = 0
	}
	p := s.uplink[i]
	s.uplink = slices.Delete(s.uplink, i, i+1)
	return p
}

// deliver hands uplink[arg] to the machine, unless a parked request has
// stopped the shell reading.
func (s *schedule) deliver(arg int) {
	if len(s.uplink) == 0 || s.r.m.stalled() {
		return
	}
	p := s.pick(arg)
	if id, _, _, _, err := wire.DecodeEnvelopeV3(p); len(p) >= 17 && (err == nil || id != 0) {
		s.delivered[id] = true
		for s.delivered[s.undeliv] {
			s.undeliv++
		}
		s.byeIn = s.byeIn || id == s.bye && !s.over
	}
	s.apply(s.r.m.request(p, s.r.now))
}

// apply checks and records one event's actions.
func (s *schedule) apply(acts []action) {
	t := s.t
	t.Helper()
	for i, a := range acts {
		if s.over {
			t.Fatalf("action %s after the session ended", render(acts[i:i+1]))
		}
		switch a.kind {
		case actSend:
			s.recordSend(a)
			if a.env.id == s.bye && s.bye != 0 && a.env.flags == 0 {
				if i+1 >= len(acts) || acts[i+1].kind != actClose {
					t.Fatalf("BYE reply not followed by close: %s", render(acts))
				}
			}
		case actExecute:
			id := a.env.id
			if s.started[id] {
				t.Fatalf("request %d executed twice", id)
			}
			if !orderedKind(a.env.msg.Kind()) {
				t.Fatalf("request %d of kind %d sent to the executor", id, a.env.msg.Kind())
			}
			if id <= s.lastOp {
				t.Fatalf("ordered op %d executed after %d", id, s.lastOp)
			}
			if id >= s.undeliv {
				t.Fatalf("ordered op %d released above the gap at %d", id, s.undeliv)
			}
			if s.executing != nil {
				t.Fatalf("op %d executed while %d runs", id, s.executing.id)
			}
			s.started[id], s.lastOp = true, id
			e := a.env
			s.executing = &e
		case actStart:
			if s.started[a.env.id] {
				t.Fatalf("experiment %d started twice", a.env.id)
			}
			s.started[a.env.id] = true
			s.running = append(s.running, a.env.id)
		case actClose:
			if !s.byeReplied {
				t.Fatalf("close without a BYE reply")
			}
			s.over = true
		case actReap:
			if s.executing != nil || len(s.running) > 0 {
				t.Fatalf("reaped with live work: op %v, experiments %v", s.executing, s.running)
			}
			s.over = true
		}
	}
	// The BYE's slot is outside the window.
	limit := int64(requestWindow)
	if s.byeIn && !s.over {
		limit++
	}
	if n := s.r.met.InFlight(); n < 0 || n > limit {
		t.Fatalf("in-flight count %d outside 0..%d", n, limit)
	}
	if n := len(s.r.m.l.entries); n > requestWindow+dedupCacheCap {
		t.Fatalf("ledger holds %d entries, more than %d", n, requestWindow+dedupCacheCap)
	}
	if s.r.budget > 0 && s.r.used > s.r.budget || s.r.used < 0 {
		t.Fatalf("work budget %d in use of %d", s.r.used, s.r.budget)
	}
}

// recordSend checks one sent envelope against everything sent before.
func (s *schedule) recordSend(a action) {
	t := s.t
	t.Helper()
	e := a.env
	if a.cum < s.lastCum {
		t.Fatalf("cumulative report went back from %d to %d", s.lastCum, a.cum)
	}
	s.lastCum = a.cum
	s.down = append(s.down, e)
	if e.flags != 0 {
		if !slices.Contains(s.running, e.id) {
			t.Fatalf("partial answer for %d, which runs no experiment", e.id)
		}
		return
	}
	if first, ok := s.answers[e.id]; ok && e.id != 0 {
		if !bytes.Equal(first.Encode(), e.msg.Encode()) {
			t.Fatalf("request %d answered %s, then %s", e.id, msgName(first), msgName(e.msg))
		}
		s.retransmits++
		return
	}
	s.answers[e.id] = e.msg
	switch e.msg.(type) {
	case *wire.Pong:
		s.pings++
	case *wire.Busy:
		s.shed++
	case *wire.Error:
		s.errors++
	case *wire.Bye:
		if e.id != s.bye {
			t.Fatalf("BYE reply for %d, the BYE is %d", e.id, s.bye)
		}
		if s.executing != nil || len(s.running) > 0 {
			t.Fatalf("BYE reply with work in flight: op %v, experiments %v", s.executing, s.running)
		}
		for id := uint64(1); id < e.id; id++ {
			if _, ok := s.answers[id]; !ok {
				t.Fatalf("BYE %d replied before request %d was answered", e.id, id)
			}
		}
		s.byeReplied = true
	}
	if s.executing != nil && s.executing.id == e.id {
		t.Fatalf("request %d answered while it executes", e.id)
	}
}

// receive has the client take (or lose) downlink[arg].
func (s *schedule) receive(arg int) {
	if len(s.down) == 0 {
		return
	}
	i := arg % len(s.down)
	if s.reliable {
		i = 0
	}
	e := s.down[i]
	s.down = slices.Delete(s.down, i, i+1)
	if arg&8 != 0 && !s.reliable || e.flags != 0 {
		return
	}
	s.got[e.id] = true
	for s.got[s.cum+1] {
		s.cum++
	}
}

// finishOp completes the ordered op the machine is executing.
func (s *schedule) finishOp() {
	if s.executing == nil {
		return
	}
	id := s.executing.id
	s.executing = nil
	s.apply(s.r.m.done(id, opResult(id)))
}

// experimentEvent sends running experiment arg a partial or its end.
func (s *schedule) experimentEvent(arg int, done bool) {
	if len(s.running) == 0 {
		return
	}
	i := arg % len(s.running)
	id := s.running[i]
	if !done {
		s.apply(s.r.m.progress(id, &wire.ExperimentProgress{Done: uint32(arg)}))
		return
	}
	s.running = slices.Delete(s.running, i, i+1)
	s.apply(s.r.m.done(id, experimentResult(id)))
}

// step runs one schedule op.
func (s *schedule) step(b byte) {
	op, arg := int(b>>4), int(b&15)
	switch op {
	case opSendPing:
		s.send(reqPing)
	case opSendExchange:
		s.send(reqExchange)
	case opSendBatch:
		s.send(reqBatch)
	case opSendAttack:
		s.send(reqAttack)
	case opSendExperiment:
		if arg&8 != 0 {
			s.send(reqOverBound)
		} else {
			s.send(reqExperiment)
		}
	case opSendOther:
		switch arg % 4 {
		case 0:
			s.send(reqMetrics)
		case 1:
			if arg&4 != 0 {
				s.send(reqFlagged)
			} else {
				s.send(reqMalformed)
			}
		case 2:
			s.send(reqUnexpected)
		default:
			s.uplink = append(s.uplink, shortPlain)
		}
	case opSendBye:
		s.send(reqBye)
	case opDeliver:
		s.deliver(arg)
	case opDrop:
		if len(s.uplink) > 0 && !s.reliable {
			s.pick(arg)
		}
	case opDuplicate:
		if len(s.uplink) > 0 && !s.reliable {
			s.uplink = append(s.uplink, s.uplink[arg%len(s.uplink)])
		}
	case opRetransmit:
		if ids := s.unanswered(); len(ids) > 0 && !s.reliable {
			s.uplink = append(s.uplink, s.sent[ids[arg%len(ids)]])
		}
	case opExecuted:
		s.finishOp()
	case opExperiment:
		s.experimentEvent(arg, arg&8 != 0)
	case opReceive:
		s.receive(arg)
	case opTick:
		s.r.now = s.r.now.Add(time.Duration(arg+1) * 100 * time.Millisecond)
		s.apply(s.r.m.tick(s.r.now))
	case opTransportEnd:
		s.r.m.end()
		s.over = true
	}
}

// drain runs the session out over a lossless link: the client receives
// everything, retransmits what it has no answer for, and sends its BYE
// once every answer is in; all work completes.
func (s *schedule) drain() {
	for round := 0; ; round++ {
		if round > 4*(int(s.nextID)+requestWindow) {
			s.t.Fatalf("the drain did not converge: unanswered %v, in flight %d, parked %v",
				s.unanswered(), s.r.met.InFlight(), s.r.m.stalled())
		}
		for len(s.down) > 0 {
			s.receive(0)
		}
		if s.over && s.executing == nil && len(s.running) == 0 {
			return
		}
		if ids := s.unanswered(); len(ids) > 0 && !s.reliable {
			for _, id := range ids {
				s.uplink = append(s.uplink, s.sent[id])
			}
		} else if len(ids) == 0 && s.bye == 0 {
			s.send(reqBye)
		}
		for len(s.uplink) > 0 && !s.r.m.stalled() {
			s.deliver(0)
		}
		s.finishOp()
		for len(s.running) > 0 {
			s.experimentEvent(0, true)
		}
	}
}

// check compares the end state with the model's record.
func (s *schedule) check() {
	t := s.t
	if s.byeReplied {
		for id := uint64(1); id < s.bye; id++ {
			if _, ok := s.answers[id]; !ok {
				t.Fatalf("request %d below the BYE has no answer", id)
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"pings", s.r.met.Pings.Load(), s.pings},
		{"server pings", s.r.srv.TotalPings.Load(), s.pings},
		{"retransmits", s.r.met.Retransmits.Load(), s.retransmits},
		{"server retransmits", s.r.srv.TotalRetransmits.Load(), s.retransmits},
		{"shed", s.r.met.Shed.Load(), s.shed},
		{"server shed", s.r.srv.ShedRequests.Load(), s.shed},
		{"errors", s.r.met.Errors.Load(), s.errors},
	} {
		if c.got != c.want {
			t.Fatalf("machine counts %d %s, the model %d", c.got, c.name, c.want)
		}
	}
	if n := s.r.met.InFlight(); n != 0 {
		t.Fatalf("%d requests in flight after the drain", n)
	}
	if hwm := s.r.met.InFlightHWM(); hwm > requestWindow+1 {
		t.Fatalf("in-flight high-water mark %d above the window and the BYE", hwm)
	}
	if s.r.used != 0 {
		t.Fatalf("%d slots of work budget still held", s.r.used)
	}
}

// FuzzSessionSchedule drives one session machine with no goroutine,
// socket or clock against a model client. The fuzz bytes send, drop,
// duplicate, reorder and retransmit requests, lose responses, complete
// work, advance virtual time and end the transport; every step checks
// the machine's rules (schedule.apply and recordSend), and a lossless
// drain then runs the session out and checks its answers and counters
// against the model's record.
func FuzzSessionSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := newSchedule(t, data[0])
		for _, b := range data[1:] {
			s.step(b)
		}
		s.drain()
		s.check()
	})
}

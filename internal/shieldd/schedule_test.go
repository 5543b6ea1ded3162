package shieldd

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"heartshield/internal/wire"
)

// The fuzzer's schedule ops: one byte each, the op in the high nibble
// (modulo opCount) and its argument in the low one. Its first byte
// configures the session: bits 0-1 are the server's work budget (0
// unlimited), bit 2 a stream transport, bit 3 AutoReconnect.
const (
	opSubmit       = iota // the client submits a call of submitKinds[arg&7]; bit 3 sets OnProgress
	opWake                // submitter arg of those ever parked tries again
	opClose               // Close begins (the BYE), then finishes
	opDeliver             // uplink[arg] reaches the server
	opDrop                // uplink[arg] is lost
	opDuplicate           // uplink[arg] is duplicated
	opReceive             // downlink[arg] reaches the client; bit 3 loses it instead
	opExecuted            // the server's running ordered op finishes
	opExperiment          // running experiment arg: bit 3 finishes it, else a partial
	opTick                // advance (arg+1)×100 ms, then the server's idle tick
	opTimer               // the client's retry timer fires; bit 3 fires it early
	opTransportEnd        // arg bit 0: the server's end of the transport ends, else the client's
	opReconnect           // the reconnect in flight finishes; bit 3 fails it
	opRaw                 // a frame the client machine never sends (schedule.raw)
	opCount
)

// submitKinds are the request kinds the client submits.
var submitKinds = [8]int{reqPing, reqExchange, reqBatch, reqAttack, reqExperiment, reqOverBound, reqMetrics, reqUnexpected}

// The client's retry schedule in every schedule: the third retransmit
// waits the capped maxRetryBackoff.
const (
	schedRTO   = 600 * time.Millisecond
	schedTries = 3
)

// schedule is FuzzSessionSchedule's world: a client machine and the
// server's session machine, the links between them, which the fuzz
// bytes may drop, duplicate and reorder, the server's work, virtual
// time, and the record every check reads. A reconnect starts a new
// server session.
type schedule struct {
	t        *testing.T
	reliable bool
	budget   int
	now      time.Time

	c     *clientMachine
	armed time.Time // the client's retry timer
	calls []*callRecord
	rec   map[*Call]*callRecord
	// waiters are the calls whose submitters wait because the machine
	// once parked them; a finished one may still try again once.
	waiters []*Call
	// bye is Close's BYE once Close began, closed set once it finished.
	bye    *Call
	closed bool
	// open is set while the client's transport is open; reconnector is
	// the call whose submitter runs a reconnect, while one runs.
	open        bool
	reconnector *Call
	// This client session's record: its calls awaiting an answer, the
	// report the client must send (every ID at or below cum answered,
	// answered holds those above it), its highest ID and its BYE.
	pending  map[uint64]*callRecord
	cum      uint64
	answered map[uint64]bool
	sentMax  uint64
	byeID    uint64
	// resends and expiries count the client's resend and expiry actions.
	resends, expiries uint64

	srv      *serverSide
	sessions []*serverSide
	uplink   [][]byte
}

// callRecord is what the schedule saw of one call.
type callRecord struct {
	call     *Call
	srv      *serverSide // the session that took its ID, once sent
	id       uint64
	finishes int
}

func newSchedule(t *testing.T, cfg byte) *schedule {
	s := &schedule{
		t:        t,
		reliable: cfg&4 != 0,
		budget:   int(cfg & 3),
		now:      time.Unix(1000, 0),
		c: &clientMachine{cfg: clientConfig{
			lossy: cfg&4 == 0, rto: schedRTO, maxTries: schedTries, reconnect: cfg&8 != 0,
		}},
		rec: map[*Call]*callRecord{},
	}
	s.newSession()
	return s
}

// newSession connects the client to a new server session.
func (s *schedule) newSession() {
	s.srv = &serverSide{
		t:         s.t,
		r:         newMachineRig(s.budget, s.reliable),
		reliable:  s.reliable,
		rude:      map[uint64]bool{},
		sent:      map[uint64]*callRecord{},
		delivered: map[uint64]bool{},
		undeliv:   1,
		answers:   map[uint64]wire.Message{},
		started:   map[uint64]bool{},
	}
	s.sessions = append(s.sessions, s.srv)
	s.open, s.uplink = true, nil
	s.pending, s.answered = map[uint64]*callRecord{}, map[uint64]bool{}
	s.cum, s.sentMax, s.byeID = 0, 0, 0
}

func (s *schedule) track(call *Call) {
	r := &callRecord{call: call}
	s.calls = append(s.calls, r)
	s.rec[call] = r
}

// client checks and carries out the client machine's actions.
func (s *schedule) client(acts []clientAction) {
	t := s.t
	t.Helper()
	for _, a := range acts {
		switch a.kind {
		case caSend:
			if s.rec[a.call].id == 0 {
				s.fresh(a.call)
				break
			}
			if !s.open || s.reliable {
				t.Fatalf("request %d re-sent (transport open %v, stream %v)", a.call.id, s.open, s.reliable)
			}
			s.resends++
			s.uplink = append(s.uplink, a.call.env)
		case caArm:
			s.armed = a.at
		case caFinish:
			s.finished(a)
		case caProgress:
			if a.call.OnProgress == nil || s.rec[a.call].finishes > 0 {
				t.Fatalf("partial for call %d, which has no callback or has finished", a.call.id)
			}
		case caReconnect:
			if s.reconnector != nil || s.open {
				t.Fatalf("reconnect while one runs (%v) or the transport is open (%v)", s.reconnector != nil, s.open)
			}
			s.reconnector = a.call
		case caClose:
			s.open = false
		}
	}
}

// fresh checks a fresh request against everything the client sent in
// its session, and sends it.
func (s *schedule) fresh(call *Call) {
	t := s.t
	t.Helper()
	id, flags, cum, msg, err := wire.DecodeEnvelopeV3(call.env)
	switch {
	case err != nil || flags != 0:
		t.Fatalf("the client sent a malformed envelope (%v)", err)
	case !s.open:
		t.Fatalf("request %d sent after the client's session ended", id)
	case s.byeID != 0:
		t.Fatalf("request %d sent after the BYE %d", id, s.byeID)
	case id != s.sentMax+1:
		t.Fatalf("request %d sent after %d", id, s.sentMax)
	case cum != s.cum:
		t.Fatalf("request %d carries the report %d, want %d", id, cum, s.cum)
	}
	if _, isBye := msg.(*wire.Bye); isBye {
		s.byeID, s.srv.bye = id, id
	} else if id >= s.cum+1+requestWindow {
		t.Fatalf("request %d sent outside the window of the report %d", id, s.cum)
	}
	r := s.rec[call]
	r.srv, r.id = s.srv, id
	s.srv.sent[id] = r
	s.sentMax = id
	s.pending[id] = r
	s.uplink = append(s.uplink, call.env)
}

// finished checks how a call ended: with the server's first answer for
// its ID, or with a typed error.
func (s *schedule) finished(a clientAction) {
	t := s.t
	t.Helper()
	r := s.rec[a.call]
	if r.finishes++; r.finishes > 1 {
		t.Fatalf("call %d finished twice", r.id)
	}
	if r.srv == s.srv {
		delete(s.pending, r.id)
	}
	var busy *busyError
	var werr *wire.Error
	switch {
	case a.err == nil || errors.As(a.err, &busy) || errors.As(a.err, &werr):
		if r.srv != s.srv || r.srv.answers[r.id] == nil {
			t.Fatalf("call %d finished with an answer its session never sent", r.id)
		}
		first, got := r.srv.answers[r.id], a.msg
		if werr != nil {
			got = werr
		}
		if busy != nil {
			got = &wire.Busy{RetryAfterMillis: uint32(busy.retryAfter / time.Millisecond)}
		}
		if !bytes.Equal(first.Encode(), got.Encode()) {
			t.Fatalf("call %d finished with %s, the server's first answer was %s", r.id, msgName(got), msgName(first))
		}
	case errors.Is(a.err, ErrRequestTimeout) && !errors.Is(a.err, ErrSessionLost):
		s.expiries++
	case errors.Is(a.err, ErrSessionLost), errors.Is(a.err, ErrClientClosed):
	default:
		t.Fatalf("call %d finished with an untyped error: %v", r.id, a.err)
	}
}

// submit has the client submit a call.
func (s *schedule) submit(arg int) {
	call := &Call{Req: requestMessage(submitKinds[arg&7], uint64(len(s.calls)+1)), Done: make(chan *Call, 1)}
	if arg&8 != 0 {
		call.OnProgress = func(*wire.ExperimentProgress) {}
	}
	s.track(call)
	s.client(s.c.submit(call, s.now))
	if call.phase == callParked {
		s.waiters = append(s.waiters, call)
	}
}

// wake has waiter arg try again, as a submitter woken by any event does;
// the one running a reconnect tries again once it has finished.
func (s *schedule) wake(arg int) {
	if len(s.waiters) > 0 {
		if call := s.waiters[arg%len(s.waiters)]; call != s.reconnector {
			s.client(s.c.submit(call, s.now))
		}
	}
}

// closeStep begins Close, or finishes it once begun.
func (s *schedule) closeStep() {
	switch {
	case s.bye == nil:
		s.bye = &Call{Req: &wire.Bye{}, Done: make(chan *Call, 1)}
		s.track(s.bye)
		s.client(s.c.bye(s.bye, s.now))
	case !s.closed:
		s.closed = true
		s.client(s.c.close())
	}
}

// fire fires the client's retry timer: when it is armed, at its time; an
// early firing comes now, as a timer re-armed or stopped while it fired
// does. A stream client has no timer.
func (s *schedule) fire(early bool) {
	if s.reliable || s.armed.IsZero() && !early {
		return
	}
	if !early && s.armed.After(s.now) {
		s.now = s.armed
	}
	s.armed = time.Time{}
	s.client(s.c.timeout(s.now))
}

// reconnect finishes the reconnect in flight.
func (s *schedule) reconnect(ok bool) {
	call := s.reconnector
	if call == nil {
		return
	}
	s.reconnector = nil
	if !ok {
		s.client(s.c.reconnectFailed(call, io.ErrUnexpectedEOF))
		return
	}
	if len(s.pending) > 0 {
		s.t.Fatalf("reconnect with %d calls pending", len(s.pending))
	}
	s.srv.retire()
	acts := s.c.reconnected()
	if s.c.state == clientLive {
		s.newSession()
	}
	s.client(acts)
}

// pick removes and returns uplink[arg]; a stream delivers in order.
func (s *schedule) pick(arg int) []byte {
	i := arg % len(s.uplink)
	if s.reliable {
		i = 0
	}
	p := s.uplink[i]
	s.uplink = slices.Delete(s.uplink, i, i+1)
	return p
}

// deliver hands uplink[arg] to the server, unless a parked request has
// stopped its shell reading. After the last frame of a stream the client
// closed, the server reads the end of the transport.
func (s *schedule) deliver(arg int) {
	v := s.srv
	switch {
	case v.r.m.stalled():
	case len(s.uplink) > 0:
		v.deliver(s.pick(arg), s.now)
	case s.reliable && !s.open:
		v.end()
	}
}

// receive has the client take (or lose) downlink[arg]. After the last
// frame of a stream the server closed, the client reads the end of the
// transport.
func (s *schedule) receive(arg int) {
	t := s.t
	v := s.srv
	if len(v.down) == 0 {
		if s.reliable && v.over && s.open {
			s.client(s.c.transportFailed(io.EOF))
		}
		return
	}
	i := arg % len(v.down)
	if s.reliable {
		i = 0
	}
	e := v.down[i]
	v.down = slices.Delete(v.down, i, i+1)
	if arg&8 != 0 && !s.reliable {
		return
	}
	id, flags, _, msg, err := wire.DecodeEnvelopeV3(wire.EncodeEnvelopeV3(e.id, e.flags, 0, e.msg))
	if err != nil {
		t.Fatalf("answer %d does not decode: %v", e.id, err)
	}
	r := s.pending[id]
	if flags == 0 && r != nil {
		s.answered[id] = true
		for s.answered[s.cum+1] {
			delete(s.answered, s.cum+1)
			s.cum++
		}
	}
	s.client(s.c.response(id, flags, msg, s.now))
	if flags == 0 && r != nil && r.finishes == 0 {
		t.Fatalf("call %d did not finish with its answer", id)
	}
}

// raw injects a frame the client machine never sends.
func (s *schedule) raw(arg int) {
	switch arg % 4 {
	case 0:
		s.uplink = append(s.uplink, shortPlain)
	case 1, 2:
		// An authentic envelope that breaks the codec (an unknown
		// message kind, or a request flag), under the ID of a frame in
		// flight: the server answers it with an error, which becomes that
		// call's answer. Not under the BYE, whose only answer is the
		// session's last frame.
		if len(s.uplink) == 0 {
			return
		}
		p := bytes.Clone(s.uplink[(arg>>2)%len(s.uplink)])
		if len(p) < 18 || p[17] == wire.KindBye {
			return
		}
		if arg%4 == 1 {
			p[17] = 0xEE
		} else {
			p[8] = wire.EnvPartial
		}
		s.uplink = append(s.uplink, p)
	case 3:
		// A request above the BYE, as a client that breaks the rules
		// sends: the server may answer it, or drop it, but never run it
		// after the BYE, and takes one BYE.
		if s.byeID == 0 {
			return
		}
		n := arg >> 2
		id := s.byeID + 1 + uint64(n)
		s.srv.rude[id] = true
		s.uplink = append(s.uplink, requestPlain([4]int{reqExchange, reqPing, reqBye, reqExchange}[n], id, s.cum))
	}
}

// step runs one schedule op, then checks the client.
func (s *schedule) step(b byte) {
	op, arg := int(b>>4)%opCount, int(b&15)
	switch op {
	case opSubmit:
		s.submit(arg)
	case opWake:
		s.wake(arg)
	case opClose:
		s.closeStep()
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
	case opReceive:
		s.receive(arg)
	case opExecuted:
		s.srv.finishOp()
	case opExperiment:
		s.srv.experimentEvent(arg, arg&8 != 0)
	case opTick:
		s.now = s.now.Add(time.Duration(arg+1) * 100 * time.Millisecond)
		s.srv.apply(s.srv.r.m.tick(s.now))
	case opTimer:
		s.fire(arg&8 != 0)
	case opTransportEnd:
		if arg&1 != 0 {
			s.srv.end()
		} else {
			s.client(s.c.transportFailed(io.ErrClosedPipe))
		}
	case opReconnect:
		s.reconnect(arg&8 == 0)
	case opRaw:
		s.raw(arg)
	}
	s.check()
}

// check compares the client machine with the schedule's record.
func (s *schedule) check() {
	t := s.t
	t.Helper()
	m := s.c
	if s.open != (m.state == clientLive) {
		t.Fatalf("transport open %v in client state %d", s.open, m.state)
	}
	if s.open && m.report() != s.cum {
		t.Fatalf("the client's report is %d, its answers make it %d", m.report(), s.cum)
	}
	if len(m.pending) != len(s.pending) {
		t.Fatalf("%d calls pending, the record has %d", len(m.pending), len(s.pending))
	}
	for _, call := range m.pending {
		if call.phase != callPending || s.pending[call.id] == nil {
			t.Fatalf("pending call %d in phase %d, recorded %v", call.id, call.phase, s.pending[call.id] != nil)
		}
	}
}

// parked lists the calls the machine holds parked, in the order they
// were submitted.
func (s *schedule) parked() []*Call {
	var calls []*Call
	for _, call := range s.waiters {
		if call.phase == callParked {
			calls = append(calls, call)
		}
	}
	return calls
}

// flush delivers everything in flight both ways and finishes the
// server's work, reporting whether anything happened.
func (s *schedule) flush() bool {
	did := false
	for {
		v := s.srv
		switch {
		case len(v.down) > 0 || s.reliable && v.over && s.open:
			s.receive(0)
		case !v.r.m.stalled() && (len(s.uplink) > 0 || s.reliable && !s.open && !v.over):
			s.deliver(0)
		case v.executing != nil:
			v.finishOp()
		case len(v.running) > 0:
			v.experimentEvent(0, true)
		default:
			return did
		}
		s.check()
		did = true
	}
}

// drain runs the schedule out over lossless links: everything in flight
// arrives, work completes, reconnects succeed, parked submits try again,
// retry timers fire, and the client closes. A server stalled behind
// requests it will never run (sent above the BYE) is reaped.
func (s *schedule) drain() {
	for round := 0; ; round++ {
		if round > 100+8*len(s.calls) {
			s.t.Fatalf("the drain did not converge: %d pending, %d parked, server in flight %d, stalled %v",
				len(s.c.pending), len(s.parked()), s.srv.r.met.InFlight(), s.srv.r.m.stalled())
		}
		did := s.flush()
		if s.reconnector != nil {
			s.reconnect(true)
			continue
		}
		for _, call := range s.parked() {
			acts := s.c.submit(call, s.now)
			did = did || len(acts) > 0
			s.client(acts)
		}
		s.check()
		switch v := s.srv; {
		case did || s.reconnector != nil:
		case len(s.c.pending) > 0 && !s.armed.IsZero():
			s.fire(false)
		case v.r.m.stalled():
			s.now = s.now.Add(rigIdle)
			v.apply(v.r.m.tick(s.now))
		case len(s.c.pending)+len(s.parked()) > 0:
			s.t.Fatalf("the drain is stuck: %d pending, %d parked", len(s.c.pending), len(s.parked()))
		case !s.closed:
			s.closeStep()
		default:
			s.srv.retire()
			return
		}
	}
}

// final checks the end state against the record.
func (s *schedule) final() {
	t := s.t
	if len(s.c.pending)+len(s.parked()) > 0 {
		t.Fatalf("%d calls pending and %d parked after the drain", len(s.c.pending), len(s.parked()))
	}
	for _, r := range s.calls {
		if r.finishes != 1 {
			t.Fatalf("call %d finished %d times", r.id, r.finishes)
		}
	}
	if st := s.c.stats; st.Retransmits != s.resends || st.Timeouts != s.expiries {
		t.Fatalf("the client counts %d retransmits and %d timeouts, its actions %d and %d",
			st.Retransmits, st.Timeouts, s.resends, s.expiries)
	}
	for _, v := range s.sessions {
		if !v.byeReplied {
			continue
		}
		for id := uint64(1); id < v.bye; id++ {
			if r := v.sent[id]; r == nil || v.answers[id] == nil {
				t.Fatalf("request %d below the BYE %d: sent %v, answered %v", id, v.bye, r != nil, v.answers[id] != nil)
			}
		}
	}
}

// FuzzSessionSchedule drives a client machine against the server's
// session machine with no goroutine, socket or clock. The fuzz bytes
// submit calls, wake parked submitters, close the client, drop,
// duplicate and reorder frames both ways, inject frames the client
// never sends, complete the server's work, advance virtual time, fire
// the client's retry timer, end either end of the transport and finish
// reconnects. Every step checks both machines' rules (schedule.client,
// fresh, finished and check; serverSide.apply and recordSend), and a
// lossless drain then runs the schedule out and checks the end state.
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
		s.final()
	})
}

// serverSide is one server session of a schedule: its machine, the
// downlink it writes to, and the record of every action it took.
type serverSide struct {
	t        *testing.T
	r        *machineRig
	reliable bool
	// bye is the client's BYE in this session once sent; byeIn is set
	// once it reached the machine, where it holds a slot.
	bye   uint64
	byeIn bool
	// rude holds the IDs injected above the BYE, sent the client's calls
	// by the ID they took.
	rude map[uint64]bool
	sent map[uint64]*callRecord
	down []envelope

	lastCum    uint64
	delivered  map[uint64]bool
	undeliv    uint64                  // lowest ID never delivered
	answers    map[uint64]wire.Message // each ID's first final answer
	started    map[uint64]bool         // executed or started, ever
	lastOp     uint64                  // the last ordered op executed
	executing  *envelope
	running    []uint64 // experiments running, in start order
	over       bool
	byeReplied bool
	retired    bool

	pings, retransmits, shed, errors uint64
}

// deliver hands one request plaintext to the machine.
func (v *serverSide) deliver(p []byte, now time.Time) {
	if id, _, _, _, err := wire.DecodeEnvelopeV3(p); len(p) >= 17 && (err == nil || id != 0) {
		v.delivered[id] = true
		for v.delivered[v.undeliv] {
			v.undeliv++
		}
		v.byeIn = v.byeIn || v.bye != 0 && id == v.bye && !v.over
	}
	v.apply(v.r.m.request(p, now))
}

// end ends the server's end of the transport; the machine may have
// ended the session already.
func (v *serverSide) end() {
	v.r.m.end()
	v.over = true
}

// apply checks and records one event's actions.
func (v *serverSide) apply(acts []action) {
	t := v.t
	t.Helper()
	for i, a := range acts {
		if v.over {
			t.Fatalf("action %s after the session ended", render(acts[i:i+1]))
		}
		switch a.kind {
		case actSend:
			v.recordSend(a)
			if a.env.id == v.bye && v.bye != 0 && a.env.flags == 0 {
				if i+1 >= len(acts) || acts[i+1].kind != actClose {
					t.Fatalf("BYE reply not followed by close: %s", render(acts))
				}
			}
		case actExecute:
			id := a.env.id
			if v.started[id] {
				t.Fatalf("request %d executed twice", id)
			}
			if !orderedKind(a.env.msg.Kind()) {
				t.Fatalf("request %d of kind %d sent to the executor", id, a.env.msg.Kind())
			}
			if id <= v.lastOp {
				t.Fatalf("ordered op %d executed after %d", id, v.lastOp)
			}
			if id >= v.undeliv {
				t.Fatalf("ordered op %d released above the gap at %d", id, v.undeliv)
			}
			if v.executing != nil {
				t.Fatalf("op %d executed while %d runs", id, v.executing.id)
			}
			v.started[id], v.lastOp = true, id
			e := a.env
			v.executing = &e
		case actStart:
			if v.started[a.env.id] {
				t.Fatalf("experiment %d started twice", a.env.id)
			}
			v.started[a.env.id] = true
			v.running = append(v.running, a.env.id)
		case actClose:
			if !v.byeReplied {
				t.Fatalf("close without a BYE reply")
			}
			v.over = true
		case actReap:
			if v.executing != nil || len(v.running) > 0 {
				t.Fatalf("reaped with live work: op %v, experiments %v", v.executing, v.running)
			}
			v.over = true
		}
	}
	// The BYE's slot is outside the window.
	limit := int64(requestWindow)
	if v.byeIn && !v.over {
		limit++
	}
	if n := v.r.met.InFlight(); n < 0 || n > limit {
		t.Fatalf("in-flight count %d outside 0..%d", n, limit)
	}
	l := v.r.m.l
	if n := len(l.entries); n > requestWindow+dedupCacheCap {
		t.Fatalf("ledger holds %d entries, more than %d", n, requestWindow+dedupCacheCap)
	}
	above := 0
	for id := range l.entries {
		if id >= l.next && id != v.bye && !v.rude[id] {
			above++
		}
	}
	if above > requestWindow {
		t.Fatalf("ledger holds %d of the client's requests at or above its cursor %d", above, l.next)
	}
	if v.r.budget > 0 && v.r.used > v.r.budget || v.r.used < 0 {
		t.Fatalf("work budget %d in use of %d", v.r.used, v.r.budget)
	}
}

// recordSend checks one sent envelope against everything sent before.
func (v *serverSide) recordSend(a action) {
	t := v.t
	t.Helper()
	e := a.env
	if a.cum < v.lastCum {
		t.Fatalf("cumulative report went back from %d to %d", v.lastCum, a.cum)
	}
	v.lastCum = a.cum
	v.down = append(v.down, e)
	if e.flags != 0 {
		if !slices.Contains(v.running, e.id) {
			t.Fatalf("partial answer for %d, which runs no experiment", e.id)
		}
		return
	}
	if first, ok := v.answers[e.id]; ok && e.id != 0 {
		if !bytes.Equal(first.Encode(), e.msg.Encode()) {
			t.Fatalf("request %d answered %s, then %s", e.id, msgName(first), msgName(e.msg))
		}
		v.retransmits++
		return
	}
	v.answers[e.id] = e.msg
	switch e.msg.(type) {
	case *wire.Pong:
		v.pings++
	case *wire.Busy:
		v.shed++
	case *wire.Error:
		v.errors++
	case *wire.Bye:
		if e.id != v.bye {
			t.Fatalf("BYE reply for %d, the BYE is %d", e.id, v.bye)
		}
		if v.executing != nil || len(v.running) > 0 {
			t.Fatalf("BYE reply with work in flight: op %v, experiments %v", v.executing, v.running)
		}
		for id := uint64(1); id < e.id; id++ {
			if _, ok := v.answers[id]; !ok {
				t.Fatalf("BYE %d replied before request %d was answered", e.id, id)
			}
		}
		v.byeReplied = true
	}
	if v.executing != nil && v.executing.id == e.id {
		t.Fatalf("request %d answered while it executes", e.id)
	}
}

// finishOp completes the ordered op the machine is executing.
func (v *serverSide) finishOp() {
	if v.executing == nil {
		return
	}
	id := v.executing.id
	v.executing = nil
	v.apply(v.r.m.done(id, opResult(id)))
}

// experimentEvent sends running experiment arg a partial or its end.
func (v *serverSide) experimentEvent(arg int, done bool) {
	if len(v.running) == 0 {
		return
	}
	i := arg % len(v.running)
	id := v.running[i]
	if !done {
		v.apply(v.r.m.progress(id, &wire.ExperimentProgress{Done: uint32(arg)}))
		return
	}
	v.running = slices.Delete(v.running, i, i+1)
	v.apply(v.r.m.done(id, experimentResult(id)))
}

// retire ends the session and its work, then checks its counters against
// the record.
func (v *serverSide) retire() {
	if v.retired {
		return
	}
	v.retired = true
	v.end()
	v.finishOp()
	for len(v.running) > 0 {
		v.experimentEvent(0, true)
	}
	t := v.t
	if v.byeReplied {
		for id := uint64(1); id < v.bye; id++ {
			if _, ok := v.answers[id]; !ok {
				t.Fatalf("request %d below the BYE has no answer", id)
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"pings", v.r.met.Pings.Load(), v.pings},
		{"server pings", v.r.srv.TotalPings.Load(), v.pings},
		{"retransmits", v.r.met.Retransmits.Load(), v.retransmits},
		{"server retransmits", v.r.srv.TotalRetransmits.Load(), v.retransmits},
		{"shed", v.r.met.Shed.Load(), v.shed},
		{"server shed", v.r.srv.ShedRequests.Load(), v.shed},
		{"errors", v.r.met.Errors.Load(), v.errors},
	} {
		if c.got != c.want {
			t.Fatalf("machine counts %d %s, the record %d", c.got, c.name, c.want)
		}
	}
	if n := v.r.met.InFlight(); n != 0 {
		t.Fatalf("%d requests in flight after the session ended", n)
	}
	if hwm := v.r.met.InFlightHWM(); hwm > requestWindow+1 {
		t.Fatalf("in-flight high-water mark %d above the window and the BYE", hwm)
	}
	if v.r.used != 0 {
		t.Fatalf("%d slots of work budget still held", v.r.used)
	}
}

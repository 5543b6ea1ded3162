package shieldd

import (
	"fmt"
	"time"

	"heartshield/internal/metrics"
	"heartshield/internal/wire"
)

// sessionMachine is one server session's protocol with no I/O: the
// request ledger, the in-flight window, the ordered-op queue, the BYE
// and the idle rule. Each event — a request plaintext opened (request),
// an experiment's partial answer (progress), started work's final
// answer (done), an idle tick (tick) — returns the actions it causes, in
// order: send this envelope, execute this ordered op, start this
// experiment, close the transport; the transport's end (end) causes
// none. It takes
// no lock, starts no goroutine, reads no clock and touches no transport,
// link or scenario; the session's goroutine shell (session.serve) runs
// it under one session mutex and carries out the actions, and
// FuzzSessionSchedule runs it against the client's machine
// (clientMachine).
//
// The rules it keeps:
//
//   - The ledger admits request IDs: a fresh ID, one in the window
//     cursor ≤ id ≤ cursor+requestWindow that it holds no entry for, is
//     taken in, a duplicate of a running request is dropped, and a
//     duplicate of an answered one is answered again from its record on
//     an unreliable transport — on a stream nothing is lost or
//     duplicated, so a duplicate there comes from a misbehaving client
//     and is dropped. An ID above the window is dropped unrecorded.
//   - Every fresh request takes one of requestWindow in-flight slots
//     until it is answered (or dropped unanswered). A fresh request
//     that finds every slot taken is dropped unrecorded, so its
//     retransmit is fresh once a slot frees. A client that keeps the
//     window never meets either drop: its requests in flight all lie in
//     its window, whose top slot only its BYE takes.
//   - Ordered ops (EXCHANGE, BATCH-EXCHANGE, ATTACK) are released as the
//     ledger's cursor passes them, take a slot of the global work budget
//     at release (or are answered BUSY), and execute one at a time in ID
//     order. PING, STATUS-METRICS and malformed or unexpected requests
//     are answered on arrival; an EXPERIMENT starts on arrival and
//     streams partial answers while it runs.
//   - The BYE is sequenced like an ordered op. Once it is released, the
//     requests waiting above it are dropped unanswered and nothing fresh
//     is admitted; it is answered when it is the only request in flight,
//     and its reply is the session's last frame. The client sends its
//     BYE outside its window, so the BYE's slot is outside the window
//     here too: a BYE that follows a full window of requests waiting on
//     a lost one must not leave the retransmit that fills the gap no
//     slot to take. A session takes one BYE.
//   - An idle tick reaps a session that has had no request for the idle
//     timeout and runs no live work. Requests waiting above a gap are not
//     live: a client that died with a gap outstanding leaves them waiting
//     forever.
//   - Once the session is over (BYE answered, reaped, or the transport
//     ended) nothing is sent, and work still running only returns its
//     budget and its slot as it finishes.
type sessionMachine struct {
	cfg machineConfig
	l   *ledger
	// queue holds the released ordered ops in ID order until the
	// executor takes them, one at a time. Each holds a slot of the work
	// budget.
	queue []envelope
	// executing is the ID of the ordered op out for execution, or 0.
	executing uint64
	// experiments counts the experiments running.
	experiments int
	// bye is the ID of the session's BYE once admitted, or 0;
	// byeReleased is set once the ledger releases it.
	bye         uint64
	byeReleased bool
	// over is set once the session has ended.
	over bool
	// lastActive is when the latest request arrived.
	lastActive time.Time
	// acts is the current event's actions, reused across events: the
	// shell carries them out before it sends the machine another event.
	acts []action
}

// machineConfig is what a session machine needs from its server: the
// transport's reliability, the idle rule, and the server-wide state its
// requests touch, as values a test can fake.
type machineConfig struct {
	// reliable is set on a stream transport.
	reliable bool
	// idleTimeout reaps idle sessions when positive.
	idleTimeout time.Duration
	// acquireWork takes a slot of the global work budget without
	// blocking; releaseWork returns one.
	acquireWork func() bool
	releaseWork func()
	// answerMetrics builds the session's STATUS-METRICS answer.
	answerMetrics func() wire.Message
	// retryAfterMillis is the hint a BUSY answer carries.
	retryAfterMillis uint32
	// met and srv are the session's counters and the server's.
	met *metrics.Session
	srv *metrics.Server
}

// actionKind is what the shell does for one action.
type actionKind uint8

const (
	// actSend seals and writes env under the cumulative report cum.
	actSend actionKind = iota
	// actExecute runs the ordered op env; its result is the done event.
	actExecute
	// actStart starts the experiment env; its answers are the progress
	// and done events.
	actStart
	// actClose closes the transport after the BYE reply, or when the
	// handshake machine ends it.
	actClose
	// actReap closes the transport of an idle session, then counts the
	// reap: whoever sees the count finds the transport closed.
	actReap
	// actHandshake writes frame as a plaintext handshake frame.
	actHandshake
	// actSealed writes frame, sealed already, as a session frame.
	actSealed
	// actArm points the handshake's limit timer at at; a zero at stops it.
	actArm
	// actOpen hands the session frame, the plaintext of a sealed frame
	// that opened: its next request.
	actOpen
)

// action is one step the shell carries out for the session or handshake
// machine.
type action struct {
	kind  actionKind
	env   envelope
	cum   uint64
	frame []byte
	at    time.Time
}

// envelope pairs a request ID with the message that answers (or asks)
// it, and the envelope flags it goes out with: wire.EnvPartial marks a
// streamed non-final response, never recorded in the ledger.
type envelope struct {
	id    uint64
	msg   wire.Message
	flags uint8
}

// request takes one authenticated request plaintext that arrived at now.
func (m *sessionMachine) request(plain []byte, now time.Time) []action {
	m.acts = m.acts[:0]
	if m.over {
		return m.acts
	}
	// Only a frame that opens is activity: the client's address is
	// spoofable, so anything else must not hold the session open.
	m.lastActive = now
	id, flags, _, req, err := wire.DecodeEnvelopeV3(plain)
	if err == nil && flags != 0 {
		req, err = nil, wire.ErrInvalid // requests carry no flags
	}
	// Authentic but malformed: answered, and the session lives on. An
	// envelope too short to carry an ID is answered as ID 0, outside the
	// ledger's checks; a real ID is checked like any other and moves the
	// cursor, or every later ordered op would wait on it forever.
	if err == nil || id != 0 {
		fresh, cached := m.l.admit(id)
		if cached != nil && !m.cfg.reliable {
			m.cfg.met.Retransmits.Add(1)
			m.cfg.srv.TotalRetransmits.Add(1)
			m.send(envelope{id: id, msg: cached})
		}
		if !fresh {
			return m.acts
		}
	}
	_, isBye := req.(*wire.Bye)
	if m.byeReleased || isBye && m.bye != 0 || !isBye && m.windowFull() {
		return m.acts
	}
	m.admit(id, req)
	m.settle()
	return m.acts
}

// done takes the final answer of started work: the result of the
// ordered op the machine asked to execute, or a started experiment's
// final answer. Its budget is returned, and the answer goes out unless
// the session is over.
func (m *sessionMachine) done(id uint64, resp wire.Message) []action {
	m.acts = m.acts[:0]
	if id == m.executing {
		m.executing = 0
	} else {
		m.experiments--
	}
	m.cfg.releaseWork()
	if m.over {
		m.cfg.met.LeaveFlight()
		return m.acts
	}
	m.reply(id, resp)
	m.settle()
	return m.acts
}

// progress takes a running experiment's partial answer.
func (m *sessionMachine) progress(id uint64, p *wire.ExperimentProgress) []action {
	m.acts = m.acts[:0]
	if !m.over {
		m.cfg.met.ProgressFrames.Add(1)
		m.cfg.srv.TotalProgressFrames.Add(1)
		m.send(envelope{id: id, msg: p, flags: wire.EnvPartial})
	}
	return m.acts
}

// tick applies the idle rule at now.
func (m *sessionMachine) tick(now time.Time) []action {
	m.acts = m.acts[:0]
	if m.over || m.cfg.idleTimeout <= 0 || now.Sub(m.lastActive) < m.cfg.idleTimeout ||
		m.cfg.met.InFlight() > int64(m.l.waiting()) {
		return m.acts
	}
	m.end()
	m.acts = append(m.acts, action{kind: actReap})
	return m.acts
}

// end takes the end of the transport (or of the session, when the
// machine itself reaps it). The requests waiting above a gap or queued
// for the executor are dropped unanswered, returning their slots and
// budget; work still running finishes silently.
func (m *sessionMachine) end() {
	if m.over {
		return
	}
	m.over = true
	for range m.l.discard() {
		m.cfg.met.LeaveFlight()
	}
	for range m.queue {
		m.cfg.releaseWork()
		m.cfg.met.LeaveFlight()
	}
	m.queue = m.queue[:0]
	if m.byeReleased {
		m.cfg.met.LeaveFlight()
	}
}

// working reports whether an ordered op or an experiment is running.
// Teardown waits for both, so it adds the link's counters and frees the
// slot only once nothing can seal another frame.
func (m *sessionMachine) working() bool { return m.executing != 0 || m.experiments > 0 }

// admit takes a fresh request into the window.
func (m *sessionMachine) admit(id uint64, req wire.Message) {
	m.cfg.met.EnterFlight()
	switch r := req.(type) {
	case nil:
		malformed := &wire.Error{Code: wire.CodeBadRequest, Msg: "malformed request"}
		if id == 0 {
			m.reply(id, malformed)
		} else {
			m.answer(id, malformed)
		}
	case *wire.ExchangeReq, *wire.BatchReq, *wire.AttackReq:
		m.sequence(m.l.submit(id, req))
	case *wire.Bye:
		m.bye = id
		m.sequence(m.l.submit(id, req))
	case *wire.ExperimentReq:
		if r.Trials > wire.MaxExperimentTrials {
			m.answer(id, &wire.Error{Code: wire.CodeBadRequest,
				Msg: fmt.Sprintf("experiment trials %d exceed the limit of %d", r.Trials, wire.MaxExperimentTrials)})
			return
		}
		rel := m.l.skip(id)
		if m.cfg.acquireWork() {
			m.cfg.met.Experiments.Add(1)
			m.experiments++
			m.acts = append(m.acts, action{kind: actStart, env: envelope{id: id, msg: r}})
		} else {
			m.reply(id, m.shed())
		}
		m.sequence(rel)
	case *wire.Ping:
		m.cfg.met.Pings.Add(1)
		m.cfg.srv.TotalPings.Add(1)
		m.answer(id, &wire.Pong{Token: r.Token})
	case *wire.MetricsReq:
		m.answer(id, m.cfg.answerMetrics())
	default:
		m.answer(id, &wire.Error{Code: wire.CodeBadRequest, Msg: "unexpected request"})
	}
}

// answer answers a request sequenced on arrival and sequences the
// waiting run its ID releases.
func (m *sessionMachine) answer(id uint64, resp wire.Message) {
	rel := m.l.skip(id)
	m.reply(id, resp)
	m.sequence(rel)
}

// sequence takes the ordered ops the ledger released, in ID order. The
// work budget is taken here, at release, not on arrival: a request
// waiting on a gap must not sit on server-wide budget while it waits. A
// well-behaved client gives the BYE its highest ID; anything released
// above it came from a misbehaving peer and is dropped unanswered.
func (m *sessionMachine) sequence(rel []envelope) {
	for _, e := range rel {
		_, isBye := e.msg.(*wire.Bye)
		switch {
		case m.byeReleased:
			m.cfg.met.LeaveFlight()
		case isBye:
			m.byeReleased = true
			for range m.l.discard() {
				m.cfg.met.LeaveFlight()
			}
		case !m.cfg.acquireWork():
			m.reply(e.id, m.shed())
		default:
			m.queue = append(m.queue, e)
		}
	}
}

// settle runs after every event that can free a slot or queue an op:
// it hands the next queued op to the executor if none is running, and
// answers a released BYE once it is the only request in flight.
func (m *sessionMachine) settle() {
	if m.executing == 0 && len(m.queue) > 0 {
		e := m.queue[0]
		m.queue = m.queue[:copy(m.queue, m.queue[1:])]
		m.executing = e.id
		m.acts = append(m.acts, action{kind: actExecute, env: e})
	}
	if m.byeReleased && m.cfg.met.InFlight() == 1 {
		m.reply(m.bye, &wire.Bye{})
		m.over = true
		m.acts = append(m.acts, action{kind: actClose})
	}
}

// windowFull reports whether every slot of the window is taken; an
// admitted BYE (bye != 0) holds a slot outside it.
func (m *sessionMachine) windowFull() bool {
	return m.cfg.met.InFlight() >= requestWindow+int64(min(m.bye, 1))
}

// reply sends a request's final answer, records it in the ledger so a
// duplicate can be answered again, and frees the request's slot.
func (m *sessionMachine) reply(id uint64, resp wire.Message) {
	if _, isErr := resp.(*wire.Error); isErr {
		m.cfg.met.Errors.Add(1)
	}
	m.l.complete(id, resp)
	m.send(envelope{id: id, msg: resp})
	m.cfg.met.LeaveFlight()
}

// send queues one envelope for the shell to seal and write, carrying the
// ledger's cumulative report at this point.
func (m *sessionMachine) send(e envelope) {
	m.acts = append(m.acts, action{kind: actSend, env: e, cum: m.l.cum()})
}

// shed counts one request answered BUSY and returns the answer.
func (m *sessionMachine) shed() *wire.Busy {
	m.cfg.met.Shed.Add(1)
	m.cfg.srv.ShedRequests.Add(1)
	return &wire.Busy{RetryAfterMillis: m.cfg.retryAfterMillis}
}

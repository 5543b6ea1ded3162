package shieldd

import (
	"fmt"
	"slices"
	"time"

	"heartshield/internal/stats"
	"heartshield/internal/wire"
)

// clientMachine is one client session's protocol with no I/O: the
// pending calls and their retry state, the last request ID, the send
// window, the BYE, and whether the session is live, dead or
// reconnecting. Each event — a call submitted or tried again (submit), a
// response or partial opened (response), the retry timer firing
// (timeout), the transport failing (transportFailed), a reconnect
// finishing (reconnected, reconnectFailed) and Close (bye, then close) —
// returns the actions it causes, in order: send this call's envelope,
// arm the retry timer, finish this call, hand this partial to
// OnProgress, reconnect, close the transport. It takes no lock, starts
// no goroutine, reads no clock and touches no transport or link; the
// Client is its shell, and FuzzSessionSchedule runs it against the
// server's sessionMachine.
//
// The rules it keeps:
//
//   - A fresh request takes the next ID, and only inside the window:
//     ID n only when n < report+1+requestWindow, selective repeat's ID
//     distance from the delivery report, so a server never holds more
//     than its window of requests above its cursor. A submit beyond the
//     window, or while a reconnect runs, is parked: its submitter tries
//     again after a later event.
//   - Every call ends exactly once: with the server's answer, or with a
//     typed error (ErrSessionLost, ErrRequestTimeout, ErrClientClosed,
//     or a BUSY answer as ErrServerBusy).
//   - Every fresh request carries the delivery report (report).
//   - On a datagram session a request is sent again when its retry
//     timer runs out, RetryTimeout<<tries after its last try (capped at
//     maxRetryBackoff), and after fastRetransmitSkips higher ordered
//     answers; a partial answer restarts its timer and try budget. A
//     request out of tries ends the session: the server can never fill
//     the gap its ID leaves.
//   - Close's BYE takes the highest ID, outside the window, and no
//     fresh request follows it.
//   - When the session ends, every pending call ends with
//     ErrSessionLost, and a parked submit too when it tries again,
//     unless it may reconnect. A reconnect restarts IDs at 1.
type clientMachine struct {
	cfg   clientConfig
	state clientState
	// lost is what a call ends with once the session has ended:
	// ErrSessionLost wrapping why.
	lost error
	// lastID is the highest request ID sent in the session.
	lastID uint64
	// pending holds the calls awaiting an answer, in ID order.
	pending []*Call
	// closing is set once Close has begun.
	closing bool
	// armed is when the retry timer fires, zero while it is stopped.
	armed time.Time
	stats TransportStats
	// acts is the current event's actions, reused across events: the
	// shell copies them before it releases its lock.
	acts []clientAction
}

// clientConfig is what a client machine needs from its options.
type clientConfig struct {
	// lossy is set on a datagram transport: requests are retried.
	lossy bool
	// rto is the initial retry timeout, maxTries the retransmits a
	// request gets.
	rto      time.Duration
	maxTries int
	// reconnect is set when AutoReconnect has something to re-dial.
	reconnect bool
	// backoff is the seed-keyed jitter source of every BUSY backoff
	// (busyDelay): the handshake's and roundTrip's alike, so overload
	// behaviour replays exactly. The machine itself draws nothing.
	backoff *stats.RNG
}

// clientState is where the session is.
type clientState uint8

const (
	clientLive clientState = iota
	clientDead
	clientReconnecting
)

// callPhase is where a call is in its machine.
type callPhase uint8

const (
	callNew callPhase = iota
	callParked
	callPending
	callDone
)

// clientActionKind is what the shell does for one action.
type clientActionKind uint8

const (
	// caSend seals and writes call's envelope: a fresh request, or a
	// retransmit, which the shell re-seals since a byte-identical copy
	// would die on the server's replay window.
	caSend clientActionKind = iota
	// caArm points the retry timer at at; a zero at stops it.
	caArm
	// caFinish ends call with msg or err.
	caFinish
	// caProgress hands the partial msg to call.OnProgress.
	caProgress
	// caReconnect re-dials and handshakes for call, then feeds
	// reconnected or reconnectFailed.
	caReconnect
	// caClose closes the transport.
	caClose
	// caHello writes frame, the HELLO, as a plaintext handshake frame.
	caHello
	// caCommit opens the session of the handshake in flight: its link,
	// ID and resumption state become the client's.
	caCommit
)

// clientAction is one step the shell carries out for the machine.
type clientAction struct {
	kind  clientActionKind
	call  *Call
	msg   wire.Message
	err   error
	at    time.Time
	frame []byte
}

// submit takes a call its submitter hands in, new or parked; a call
// sent or finished meanwhile is left alone.
func (m *clientMachine) submit(call *Call, now time.Time) []clientAction {
	m.acts = m.acts[:0]
	switch {
	case call.phase == callPending || call.phase == callDone:
	case m.closing:
		m.finish(call, nil, ErrClientClosed)
	case m.state == clientDead && m.cfg.reconnect:
		m.state, call.phase = clientReconnecting, callParked
		m.acts = append(m.acts, clientAction{kind: caReconnect, call: call})
	case m.state == clientDead:
		m.finish(call, nil, m.lost)
	case m.state == clientReconnecting || m.lastID >= m.report()+requestWindow:
		call.phase = callParked
	default:
		m.send(call, now)
	}
	return m.acts
}

// response takes an answer the shell opened for request id: a partial
// (wire.EnvPartial) or the final one.
func (m *clientMachine) response(id uint64, flags uint8, msg wire.Message, now time.Time) []clientAction {
	m.acts = m.acts[:0]
	if m.state != clientLive {
		return m.acts
	}
	partial := flags&wire.EnvPartial != 0
	if partial {
		m.stats.ProgressFrames++
	}
	i := slices.IndexFunc(m.pending, func(c *Call) bool { return c.id == id })
	if i < 0 {
		return m.acts // a duplicate answer, or a partial after the final one
	}
	call := m.pending[i]
	if partial {
		// The server holds the request and is working on it: its timer
		// and try budget start over.
		call.tries, call.due = 0, now.Add(m.cfg.rto)
		if p, ok := msg.(*wire.ExperimentProgress); ok && call.OnProgress != nil {
			m.acts = append(m.acts, clientAction{kind: caProgress, call: call, msg: p})
		}
	} else {
		switch r := msg.(type) {
		case *wire.Error:
			m.finish(call, nil, r)
		case *wire.Busy:
			// Shed under overload; roundTrip retries with a fresh ID.
			m.finish(call, nil, &busyError{retryAfter: time.Duration(r.RetryAfterMillis) * time.Millisecond})
		default:
			m.finish(call, msg, nil)
		}
		if m.cfg.lossy && orderedKind(call.Req.Kind()) {
			m.fastRetransmit(id, now)
		}
	}
	m.rearm()
	return m.acts
}

// timeout takes the retry timer firing at now; it is stopped until the
// machine arms it again. A due request out of tries ends the session;
// every other due request is sent again.
func (m *clientMachine) timeout(now time.Time) []clientAction {
	m.acts = m.acts[:0]
	m.armed = time.Time{}
	if m.state != clientLive {
		return m.acts
	}
	for _, call := range m.pending {
		if !call.due.After(now) && call.tries >= m.cfg.maxTries {
			m.stats.Timeouts++
			err := fmt.Errorf("%w (request %d, %d retransmits)", ErrRequestTimeout, call.id, call.tries)
			m.finish(call, nil, err)
			m.end(err)
			return m.acts
		}
	}
	for _, call := range m.pending {
		if !call.due.After(now) {
			call.tries++
			call.due = now.Add(m.backoff(call.tries))
			m.resend(call)
		}
	}
	m.rearm()
	return m.acts
}

// transportFailed takes the transport's end: a read error, or a frame
// that fails to open on a stream.
func (m *clientMachine) transportFailed(err error) []clientAction {
	m.acts = m.acts[:0]
	if m.state == clientLive {
		m.end(err)
	}
	return m.acts
}

// reconnected takes a finished reconnect: the new session starts at ID
// 1. If Close began meanwhile, the new session is closed at once.
func (m *clientMachine) reconnected() []clientAction {
	m.state, m.lost, m.lastID = clientLive, nil, 0
	if m.closing {
		return m.close()
	}
	m.acts = m.acts[:0]
	return m.acts
}

// reconnectFailed takes a failed reconnect: the call that asked for it
// ends.
func (m *clientMachine) reconnectFailed(call *Call, err error) []clientAction {
	m.acts = m.acts[:0]
	m.state, m.lost = clientDead, fmt.Errorf("%w: %w", ErrSessionLost, err)
	m.finish(call, nil, m.lost)
	return m.acts
}

// bye begins Close. From now on a submit takes no ID and ends with
// ErrClientClosed; on a live session call, the BYE, takes the highest
// ID, outside the window.
func (m *clientMachine) bye(call *Call, now time.Time) []clientAction {
	m.acts = m.acts[:0]
	if m.closing || m.state != clientLive {
		m.finish(call, nil, ErrClientClosed)
	} else {
		m.send(call, now)
	}
	m.closing = true
	return m.acts
}

// close finishes Close, once the BYE is answered or given up on: a live
// session ends, its pending calls with ErrSessionLost wrapping
// ErrClientClosed.
func (m *clientMachine) close() []clientAction {
	m.acts = m.acts[:0]
	m.closing = true
	if m.state == clientLive {
		m.end(ErrClientClosed)
	}
	return m.acts
}

// end ends a live session for why: the pending calls end, the retry
// timer stops and the transport closes.
func (m *clientMachine) end(why error) {
	m.state = clientDead
	m.lost = fmt.Errorf("%w: %w", ErrSessionLost, why)
	for len(m.pending) > 0 {
		m.finish(m.pending[0], nil, m.lost)
	}
	m.rearm()
	m.acts = append(m.acts, clientAction{kind: caClose})
}

// report is the delivery report every fresh request carries: every ID
// at or below it has had its answer. In a live session a call leaves
// pending only by its answer, so that is every ID below the oldest
// pending one, or every ID sent.
func (m *clientMachine) report() uint64 {
	if len(m.pending) > 0 {
		return m.pending[0].id - 1
	}
	return m.lastID
}

// send gives call the next ID and sends it.
func (m *clientMachine) send(call *Call, now time.Time) {
	report := m.report()
	m.lastID++
	call.id, call.phase = m.lastID, callPending
	call.env = wire.EncodeEnvelopeV3(call.id, 0, report, call.Req)
	call.tries, call.skips, call.due = 0, 0, now.Add(m.cfg.rto)
	m.pending = append(m.pending, call)
	m.acts = append(m.acts, clientAction{kind: caSend, call: call})
	m.rearm()
}

// resend sends call's envelope again.
func (m *clientMachine) resend(call *Call) {
	m.stats.Retransmits++
	m.acts = append(m.acts, clientAction{kind: caSend, call: call})
}

// fastRetransmit applies the selective-repeat rule to a final ordered
// answer. Ordered answers leave the server in ID order, so the answer of
// every ordered request still pending below respID is in flight or
// lost; after fastRetransmitSkips such signals the request is sent again
// at once, at round-trip rather than retry-timer latency.
func (m *clientMachine) fastRetransmit(respID uint64, now time.Time) {
	for _, call := range m.pending {
		if call.id >= respID {
			return
		}
		if !orderedKind(call.Req.Kind()) {
			continue
		}
		if call.skips++; call.skips >= fastRetransmitSkips {
			call.skips = 0
			call.due = now.Add(m.backoff(call.tries))
			m.resend(call)
		}
	}
}

// finish ends call.
func (m *clientMachine) finish(call *Call, resp wire.Message, err error) {
	if i := slices.Index(m.pending, call); i >= 0 {
		m.pending = slices.Delete(m.pending, i, i+1)
	}
	call.phase = callDone
	m.acts = append(m.acts, clientAction{kind: caFinish, call: call, msg: resp, err: err})
}

// rearm points the retry timer at the earliest due pending request.
func (m *clientMachine) rearm() {
	var at time.Time
	for _, call := range m.pending {
		if m.cfg.lossy && (at.IsZero() || call.due.Before(at)) {
			at = call.due
		}
	}
	if !at.Equal(m.armed) {
		m.armed = at
		m.acts = append(m.acts, clientAction{kind: caArm, at: at})
	}
}

// backoff is the wait after try n of a request.
func (m *clientMachine) backoff(tries int) time.Duration {
	d := m.cfg.rto << uint(tries)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	return d
}

package shieldd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"heartshield/internal/wire"
)

// clientRig runs a client machine with no goroutine, socket or clock:
// named calls and virtual time.
type clientRig struct {
	t     *testing.T
	m     *clientMachine
	start time.Time
	now   time.Time
	calls map[string]*Call
	names map[*Call]string
	// sent is each call's envelope as first sent; a resend must carry it.
	sent map[*Call][]byte
	// reconnector is the call whose submitter runs the reconnect.
	reconnector *Call
}

// Every client rig retries after rigRTO, at most rigTries times.
const (
	rigRTO   = 100 * time.Millisecond
	rigTries = 3
)

func newClientRig(t *testing.T, lossy, reconnect bool, maxTries int) *clientRig {
	start := time.Unix(1000, 0)
	return &clientRig{
		t:     t,
		m:     &clientMachine{cfg: clientConfig{lossy: lossy, rto: rigRTO, maxTries: maxTries, reconnect: reconnect}},
		start: start,
		now:   start,
		calls: map[string]*Call{},
		names: map[*Call]string{},
		sent:  map[*Call][]byte{},
	}
}

// outcome names how a call ended.
func outcome(a clientAction) string {
	var busy *busyError
	var werr *wire.Error
	switch {
	case a.err == nil:
		return msgName(a.msg)
	case errors.Is(a.err, ErrSessionLost) && errors.Is(a.err, ErrRequestTimeout):
		return "lost(timeout)"
	case errors.Is(a.err, ErrSessionLost) && errors.Is(a.err, ErrClientClosed):
		return "lost(closed)"
	case errors.Is(a.err, ErrSessionLost):
		return "lost"
	case errors.Is(a.err, ErrRequestTimeout):
		return "timeout"
	case errors.Is(a.err, ErrClientClosed):
		return "closed"
	case errors.As(a.err, &busy):
		return "busy"
	case errors.As(a.err, &werr):
		return "bad"
	}
	return a.err.Error()
}

// render writes one event's actions as text, e.g. "send a 1; arm 100ms".
func (r *clientRig) render(acts []clientAction) string {
	var parts []string
	for _, a := range acts {
		name := r.names[a.call]
		switch a.kind {
		case caSend:
			if first, ok := r.sent[a.call]; ok {
				if !bytes.Equal(a.call.env, first) {
					r.t.Fatalf("resend of %s carries another envelope", name)
				}
				parts = append(parts, "resend "+name)
				break
			}
			id, _, cum, _, _ := wire.DecodeEnvelopeV3(a.call.env)
			r.sent[a.call] = bytes.Clone(a.call.env)
			if cum > 0 {
				parts = append(parts, fmt.Sprintf("send %s %d (cum %d)", name, id, cum))
			} else {
				parts = append(parts, fmt.Sprintf("send %s %d", name, id))
			}
		case caArm:
			if a.at.IsZero() {
				parts = append(parts, "stop")
			} else {
				parts = append(parts, fmt.Sprint("arm ", a.at.Sub(r.start)))
			}
		case caFinish:
			parts = append(parts, fmt.Sprintf("finish %s %s", name, outcome(a)))
		case caProgress:
			parts = append(parts, "progress "+name)
		case caReconnect:
			r.reconnector = a.call
			parts = append(parts, "reconnect")
		case caClose:
			parts = append(parts, "close")
		}
	}
	return strings.Join(parts, "; ")
}

type clientStep struct {
	ev    func(*clientRig) []clientAction
	want  string
	state string
}

// submit hands in a new call of request kind under name.
func submit(name string, kind int) func(*clientRig) []clientAction {
	return func(r *clientRig) []clientAction {
		call := &Call{Req: requestMessage(kind, 0), Done: make(chan *Call, 1)}
		if kind == reqExperiment {
			call.OnProgress = func(*wire.ExperimentProgress) {}
		}
		r.calls[name], r.names[call] = call, name
		return r.m.submit(call, r.now)
	}
}

// retry has the submitter of a parked call try again.
func retry(name string) func(*clientRig) []clientAction {
	return func(r *clientRig) []clientAction { return r.m.submit(r.calls[name], r.now) }
}

// answer delivers the final answer msg to request id.
func answer(id uint64, msg wire.Message) func(*clientRig) []clientAction {
	return func(r *clientRig) []clientAction { return r.m.response(id, 0, msg, r.now) }
}

func pong(id uint64) func(*clientRig) []clientAction { return answer(id, &wire.Pong{}) }

func result(id uint64) func(*clientRig) []clientAction { return answer(id, opResult(id)) }

// partialAt delivers a partial answer to request id at d.
func partialAt(id uint64, d time.Duration) func(*clientRig) []clientAction {
	return func(r *clientRig) []clientAction {
		r.now = r.start.Add(d)
		return r.m.response(id, wire.EnvPartial, &wire.ExperimentProgress{Done: 1}, r.now)
	}
}

// fireAt fires the retry timer at d.
func fireAt(d time.Duration) func(*clientRig) []clientAction {
	return func(r *clientRig) []clientAction {
		r.now = r.start.Add(d)
		return r.m.timeout(r.now)
	}
}

func transportFails() func(*clientRig) []clientAction {
	return func(r *clientRig) []clientAction { return r.m.transportFailed(io.EOF) }
}

func reconnects(ok bool) func(*clientRig) []clientAction {
	return func(r *clientRig) []clientAction {
		if ok {
			return r.m.reconnected()
		}
		return r.m.reconnectFailed(r.reconnector, io.ErrUnexpectedEOF)
	}
}

// closes begins Close with a BYE named "bye".
func closes() func(*clientRig) []clientAction {
	return func(r *clientRig) []clientAction {
		call := &Call{Req: &wire.Bye{}, Done: make(chan *Call, 1)}
		r.calls["bye"], r.names[call] = call, "bye"
		return r.m.bye(call, r.now)
	}
}

func closeEnds() func(*clientRig) []clientAction {
	return func(r *clientRig) []clientAction { return r.m.close() }
}

// state renders what the rule tables check besides actions.
func (r *clientRig) state() string {
	parked := 0
	for call := range r.names {
		if call.phase == callParked {
			parked++
		}
	}
	return fmt.Sprintf("last=%d report=%d pending=%d parked=%d retransmits=%d timeouts=%d",
		r.m.lastID, r.m.report(), len(r.m.pending), parked, r.m.stats.Retransmits, r.m.stats.Timeouts)
}

// fillWindow submits pings p1..p16 on a stream, each sent at once.
func fillWindow() []clientStep {
	var steps []clientStep
	for i := 1; i <= requestWindow; i++ {
		steps = append(steps, clientStep{ev: submit(fmt.Sprint("p", i), reqPing), want: fmt.Sprintf("send p%d %d", i, i)})
	}
	return steps
}

// every renders "<verb> p<i> <what>" for i in from..to, joined by "; ".
func every(verb string, from, to int, what string) string {
	var parts []string
	for i := from; i <= to; i++ {
		parts = append(parts, fmt.Sprintf("%s p%d %s", verb, i, what))
	}
	return strings.Join(parts, "; ")
}

// TestClientMachineRules drives the client machine directly, in virtual
// time, through the window, retry, fast-retransmit, partial, report,
// Close, transport-end and reconnect rules.
func TestClientMachineRules(t *testing.T) {
	for _, tc := range []struct {
		name             string
		lossy, reconnect bool
		maxTries         int
		steps            []clientStep
	}{
		{name: "the window is ID distance from the delivery report", steps: append(fillWindow(),
			clientStep{ev: submit("p17", reqPing), want: "", state: "last=16 report=0 pending=16 parked=1 retransmits=0 timeouts=0"},
			clientStep{ev: pong(2), want: "finish p2 pong"},
			clientStep{ev: retry("p17"), want: "", state: "last=16 report=0 pending=15 parked=1 retransmits=0 timeouts=0"},
			clientStep{ev: pong(1), want: "finish p1 pong"},
			clientStep{ev: retry("p17"), want: "send p17 17 (cum 2)"},
			clientStep{ev: submit("p18", reqPing), want: "send p18 18 (cum 2)"},
			clientStep{ev: submit("p19", reqPing), want: "", state: "last=18 report=2 pending=16 parked=1 retransmits=0 timeouts=0"},
		)},
		{name: "retransmits back off from the retry timeout and expire", lossy: true, maxTries: rigTries, steps: []clientStep{
			{ev: submit("a", reqExchange), want: "send a 1; arm 100ms"},
			{ev: fireAt(99 * time.Millisecond), want: "arm 100ms"},
			{ev: fireAt(100 * time.Millisecond), want: "resend a; arm 300ms"},
			{ev: submit("b", reqPing), want: "send b 2; arm 200ms"},
			{ev: fireAt(300 * time.Millisecond), want: "resend a; resend b; arm 500ms"},
			{ev: fireAt(500 * time.Millisecond), want: "resend b; arm 700ms"},
			{ev: fireAt(700 * time.Millisecond), want: "resend a; arm 900ms"},
			{ev: fireAt(900 * time.Millisecond), want: "resend b; arm 1.5s", state: "last=2 report=0 pending=2 parked=0 retransmits=6 timeouts=0"},
			{ev: fireAt(1500 * time.Millisecond), want: "finish a timeout; finish b lost(timeout); close",
				state: "last=2 report=2 pending=0 parked=0 retransmits=6 timeouts=1"},
			{ev: pong(2), want: ""},
			{ev: fireAt(1700 * time.Millisecond), want: ""},
			{ev: submit("c", reqPing), want: "finish c lost(timeout)", state: "last=2 report=2 pending=0 parked=0 retransmits=6 timeouts=1"},
		}},
		{name: "the backoff is capped", lossy: true, maxTries: 8, steps: []clientStep{
			{ev: submit("a", reqPing), want: "send a 1; arm 100ms"},
			{ev: fireAt(100 * time.Millisecond), want: "resend a; arm 300ms"},
			{ev: fireAt(300 * time.Millisecond), want: "resend a; arm 700ms"},
			{ev: fireAt(700 * time.Millisecond), want: "resend a; arm 1.5s"},
			{ev: fireAt(1500 * time.Millisecond), want: "resend a; arm 3.1s"},
			{ev: fireAt(3100 * time.Millisecond), want: "resend a; arm 6.3s"},
			{ev: fireAt(6300 * time.Millisecond), want: "resend a; arm 10.3s"},
			{ev: fireAt(10300 * time.Millisecond), want: "resend a; arm 14.3s"},
			{ev: pong(1), want: "finish a pong; stop", state: "last=1 report=1 pending=0 parked=0 retransmits=7 timeouts=0"},
		}},
		{name: "an ordered request is re-sent after three higher ordered answers", lossy: true, maxTries: rigTries, steps: []clientStep{
			{ev: submit("e1", reqExchange), want: "send e1 1; arm 100ms"},
			{ev: submit("q", reqPing), want: "send q 2"},
			{ev: submit("e3", reqAttack), want: "send e3 3"},
			{ev: submit("e4", reqBatch), want: "send e4 4"},
			{ev: submit("e5", reqExchange), want: "send e5 5"},
			{ev: submit("e6", reqExchange), want: "send e6 6"},
			{ev: result(3), want: "finish e3 result"},
			{ev: result(4), want: "finish e4 result"},
			{ev: fireAt(50 * time.Millisecond), want: "arm 100ms"},
			{ev: result(5), want: "finish e5 result; resend e1", state: "last=6 report=0 pending=3 parked=0 retransmits=1 timeouts=0"},
			{ev: result(6), want: "finish e6 result"},
			{ev: result(1), want: "finish e1 result"},
			{ev: pong(2), want: "finish q pong; stop", state: "last=6 report=6 pending=0 parked=0 retransmits=1 timeouts=0"},
		}},
		{name: "a loss-free in-order schedule never retransmits", lossy: true, maxTries: rigTries, steps: []clientStep{
			{ev: submit("e1", reqExchange), want: "send e1 1; arm 100ms"},
			{ev: submit("e2", reqExchange), want: "send e2 2"},
			{ev: submit("e3", reqExchange), want: "send e3 3"},
			{ev: submit("e4", reqExchange), want: "send e4 4"},
			{ev: submit("e5", reqExchange), want: "send e5 5"},
			{ev: result(1), want: "finish e1 result"},
			{ev: result(2), want: "finish e2 result"},
			{ev: result(3), want: "finish e3 result"},
			{ev: result(4), want: "finish e4 result"},
			{ev: result(5), want: "finish e5 result; stop", state: "last=5 report=5 pending=0 parked=0 retransmits=0 timeouts=0"},
		}},
		{name: "a partial restarts its call's timer and try budget", lossy: true, maxTries: rigTries, steps: []clientStep{
			{ev: submit("x", reqExperiment), want: "send x 1; arm 100ms"},
			{ev: fireAt(100 * time.Millisecond), want: "resend x; arm 300ms"},
			{ev: fireAt(300 * time.Millisecond), want: "resend x; arm 700ms"},
			{ev: partialAt(1, 650*time.Millisecond), want: "progress x; arm 750ms"},
			{ev: partialAt(9, 660*time.Millisecond), want: ""},
			{ev: fireAt(750 * time.Millisecond), want: "resend x; arm 950ms"},
			{ev: answer(1, experimentResult(1)), want: "finish x experiment; stop",
				state: "last=1 report=1 pending=0 parked=0 retransmits=3 timeouts=0"},
		}},
		{name: "the delivery report rides every request and never goes back", steps: []clientStep{
			{ev: submit("a", reqPing), want: "send a 1"},
			{ev: submit("b", reqExchange), want: "send b 2"},
			{ev: submit("c", reqPing), want: "send c 3"},
			{ev: pong(3), want: "finish c pong"},
			{ev: submit("d", reqPing), want: "send d 4"},
			{ev: pong(1), want: "finish a pong"},
			{ev: submit("e", reqPing), want: "send e 5 (cum 1)"},
			{ev: result(2), want: "finish b result"},
			{ev: pong(1), want: ""},
			{ev: submit("f", reqPing), want: "send f 6 (cum 3)", state: "last=6 report=3 pending=3 parked=0 retransmits=0 timeouts=0"},
		}},
		{name: "the BYE bypasses the window with the highest ID, and a later or parked submit takes none", steps: append(fillWindow(),
			clientStep{ev: submit("p17", reqPing), want: ""},
			clientStep{ev: closes(), want: "send bye 17"},
			clientStep{ev: submit("q", reqPing), want: "finish q closed", state: "last=17 report=0 pending=17 parked=1 retransmits=0 timeouts=0"},
			clientStep{ev: retry("p17"), want: "finish p17 closed"},
			clientStep{ev: retry("p17"), want: ""},
			clientStep{ev: pong(1), want: "finish p1 pong"},
			clientStep{ev: answer(17, &wire.Bye{}), want: "finish bye bye"},
			clientStep{ev: closeEnds(), want: every("finish", 2, 16, "lost(closed)") + "; close",
				state: "last=17 report=17 pending=0 parked=0 retransmits=0 timeouts=0"},
			clientStep{ev: closes(), want: "finish bye closed"},
			clientStep{ev: closeEnds(), want: ""},
		)},
		{name: "a Close on an ended session sends no BYE", lossy: true, maxTries: rigTries, steps: []clientStep{
			{ev: submit("a", reqPing), want: "send a 1; arm 100ms"},
			{ev: transportFails(), want: "finish a lost; stop; close"},
			{ev: closes(), want: "finish bye closed"},
			{ev: closeEnds(), want: ""},
			{ev: submit("b", reqPing), want: "finish b closed"},
		}},
		{name: "the transport's end ends every pending call, and a parked submit when it tries again", steps: append(fillWindow(),
			clientStep{ev: submit("p17", reqPing), want: ""},
			clientStep{ev: transportFails(), want: every("finish", 1, 16, "lost") + "; close",
				state: "last=16 report=16 pending=0 parked=1 retransmits=0 timeouts=0"},
			clientStep{ev: retry("p17"), want: "finish p17 lost"},
			clientStep{ev: transportFails(), want: ""},
			clientStep{ev: submit("a", reqPing), want: "finish a lost"},
		)},
		{name: "with AutoReconnect a parked submit survives the end and reconnects", reconnect: true, steps: append(fillWindow(),
			clientStep{ev: submit("p17", reqPing), want: ""},
			clientStep{ev: transportFails(), want: every("finish", 1, 16, "lost") + "; close",
				state: "last=16 report=16 pending=0 parked=1 retransmits=0 timeouts=0"},
			clientStep{ev: retry("p17"), want: "reconnect"},
			clientStep{ev: submit("a", reqPing), want: ""},
			clientStep{ev: reconnects(true), want: "", state: "last=0 report=0 pending=0 parked=2 retransmits=0 timeouts=0"},
			clientStep{ev: retry("a"), want: "send a 1"},
			clientStep{ev: retry("p17"), want: "send p17 2"},
		)},
		{name: "with AutoReconnect and nothing pending the next submit reconnects", reconnect: true, lossy: true, maxTries: rigTries, steps: []clientStep{
			{ev: submit("a", reqPing), want: "send a 1; arm 100ms"},
			{ev: pong(1), want: "finish a pong; stop"},
			{ev: transportFails(), want: "close"},
			{ev: submit("b", reqPing), want: "reconnect"},
			{ev: reconnects(false), want: "finish b lost"},
			{ev: submit("c", reqPing), want: "reconnect"},
			{ev: reconnects(true), want: ""},
			{ev: retry("c"), want: "send c 1; arm 100ms", state: "last=1 report=0 pending=1 parked=0 retransmits=0 timeouts=0"},
			{ev: fireAt(100 * time.Millisecond), want: "resend c; arm 300ms"},
			{ev: fireAt(300 * time.Millisecond), want: "resend c; arm 700ms"},
			{ev: fireAt(700 * time.Millisecond), want: "resend c; arm 1.5s"},
			{ev: fireAt(1500 * time.Millisecond), want: "finish c timeout; close"},
			{ev: submit("d", reqPing), want: "reconnect"},
			{ev: closes(), want: "finish bye closed"},
			{ev: closeEnds(), want: ""},
			{ev: reconnects(true), want: "close"},
			{ev: retry("d"), want: "finish d closed"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newClientRig(t, tc.lossy, tc.reconnect, tc.maxTries)
			for i, st := range tc.steps {
				if got := r.render(st.ev(r)); got != st.want {
					t.Fatalf("step %d: actions %q, want %q", i, got, st.want)
				}
				if st.state != "" {
					if got := r.state(); got != st.state {
						t.Fatalf("step %d: state %q, want %q", i, got, st.state)
					}
				}
			}
		})
	}
}

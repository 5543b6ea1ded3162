package shieldd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"heartshield/internal/stats"
	"heartshield/internal/wire"
)

// hsRig runs a client handshake machine against a server one with no
// goroutine, socket or clock: the frames each sends wait in flight until
// a step hands them over, and time is virtual.
type hsRig struct {
	t     *testing.T
	srv   *Server
	c     *clientHandshake
	v     *serverHandshake
	start time.Time
	now   time.Time
	// up and down are the frames in flight; challenge is the server's
	// first CHALLENGE2, which every later one must repeat.
	up, down  []hsFrame
	challenge []byte
}

// hsFrame is one frame in flight: a plaintext handshake frame or a
// sealed one.
type hsFrame struct {
	hs bool
	b  []byte
}

// hsSeed seeds every rig client's BUSY jitter source.
const hsSeed = 41

func newHsRig(t *testing.T, lossy bool) *hsRig {
	srv, err := NewServer(ServerConfig{Secret: []byte("rig secret")})
	if err != nil {
		t.Fatal(err)
	}
	r := &hsRig{t: t, srv: srv, start: time.Unix(1000, 0)}
	r.now = r.start
	r.v = &serverHandshake{s: srv, addr: "client", reliable: !lossy}
	r.v.start(r.now)
	r.c = r.newClient(lossy, nil, nil)
	return r
}

// newClient builds a client handshake, offering ticket and rms when set.
func (r *hsRig) newClient(lossy bool, ticket, rms []byte) *clientHandshake {
	cfg := clientConfig{lossy: lossy, rto: rigRTO, maxTries: rigTries, backoff: stats.NewRNG(hsSeed)}
	h, err := newClientHandshake(r.srv.cfg.Secret, SessionOptions{Seed: hsSeed}, cfg, ticket, rms)
	if err != nil {
		r.t.Fatal(err)
	}
	return h
}

// client renders and carries out a client handshake's actions.
func (r *hsRig) client(acts []clientAction) string {
	var parts []string
	for _, a := range acts {
		switch a.kind {
		case caHello:
			r.up = append(r.up, hsFrame{hs: true, b: a.frame})
			if len(decodeHello(a.frame).Cookie) > 0 {
				parts = append(parts, "hello+cookie")
			} else {
				parts = append(parts, "hello")
			}
		case caArm:
			parts = append(parts, r.arm(a.at))
		case caCommit:
			parts = append(parts, "commit")
		case caClose:
			parts = append(parts, "fail "+hsOutcome(r.c.err))
		default:
			r.t.Fatalf("client handshake action %d", a.kind)
		}
	}
	return strings.Join(parts, "; ")
}

// server renders and carries out a server handshake's actions.
func (r *hsRig) server(acts []action) string {
	var parts []string
	for _, a := range acts {
		switch a.kind {
		case actHandshake:
			r.down = append(r.down, hsFrame{hs: true, b: a.frame})
			m, _ := wire.Decode(a.frame)
			switch m := m.(type) {
			case *wire.Challenge2:
				if r.challenge == nil {
					r.challenge = a.frame
				} else if !bytes.Equal(a.frame, r.challenge) {
					r.t.Fatal("a retransmitted HELLO derived a fresh CHALLENGE2")
				}
				parts = append(parts, "challenge")
			case *wire.Cookie:
				parts = append(parts, "cookie")
			case *wire.Error:
				parts = append(parts, "refuse "+msgName(m))
			default:
				r.t.Fatalf("server handshake frame %T", m)
			}
		case actSealed:
			r.down = append(r.down, hsFrame{b: a.frame})
			parts = append(parts, "ack")
		case actArm:
			parts = append(parts, r.arm(a.at))
		case actOpen:
			id, _, _, _, _ := wire.DecodeEnvelopeV3(a.frame)
			parts = append(parts, fmt.Sprint("open ", id))
		case actClose:
			parts = append(parts, "close "+hsOutcome(r.v.err))
		default:
			r.t.Fatalf("server handshake action %d", a.kind)
		}
	}
	return strings.Join(parts, "; ")
}

func (r *hsRig) arm(at time.Time) string {
	if at.IsZero() {
		return "stop"
	}
	return fmt.Sprint("arm ", at.Sub(r.start))
}

// hsOutcome names why a handshake ended.
func hsOutcome(err error) string {
	var werr *wire.Error
	switch {
	case errors.Is(err, ErrHandshakeTimeout):
		return "timeout"
	case errors.Is(err, ErrServerBusy):
		return "busy"
	case errors.Is(err, ErrVersion):
		return "version"
	case errors.As(err, &werr):
		return "refused"
	}
	return "error"
}

// The steps of a handshake rule table. Each returns the rendered
// actions of one event.
type hsStep struct {
	ev   func(*hsRig) string
	want string
}

// helloAt has the client start, or with d > 0 fire its timer, at d.
func helloAt(d time.Duration) func(*hsRig) string {
	return func(r *hsRig) string {
		r.now = r.start.Add(d)
		if d == 0 {
			return r.client(r.c.start(r.now))
		}
		return r.client(r.c.timeout(r.now))
	}
}

// limitAt fires the server's limit timer at d.
func limitAt(d time.Duration) func(*hsRig) string {
	return func(r *hsRig) string {
		r.now = r.start.Add(d)
		return r.server(r.v.timeout(r.now))
	}
}

// up hands the server the i-th frame in flight to it.
func up(i int) func(*hsRig) string {
	return func(r *hsRig) string {
		f := r.up[i]
		r.up = append(r.up[:i:i], r.up[i+1:]...)
		return r.server(r.v.frame(f.b, f.hs))
	}
}

// down hands the client the i-th frame in flight to it.
func down(i int) func(*hsRig) string {
	return func(r *hsRig) string {
		f := r.down[i]
		r.down = append(r.down[:i:i], r.down[i+1:]...)
		return r.client(r.c.frame(f.b, f.hs, nil, r.now))
	}
}

// toClient hands the client a frame the server machine did not send.
func toClient(hs bool, b []byte) func(*hsRig) string {
	return func(r *hsRig) string { return r.client(r.c.frame(b, hs, nil, r.now)) }
}

// toServer hands the server a frame the client machine did not send.
func toServer(hs bool, b []byte) func(*hsRig) string {
	return func(r *hsRig) string { return r.server(r.v.frame(b, hs)) }
}

// sealedRq has the committed client seal a request to the server.
func sealedRq(kind int, id uint64) func(*hsRig) string {
	return func(r *hsRig) string {
		return r.server(r.v.frame(r.c.link.Seal(requestPlain(kind, id, 0)), false))
	}
}

// newcomer replaces the rig's client with a new instance at the same
// address, offering ticket (from the committed client) when set, and
// starts it at d.
func newcomer(d time.Duration, ticket bool) func(*hsRig) string {
	return func(r *hsRig) string {
		var t, rms []byte
		if ticket {
			t, rms = r.c.ack.Ticket, r.c.rms
		}
		r.c, r.up, r.down, r.challenge = r.newClient(r.c.cfg.lossy, t, rms), nil, nil, nil
		r.now = r.start.Add(d)
		return r.client(r.c.start(r.now))
	}
}

// rebind gives the rig a new server transport at the same address, as
// the listener does once the old one closed, started at d.
func rebind(d time.Duration) func(*hsRig) string {
	return func(r *hsRig) string {
		r.now = r.start.Add(d)
		r.v = &serverHandshake{s: r.srv, addr: r.v.addr, reliable: r.v.reliable}
		r.challenge = nil
		return r.server(r.v.start(r.now))
	}
}

// resumed checks whether the client's committed session resumed.
func resumed(want bool) func(*hsRig) string {
	return func(r *hsRig) string {
		if r.c.resumed != want || r.c.ack == nil {
			r.t.Fatalf("committed %v, resumed %v; want resumed %v", r.c.ack != nil, r.c.resumed, want)
		}
		return ""
	}
}

var (
	garbage   = []byte{0xff, 0x00}
	badSealed = bytes.Repeat([]byte{7}, 40)
)

func msgBytes(m wire.Message) []byte { return m.Encode() }

// busyWait is the client's n-th BUSY backoff after a hint of 50ms.
func busyWait(n int) time.Duration {
	rng := stats.NewRNG(hsSeed)
	var d time.Duration
	for i := 0; i <= n; i++ {
		d = busyDelay(50*time.Millisecond, rigRTO, i, rng)
	}
	return d
}

// TestHelloMachineRules pins each handshake machine's rules, event by
// event, in virtual time: the client's wait schedule, cookie echo, BUSY
// backoff, refusals and key agreement, and the server's answers to a
// first HELLO, its retransmits, a newcomer, and sealed frames before
// and after the commit.
func TestHelloMachineRules(t *testing.T) {
	b0, b1 := busyWait(0), busyWait(1)
	tests := []struct {
		name  string
		lossy bool
		steps []hsStep
	}{
		{"datagram schedule against a silent server", true, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: helloAt(50 * time.Millisecond), want: ""},
			{ev: helloAt(100 * time.Millisecond), want: "hello; arm 300ms"},
			{ev: helloAt(300 * time.Millisecond), want: "hello; arm 700ms"},
			{ev: helloAt(700 * time.Millisecond), want: "hello; arm 1.5s"},
			{ev: helloAt(1500 * time.Millisecond), want: "stop; fail timeout"},
			{ev: helloAt(2 * time.Second), want: ""},
		}},
		{"stream schedule sends its HELLO once", false, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: helloAt(100 * time.Millisecond), want: "arm 300ms"},
			{ev: helloAt(300 * time.Millisecond), want: "arm 700ms"},
			{ev: helloAt(700 * time.Millisecond), want: "arm 1.5s"},
			{ev: helloAt(1500 * time.Millisecond), want: "stop; fail timeout"},
		}},
		{"a full handshake commits on the sealed ack", true, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: up(0), want: "challenge; ack"},
			{ev: down(1), want: ""},
			{ev: down(0), want: ""},
			{ev: toClient(false, badSealed), want: ""},
			{ev: toClient(true, garbage), want: ""},
			{ev: helloAt(100 * time.Millisecond), want: "hello; arm 300ms"},
			{ev: up(0), want: "challenge; ack"},
			{ev: down(0), want: ""},
			{ev: down(0), want: "stop; commit"},
			{ev: sealedRq(reqPing, 1), want: "stop; open 1"},
			{ev: sealedRq(reqPing, 2), want: "open 2"},
			{ev: toServer(false, badSealed), want: ""},
			{ev: helloAt(300 * time.Millisecond), want: ""},
		}},
		{"a retransmitted HELLO gets the same CHALLENGE2 until the commit", true, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: helloAt(100 * time.Millisecond), want: "hello; arm 300ms"},
			{ev: up(0), want: "challenge; ack"},
			{ev: up(0), want: "challenge; ack"},
			{ev: down(0), want: ""},
			{ev: down(1), want: ""},
			{ev: down(1), want: "stop; commit"},
			{ev: down(0), want: ""},
			{ev: toServer(true, msgBytes(&wire.Hello{Version: wire.Version})), want: "cookie"},
			{ev: sealedRq(reqPing, 1), want: "stop; open 1"},
			{ev: helloAt(150 * time.Millisecond), want: ""},
		}},
		{"the cookie echo costs no step", true, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: toClient(true, msgBytes(&wire.Cookie{Cookie: []byte{1, 2, 3}})), want: "hello+cookie"},
			{ev: helloAt(100 * time.Millisecond), want: "hello+cookie; arm 300ms"},
		}},
		{"a BUSY waits out its backoff, then restarts the step", true, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: toClient(true, msgBytes(&wire.Busy{RetryAfterMillis: 50})), want: fmt.Sprint("arm ", b0)},
			{ev: helloAt(b0), want: fmt.Sprint("hello; arm ", b0+rigRTO)},
			{ev: toClient(true, msgBytes(&wire.Busy{RetryAfterMillis: 50})), want: fmt.Sprint("arm ", b0+b1)},
			{ev: toClient(true, msgBytes(&wire.Busy{RetryAfterMillis: 50})), want: fmt.Sprint("arm ", b0+busyWait(2))},
			{ev: toClient(true, msgBytes(&wire.Busy{RetryAfterMillis: 50})), want: "stop; fail busy"},
		}},
		{"a version refusal fails with ErrVersion", true, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: toClient(true, msgBytes(&wire.Error{Code: wire.CodeVersion})), want: "stop; fail version"},
		}},
		{"another refusal fails with the server's error", false, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: toClient(true, msgBytes(&wire.Error{Code: wire.CodeBadRequest})), want: "stop; fail refused"},
		}},
		{"a stream fails on a frame out of place", false, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: toClient(true, garbage), want: "stop; fail error"},
		}},
		{"a stream fails on a sealed frame before the CHALLENGE2", false, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: toClient(false, badSealed), want: "stop; fail error"},
		}},
		{"the transport's end fails the handshake", true, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: func(r *hsRig) string { return r.client(r.c.frame(nil, false, io.EOF, r.now)) }, want: "stop; fail error"},
		}},
		{"a stream commits and ends on a frame that fails to open", false, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: up(0), want: "challenge; ack"},
			{ev: down(0), want: ""},
			{ev: down(0), want: "stop; commit"},
			{ev: sealedRq(reqExchange, 1), want: "stop; open 1"},
			{ev: toServer(false, badSealed), want: "close error"},
			{ev: sealedRq(reqPing, 2), want: ""},
		}},
		{"a stream's first frame must be a HELLO", false, []hsStep{
			{ev: toServer(true, garbage), want: "stop; close error"},
		}},
		{"a sealed frame before the HELLO is dropped on a datagram", true, []hsStep{
			{ev: toServer(false, badSealed), want: ""},
		}},
		{"a HELLO of another version is refused", true, []hsStep{
			{ev: toServer(true, msgBytes(&wire.Hello{Version: wire.Version + 1})), want: "refuse error6; stop; close refused"},
		}},
		{"a HELLO without a key share is refused", false, []hsStep{
			{ev: toServer(true, msgBytes(&wire.Hello{Version: wire.Version})), want: "refuse bad; stop; close refused"},
		}},
		{"a HELLO with too many implants is refused", false, []hsStep{
			{ev: toServer(true, msgBytes(&wire.Hello{Version: wire.Version, ExtraIMDs: 200})), want: "refuse bad; stop; close refused"},
		}},
		{"a newcomer ends a pending handshake only with a cookie", true, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: up(0), want: "challenge; ack"},
			{ev: newcomer(0, false), want: "hello; arm 100ms"},
			{ev: up(0), want: "cookie"},
			{ev: down(0), want: "hello+cookie"},
			{ev: up(0), want: "stop; close error"},
		}},
		{"a newcomer ends a session with its ticket, which then resumes", true, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: up(0), want: "challenge; ack"},
			{ev: down(0), want: ""},
			{ev: down(0), want: "stop; commit"},
			{ev: sealedRq(reqPing, 1), want: "stop; open 1"},
			{ev: newcomer(time.Second, true), want: "hello; arm 1.1s"},
			{ev: up(0), want: "close error"},
			{ev: rebind(time.Second), want: "arm 11s"},
			{ev: helloAt(1100 * time.Millisecond), want: "hello; arm 1.3s"},
			{ev: up(0), want: "challenge; ack"},
			{ev: down(0), want: ""},
			{ev: down(0), want: "stop; commit"},
			{ev: resumed(true), want: ""},
			{ev: newcomer(2*time.Second, true), want: "hello; arm 2.1s"},
			{ev: rebind(2 * time.Second), want: "arm 12s"},
			{ev: up(0), want: "challenge; ack"},
			{ev: down(0), want: ""},
			{ev: down(0), want: "stop; commit"},
			{ev: resumed(true), want: ""},
		}},
		{"a ticket redeems once", false, []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: up(0), want: "challenge; ack"},
			{ev: down(0), want: ""},
			{ev: down(0), want: "stop; commit"},
			{ev: func(r *hsRig) string {
				replay := r.newClient(false, r.c.ack.Ticket, r.c.rms)
				newcomer(time.Second, true)(r)
				rebind(time.Second)(r)
				up(0)(r)
				down(0)(r)
				down(0)(r)
				resumed(true)(r)
				r.c, r.up, r.down, r.challenge = replay, nil, nil, nil
				return r.client(r.c.start(r.now))
			}, want: "hello; arm 1.1s"},
			{ev: rebind(time.Second), want: "arm 11s"},
			{ev: up(0), want: "challenge; ack"},
			{ev: down(0), want: ""},
			{ev: down(0), want: "stop; commit"},
			{ev: resumed(false), want: ""},
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := newHsRig(t, tc.lossy)
			for i, st := range tc.steps {
				if got := st.ev(r); got != st.want {
					t.Fatalf("step %d: got %q, want %q", i, got, st.want)
				}
			}
		})
	}
}

// TestPreAuthLimit pins the server's pre-authentication limit in
// virtual time: a transport that has not committed handshakeTimeout
// after its first HELLO is closed, whether its peer went silent or only
// re-sent its HELLO (a retransmit does not extend the limit), and one
// that committed before the limit keeps its session.
func TestPreAuthLimit(t *testing.T) {
	last := handshakeTimeout - time.Millisecond
	for _, tc := range []struct {
		name  string
		steps []hsStep
	}{
		{"a silent peer", []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: up(0), want: "challenge; ack"},
			{ev: limitAt(last), want: ""},
			{ev: limitAt(handshakeTimeout), want: "stop; close timeout"},
			{ev: toServer(true, nil), want: ""},
		}},
		{"a peer that only re-sends its HELLO", []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: up(0), want: "challenge; ack"},
			{ev: helloAt(100 * time.Millisecond), want: "hello; arm 300ms"},
			{ev: helloAt(300 * time.Millisecond), want: "hello; arm 700ms"},
			{ev: limitAt(5 * time.Second), want: ""},
			{ev: up(0), want: "challenge; ack"},
			{ev: limitAt(last), want: ""},
			{ev: up(0), want: "challenge; ack"},
			{ev: limitAt(handshakeTimeout), want: "stop; close timeout"},
		}},
		{"a peer that commits before the limit", []hsStep{
			{ev: helloAt(0), want: "hello; arm 100ms"},
			{ev: up(0), want: "challenge; ack"},
			{ev: down(0), want: ""},
			{ev: down(0), want: "stop; commit"},
			{ev: limitAt(last), want: ""},
			{ev: sealedRq(reqPing, 1), want: "stop; open 1"},
			{ev: limitAt(handshakeTimeout), want: ""},
			{ev: limitAt(time.Hour), want: ""},
			{ev: sealedRq(reqPing, 2), want: "open 2"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newHsRig(t, true)
			if got := r.arm(r.v.limit); got != "arm 10s" {
				t.Fatalf("limit %s, want arm 10s", got)
			}
			for i, st := range tc.steps {
				if got := st.ev(r); got != st.want {
					t.Fatalf("step %d: got %q, want %q", i, got, st.want)
				}
			}
		})
	}
}

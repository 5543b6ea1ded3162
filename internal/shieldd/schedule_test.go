package shieldd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"heartshield/internal/securelink"
	"heartshield/internal/stats"
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
	opDuplicate           // uplink[arg] is duplicated (a request re-sealed, as a resend is)
	opReceive             // downlink[arg] reaches the client; bit 3 loses it instead
	opExecuted            // the server's running ordered op finishes
	opExperiment          // running experiment arg: bit 3 finishes it, else a partial
	opTick                // advance (arg+1)×100 ms, then the server's idle tick and limit timer
	opTimer               // the client's timer fires; bit 3 fires it early
	opTransportEnd        // arg bit 0: the server's end of the transport ends, else the client's
	opReconnect           // the reconnect's handshake runs out; bit 3 fails it
	opRaw                 // a frame the client machine never sends (schedule.raw)
	opHello               // a handshake frame or table change the client never makes (schedule.hello)
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

// beyondWindow is the lowest ID of the requests the raw op injects
// before the BYE: far above any ID a schedule reaches, so beyond the
// server's window whenever it arrives.
const beyondWindow = 1 << 32

// The addresses of a datagram schedule: the client's, which every
// reconnect reuses, and another that only ever replays its frames.
const (
	clientAddr = "client"
	otherAddr  = "other"
)

// upFrame is one frame in flight to the server: from an address, a
// plaintext handshake frame or a sealed one, and a sealed request's
// plaintext.
type upFrame struct {
	from     string
	hs       bool
	b, plain []byte
}

// schedule is FuzzSessionSchedule's world: a client machine and its
// handshakes, the server's gate and the server sides it admits (each a
// handshake machine, then a session machine), the links between them,
// which the fuzz bytes may drop, duplicate and reorder, the server's
// work, virtual time, and the record every check reads. Every session
// opens through both handshake machines: the first runs out losslessly,
// and a reconnect's runs under the fuzz bytes.
type schedule struct {
	t        *testing.T
	reliable bool
	budget   int
	now      time.Time

	c     *clientMachine
	armed time.Time // the client's timer
	calls []*callRecord
	rec   map[*Call]*callRecord
	// waiters are the calls whose submitters wait because the machine
	// once parked them; a finished one may still try again once.
	waiters []*Call
	// bye is Close's BYE once Close began, closed set once it finished.
	bye    *Call
	closed bool
	// open is set while the client's session transport is open;
	// reconnector is the call whose submitter runs a reconnect, while
	// one runs.
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

	// The handshake: srvd is the server whose gate, cookies, tickets and
	// session table (one slot) every handshake meets; hs is the client's
	// handshake in flight, link its session link, ticket and rms the
	// resumption state the next one offers, and hsDown the frames in
	// flight to it.
	srvd        *Server
	hs          *clientHandshake
	link        *securelink.Link
	ticket, rms []byte
	hsDown      []hsFrame
	// held is set while another client holds the table's slot.
	held bool
	// The record of the handshakes: the cookie the server sent each
	// address for each nonce, the address each ticket was issued to, the
	// tickets a handshake resumed from, and the handshake bytes received
	// from and sent to each address before it was proven.
	cookies  map[string][]byte
	issued   map[string]string
	redeemed map[string]bool
	proven   map[string]bool
	in, out  map[string]int

	// srv is the server side of the client's latest session (on a
	// stream, of its latest transport), sessions every server side, and
	// peers the listener's table (datagrams only): another client
	// instance may take the client's address over.
	srv      *serverSide
	sessions []*serverSide
	peers    map[string]*serverSide
	uplink   []upFrame
}

// callRecord is what the schedule saw of one call.
type callRecord struct {
	call     *Call
	srv      *serverSide // the session that took its ID, once sent
	id       uint64
	finishes int
}

func newSchedule(t *testing.T, cfg byte) *schedule {
	srvd, err := NewServer(ServerConfig{Secret: []byte("schedule secret"), MaxSessions: 1, AdmissionWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := &schedule{
		t:        t,
		reliable: cfg&4 != 0,
		budget:   int(cfg & 3),
		now:      time.Unix(1000, 0),
		c: &clientMachine{cfg: clientConfig{
			lossy: cfg&4 == 0, rto: schedRTO, maxTries: schedTries, reconnect: cfg&8 != 0, backoff: stats.NewRNG(1),
		}},
		rec:      map[*Call]*callRecord{},
		srvd:     srvd,
		cookies:  map[string][]byte{},
		issued:   map[string]string{},
		redeemed: map[string]bool{},
		proven:   map[string]bool{},
		in:       map[string]int{},
		out:      map[string]int{},
		peers:    map[string]*serverSide{},
	}
	s.dial()
	s.handshake()
	if !s.open {
		t.Fatal("the first handshake did not open a session")
	}
	return s
}

// newServerSide makes the server side of a new transport at addr, its
// pre-authentication limit armed now.
func (s *schedule) newServerSide(addr string) *serverSide {
	v := &serverSide{
		t:         s.t,
		r:         newMachineRig(s.budget, s.reliable),
		h:         &serverHandshake{s: s.srvd, addr: addr, reliable: s.reliable},
		reliable:  s.reliable,
		rude:      map[uint64]bool{},
		sent:      map[uint64]*callRecord{},
		delivered: map[uint64]bool{},
		undeliv:   1,
		answers:   map[uint64]wire.Message{},
		started:   map[uint64]bool{},
	}
	s.sessions = append(s.sessions, v)
	s.serverHS(v, v.h.start(s.now), nil)
	return v
}

// dial starts a handshake, as the client does for its first session and
// for every reconnect, offering the last session's ticket. A stream
// dials a new connection: the old one's frames die with it, and its
// server side reads its end.
func (s *schedule) dial() {
	h, err := newClientHandshake(s.srvd.cfg.Secret, SessionOptions{Seed: 1}, s.c.cfg, s.ticket, s.rms)
	if err != nil {
		s.t.Fatal(err)
	}
	s.hs, s.hsDown = h, nil
	if s.reliable {
		if s.srv != nil {
			s.srv.retire(s)
		}
		s.uplink, s.srv = nil, s.newServerSide(clientAddr)
	}
	s.client(h.start(s.now))
}

// handshake runs the client's handshake in flight out over lossless
// links, finishing the server's work as it goes.
func (s *schedule) handshake() {
	for round := 0; s.hs != nil; round++ {
		if round > 64 {
			s.t.Fatalf("the handshake did not converge: busies %d, step %d", s.hs.busies, s.hs.step)
		}
		if !s.flush() {
			s.fire(false)
		}
	}
}

// opened starts the record of a client session that just opened.
func (s *schedule) opened() {
	s.open = true
	s.pending, s.answered = map[uint64]*callRecord{}, map[uint64]bool{}
	s.cum, s.sentMax, s.byeID = 0, 0, 0
}

func (s *schedule) track(call *Call) {
	r := &callRecord{call: call}
	s.calls = append(s.calls, r)
	s.rec[call] = r
}

// client checks and carries out the client machine's and its
// handshake's actions.
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
			s.seal(a.call.env)
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
			s.dial()
		case caHello:
			if s.hs == nil {
				t.Fatal("a HELLO sent with no handshake in flight")
			}
			s.uplink = append(s.uplink, upFrame{from: clientAddr, hs: true, b: a.frame})
		case caCommit:
			s.commit()
		case caClose:
			if h := s.hs; h != nil && h.err != nil {
				s.handshakeFailed(h.err)
			} else {
				s.open = false
			}
		}
	}
}

// seal seals a request plaintext with the client's session link and
// sends it.
func (s *schedule) seal(plain []byte) {
	s.uplink = append(s.uplink, upFrame{from: clientAddr, b: s.link.Seal(plain), plain: plain})
}

// commit takes the client's committed handshake: both ends must hold the
// same keys, and the server side that holds them serves a reconnect's
// session.
func (s *schedule) commit() {
	h := s.hs
	s.hs, s.hsDown, s.link, s.ticket, s.rms = nil, nil, h.link, h.ack.Ticket, h.rms
	probe := h.link.Seal([]byte("probe"))
	i := slices.IndexFunc(s.sessions, func(v *serverSide) bool {
		if v.h.hello == nil || v.h.hello.Nonce != h.hello.Nonce {
			return false
		}
		_, err := v.h.link.Open(probe)
		return err == nil
	})
	if i < 0 {
		s.t.Fatal("the client committed on keys no server handshake of its HELLO holds")
	}
	s.srv = s.sessions[i]
	call := s.reconnector
	if s.reconnector = nil; call == nil {
		s.opened()
		return
	}
	if len(s.pending) > 0 {
		s.t.Fatalf("reconnect with %d calls pending", len(s.pending))
	}
	acts := s.c.reconnected()
	if s.c.state == clientLive {
		s.opened()
	}
	s.client(acts)
}

// handshakeFailed takes a failed handshake, which must fail with a typed
// error: the reconnect that ran it fails.
func (s *schedule) handshakeFailed(err error) {
	var werr *wire.Error
	if !errors.Is(err, ErrHandshakeTimeout) && !errors.Is(err, ErrServerBusy) && !errors.As(err, &werr) &&
		!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, io.ErrUnexpectedEOF) {
		s.t.Fatalf("the handshake failed with an untyped error: %v", err)
	}
	call := s.reconnector
	if s.hs, s.reconnector = nil, nil; call == nil {
		s.t.Fatalf("the first handshake failed: %v", err)
	}
	s.client(s.c.reconnectFailed(call, fmt.Errorf("shieldd: reconnect: %w", err)))
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
	s.seal(call.env)
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

// fire fires the client's timer, which its handshake in flight or else
// its session machine owns: when it is armed, at its time; an early
// firing comes now, as a timer re-armed or stopped while it fired does.
// A handshake's timer re-armed that way still fires at its time. A
// stream session arms no timer.
func (s *schedule) fire(early bool) {
	if s.armed.IsZero() && !early || s.reliable && s.hs == nil {
		return
	}
	if !early && s.armed.After(s.now) {
		s.now = s.armed
	}
	if s.hs != nil {
		if !early {
			s.armed = time.Time{}
		}
		s.client(s.hs.timeout(s.now))
		return
	}
	s.armed = time.Time{}
	s.client(s.c.timeout(s.now))
}

// reconnect runs the reconnect's handshake in flight out, or fails it
// as a redial that fails does.
func (s *schedule) reconnect(ok bool) {
	switch {
	case s.hs == nil:
	case ok:
		s.handshake()
	default:
		s.client(s.hs.frame(nil, false, io.ErrUnexpectedEOF, s.now))
	}
}

// peer returns the server side a frame from addr reaches without the
// gate: a stream's, or the peer registered at addr.
func (s *schedule) peer(addr string) *serverSide {
	if s.reliable {
		return s.srv
	}
	return s.peers[addr]
}

// pick removes and returns uplink[arg]; a stream delivers in order.
func (s *schedule) pick(arg int) upFrame {
	i := arg % len(s.uplink)
	if s.reliable {
		i = 0
	}
	f := s.uplink[i]
	s.uplink = slices.Delete(s.uplink, i, i+1)
	return f
}

// deliverable reports whether deliver(0) would do anything.
func (s *schedule) deliverable() bool {
	return len(s.uplink) > 0 || s.reliable && !s.open && s.hs == nil && !s.srv.over
}

// deliver hands uplink[arg] to the server: to the server side of its
// address, or through the gate. A frame reaches a session that has
// ended only as its reader's last read, once committed. After the last
// frame of a stream the client closed, the server reads the end of the
// transport.
func (s *schedule) deliver(arg int) {
	if len(s.uplink) == 0 {
		if s.deliverable() {
			s.srv.end()
		}
		return
	}
	f := s.pick(arg)
	v := s.peer(f.from)
	if !s.reliable && !s.proven[f.from] {
		s.in[f.from] += len(f.b)
	}
	hello := decodeHello(f.b)
	if !f.hs {
		hello = nil
	}
	switch {
	case v != nil && v.over && !v.committed:
		return // its transport ended before the commit: nothing reads it
	case v == nil && (!f.hs || hello == nil):
		return // the listener drops it: a session begins with a HELLO
	}
	if v == nil {
		accept, reply := s.srvd.gate(f.from, hello, s.now)
		if !accept {
			if reply != nil {
				s.reply(f.from, true, reply, hello)
			}
			return
		}
		v = s.admit(f.from, hello)
	}
	s.serverHS(v, v.h.frame(f.b, f.hs), hello)
}

// admit registers a new peer at addr for a HELLO the gate admitted,
// which must prove the address: a cookie the server sent addr for its
// nonce, or a ticket issued to addr.
func (s *schedule) admit(addr string, hello *wire.Hello) *serverSide {
	cookie := s.cookies[addr+string(hello.Nonce[:])]
	if (len(cookie) == 0 || !bytes.Equal(hello.Cookie, cookie)) && (len(hello.Ticket) == 0 || s.issued[string(hello.Ticket)] != addr) {
		s.t.Fatalf("the gate admitted an unproven HELLO from %s", addr)
	}
	if len(s.srvd.sem) == cap(s.srvd.sem) {
		s.t.Fatal("the gate admitted a HELLO while the session table is full")
	}
	s.proven[addr] = true
	v := s.newServerSide(addr)
	s.peers[addr] = v
	return v
}

// serverHS checks and carries out a server side's handshake actions;
// hello is the HELLO the event delivered, if any.
func (s *schedule) serverHS(v *serverSide, acts []action, hello *wire.Hello) {
	t := s.t
	t.Helper()
	for _, a := range acts {
		switch a.kind {
		case actHandshake:
			switch m, _ := wire.Decode(a.frame); m := m.(type) {
			case *wire.Challenge2:
				if v.challenge == nil {
					v.challenge = a.frame
					ack, _ := wire.Decode(v.h.ack)
					s.issued[string(ack.(*wire.HelloAck).Ticket)] = v.h.addr
					if m.Resumed {
						if s.redeemed[string(v.h.hello.Ticket)] {
							t.Fatal("a ticket redeemed twice")
						}
						s.redeemed[string(v.h.hello.Ticket)] = true
					}
				} else if !bytes.Equal(a.frame, v.challenge) {
					t.Fatal("a retransmitted HELLO derived a fresh CHALLENGE2")
				}
			}
			s.reply(v.h.addr, true, a.frame, hello)
		case actSealed:
			s.reply(v.h.addr, false, a.frame, hello)
		case actArm:
			v.limit = a.at
		case actOpen:
			s.open1(v, a.frame)
		case actClose:
			v.end()
		}
	}
}

// open1 hands the session of server side v a request that opened. The
// first commits it: it takes the table's slot, or is shed, as the
// shell does, with a BUSY for the request and the end of the transport.
func (s *schedule) open1(v *serverSide, plain []byte) {
	if !v.committed {
		if v.h.hello == nil {
			s.t.Fatal("a session committed before its HELLO")
		}
		v.committed = true
		if v.slot = s.srvd.admitSession(); !v.slot {
			if id, flags, _, _, err := wire.DecodeEnvelopeV3(plain); err == nil && flags == 0 {
				busy := &wire.Busy{RetryAfterMillis: s.srvd.retryAfterMillis()}
				v.answers[id] = busy
				v.down = append(v.down, envelope{id: id, msg: busy})
			}
			v.end()
			return
		}
	}
	v.deliver(plain, s.now)
}

// reply sends a server frame to addr, answering hello: a cookie is
// recorded, and an address never proven receives at most three times
// the handshake bytes it sent. The client takes it only while it
// handshakes: its read loop drops handshake frames after the commit.
func (s *schedule) reply(addr string, hs bool, b []byte, hello *wire.Hello) {
	if m, _ := wire.Decode(b); hs && hello != nil {
		if ck, ok := m.(*wire.Cookie); ok {
			s.cookies[addr+string(hello.Nonce[:])] = ck.Cookie
		}
	}
	if !s.reliable && !s.proven[addr] {
		if s.out[addr] += len(b); s.out[addr] > 3*s.in[addr] {
			s.t.Fatalf("%d bytes sent to the unproven %s, which sent %d", s.out[addr], addr, s.in[addr])
		}
	}
	if addr == clientAddr && s.hs != nil {
		s.hsDown = append(s.hsDown, hsFrame{hs: hs, b: b})
	}
}

// receivable reports whether receive(0) would do anything.
func (s *schedule) receivable() bool {
	if s.hs != nil {
		return len(s.hsDown) > 0 || s.reliable && s.srv.over
	}
	return len(s.srv.down) > 0 || s.reliable && s.srv.over && s.open
}

// receive has the client take (or lose) downlink[arg]: the handshake's
// while one is in flight. After the last frame of a stream the server
// closed, the client reads the end of the transport.
func (s *schedule) receive(arg int) {
	t := s.t
	v := s.srv
	if h := s.hs; h != nil {
		switch {
		case len(s.hsDown) > 0:
			i := arg % len(s.hsDown)
			if s.reliable {
				i = 0
			}
			f := s.hsDown[i]
			s.hsDown = slices.Delete(s.hsDown, i, i+1)
			if arg&8 == 0 || s.reliable {
				s.client(h.frame(f.b, f.hs, nil, s.now))
			}
		case s.reliable && v.over:
			s.client(h.frame(nil, false, io.EOF, s.now))
		}
		return
	}
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
		s.seal(shortPlain)
	case 1, 2:
		// An authentic envelope that breaks the codec (an unknown
		// message kind, or a request flag), under the ID of a frame in
		// flight: the server answers it with an error, which becomes that
		// call's answer. Not under the BYE, whose only answer is the
		// session's last frame.
		if len(s.uplink) == 0 {
			return
		}
		p := bytes.Clone(s.uplink[(arg>>2)%len(s.uplink)].plain)
		if len(p) < 18 || p[17] == wire.KindBye {
			return
		}
		if arg%4 == 1 {
			p[17] = 0xEE
		} else {
			p[8] = wire.EnvPartial
		}
		s.seal(p)
	case 3:
		// A request a client that breaks the rules sends: above the BYE,
		// which the server may answer or drop, but never run after the
		// BYE, and it takes one BYE; before the BYE, far beyond any
		// window, which the server drops unrecorded (serverSide.deliver).
		n := arg >> 2
		id := s.byeID + 1 + uint64(n)
		if s.byeID == 0 {
			id = beyondWindow + uint64(n)
		}
		s.srv.rude[id] = true
		s.seal(requestPlain([4]int{reqExchange, reqPing, reqBye, reqExchange}[n], id, s.cum))
	}
}

// hello makes a handshake event the client machine never makes: its
// latest HELLO replayed from another address (arg%4 0), a HELLO from
// another client instance at the client's address with a fresh nonce
// and, with bit 3, the client's last ticket (1), another client taking
// or freeing the session table's slot (2), and the server's limit timer
// firing early (3).
func (s *schedule) hello(arg int) {
	var last *wire.Hello
	for _, f := range s.uplink {
		if h := decodeHello(f.b); f.hs && h != nil {
			last = h
		}
	}
	switch arg % 4 {
	case 0:
		if last != nil && !s.reliable {
			s.uplink = append(s.uplink, upFrame{from: otherAddr, hs: true, b: last.Encode()})
		}
	case 1:
		if s.reliable {
			return
		}
		h := &wire.Hello{Version: wire.Version, Seed: int64(arg), KeyShare: bytes.Repeat([]byte{9}, securelink.KeyShareLen)}
		h.Nonce[0], h.Nonce[1] = 0xA5, byte(len(s.uplink))
		if arg&8 != 0 {
			h.Ticket = s.ticket
		}
		s.uplink = append(s.uplink, upFrame{from: clientAddr, hs: true, b: h.Encode()})
	case 2:
		if s.held {
			<-s.srvd.sem
			s.held = false
		} else {
			s.held = s.srvd.admitSession()
		}
	case 3:
		s.serverHS(s.srv, s.srv.h.timeout(s.now), nil)
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
			f := s.uplink[arg%len(s.uplink)]
			if f.plain != nil {
				f.b = s.link.Seal(f.plain)
			}
			s.uplink = append(s.uplink, f)
		}
	case opReceive:
		s.receive(arg)
	case opExecuted:
		s.srv.finishOp()
	case opExperiment:
		s.srv.experimentEvent(arg, arg&8 != 0)
	case opTick:
		s.now = s.now.Add(time.Duration(arg+1) * 100 * time.Millisecond)
		if v := s.srv; v.committed && !v.over {
			v.apply(v.r.m.tick(s.now))
		}
		for _, v := range s.sessions {
			if !v.over && !s.now.Before(v.limit) {
				s.serverHS(v, v.h.timeout(s.now), nil)
			}
		}
	case opTimer:
		s.fire(arg&8 != 0)
	case opTransportEnd:
		switch {
		case arg&1 != 0:
			s.srv.end()
		case s.hs != nil:
			s.client(s.hs.frame(nil, false, io.ErrClosedPipe, s.now))
		default:
			s.client(s.c.transportFailed(io.ErrClosedPipe))
		}
	case opReconnect:
		s.reconnect(arg&8 == 0)
	case opRaw:
		s.raw(arg)
	case opHello:
		s.hello(arg)
	}
	s.settle()
	s.check()
}

// settle applies the listener's and the shell's rules after a step: a
// server side whose session ended leaves the listener's table, and once
// its work is done it is retired, freeing its slot of the table.
func (s *schedule) settle() {
	for addr, v := range s.peers {
		if v.over {
			delete(s.peers, addr)
		}
	}
	for _, v := range s.sessions {
		if v.over && v.executing == nil && len(v.running) == 0 {
			v.retire(s)
		}
	}
}

// check compares the client machine with the schedule's record.
func (s *schedule) check() {
	t := s.t
	t.Helper()
	m := s.c
	// The machine is live while the first handshake runs.
	if first := s.hs != nil && s.reconnector == nil; !first && s.open != (m.state == clientLive) {
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
	if s.peers[otherAddr] != nil {
		t.Fatalf("the server holds a peer for %s, which never proved its address", otherAddr)
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
		case s.receivable():
			s.receive(0)
		case s.deliverable():
			s.deliver(0)
		case v != nil && v.executing != nil:
			v.finishOp()
		case v != nil && len(v.running) > 0:
			v.experimentEvent(0, true)
		default:
			return did
		}
		s.settle()
		s.check()
		did = true
	}
}

// drain runs the schedule out over lossless links: everything in flight
// arrives, work completes, the table's slot is freed, reconnects
// succeed, parked submits try again, timers fire, and the client closes.
func (s *schedule) drain() {
	if s.held {
		s.hello(2)
	}
	for round := 0; ; round++ {
		if round > 100+8*len(s.calls) {
			s.t.Fatalf("the drain did not converge: %d pending, %d parked, server in flight %d",
				len(s.c.pending), len(s.parked()), s.srv.r.met.InFlight())
		}
		did := s.flush()
		for _, call := range s.parked() {
			if call == s.reconnector {
				continue
			}
			acts := s.c.submit(call, s.now)
			did = did || len(acts) > 0
			s.client(acts)
		}
		s.check()
		switch {
		case did:
		case s.hs != nil || len(s.c.pending) > 0 && !s.armed.IsZero():
			s.fire(false)
		case len(s.c.pending)+len(s.parked()) > 0:
			s.t.Fatalf("the drain is stuck: %d pending, %d parked", len(s.c.pending), len(s.parked()))
		case !s.closed:
			s.closeStep()
		default:
			s.srv.retire(s)
			return
		}
		s.settle()
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
	if n := len(s.srvd.sem); n != 0 {
		t.Fatalf("%d slots of the session table still held", n)
	}
}

// FuzzSessionSchedule drives a client machine and its handshakes
// against the server's gate, handshake machines and session machines
// with no goroutine, socket or clock. The fuzz bytes submit calls, wake
// parked submitters, close the client, drop, duplicate and reorder
// frames both ways, inject frames the client never sends (requests,
// HELLOs from another address or another client instance), fill the
// session table, complete the server's work, advance virtual time, fire
// the client's timer and the server's limit timer, end either end of
// the transport and run or fail reconnects. Every step checks every
// machine's rules (schedule.client, fresh, finished, commit,
// handshakeFailed, admit, serverHS, reply and check; serverSide.deliver,
// checkWindow, apply and recordSend): the server keeps the window the
// client keeps and holds every request the client still awaits in its
// ledger, the gate admits only a proven HELLO, a retransmitted
// HELLO gets its first CHALLENGE2, a ticket resumes once, both ends of a
// committed handshake hold the same keys, a failed one fails with a
// typed error, and an address never proven receives at most three times
// the bytes it sent. A lossless drain then runs the schedule out and
// checks the end state.
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

// serverSide is the server side of one transport of a schedule: its
// handshake machine and session machine, the downlink it writes to, and
// the record of every action it took.
type serverSide struct {
	t        *testing.T
	r        *machineRig
	h        *serverHandshake
	reliable bool
	// challenge is its first CHALLENGE2 and limit its limit timer;
	// committed is set once its first request opened, and slot while
	// the session holds the table's slot.
	challenge []byte
	limit     time.Time
	committed bool
	slot      bool
	// bye is the client's BYE in this session once sent; byeIn is set
	// once it reached the machine, where it holds a slot.
	bye   uint64
	byeIn bool
	// rude holds the IDs injected that the client never sends (above the
	// BYE, or far beyond the window), sent the client's calls by the ID
	// they took.
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

// deliver hands one request plaintext to the machine. A request the
// client sent and still awaits is checked against the window first
// (checkWindow), and an ID above the window must leave no entry.
func (v *serverSide) deliver(p []byte, now time.Time) {
	id, _, _, msg, err := wire.DecodeEnvelopeV3(p)
	if err != nil && id == 0 {
		v.apply(v.r.m.request(p, now))
		return
	}
	v.delivered[id] = true
	for v.delivered[v.undeliv] {
		v.undeliv++
	}
	v.byeIn = v.byeIn || v.bye != 0 && id == v.bye && !v.over
	if r := v.sent[id]; r != nil && r.finishes == 0 && bytes.Equal(p, r.call.env) {
		v.checkWindow(id, msg)
	}
	l := v.r.m.l
	cursor := l.next
	v.apply(v.r.m.request(p, now))
	if id > cursor+requestWindow && l.slot(id).id == id {
		v.t.Fatalf("request %d above the window %d..%d has an entry", id, cursor, cursor+requestWindow)
	}
}

// checkWindow checks a request the client sent and still awaits as it
// reaches the machine. A client that keeps the window sends only IDs in
// the server's window; such an ID's slot holds it, or, at or above the
// cursor, an ID below the cursor; and, fresh, it never meets a full
// window. Only requests the client never sends (rude) can break the
// last two: one above the BYE may take a slot from an ID whose answer
// was lost, and hold a window slot while it waits.
func (v *serverSide) checkWindow(id uint64, msg wire.Message) {
	t := v.t
	t.Helper()
	m, l := v.r.m, v.r.m.l
	e := l.slot(id)
	_, isBye := msg.(*wire.Bye)
	rudeWaiting := slices.ContainsFunc(l.slots[:], func(e ledgerEntry) bool { return v.rude[e.id] && e.req != nil })
	switch {
	case id > l.next+requestWindow:
		t.Fatalf("request %d refused by the window %d..%d", id, l.next, l.next+requestWindow)
	case e.id != id && !v.rude[e.id] && (id < l.next || e.id >= l.next):
		t.Fatalf("request %d finds its slot holding %d (cursor %d)", id, e.id, l.next)
	case e.id != id && id >= l.next && !isBye && !m.over && !m.byeReleased && m.windowFull() && !rudeWaiting:
		t.Fatalf("request %d meets a full window of %d in flight", id, v.r.met.InFlight())
	}
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
	above := 0
	for _, e := range l.slots {
		if e.id >= l.next {
			above++
		}
	}
	if above > requestWindow+1 {
		t.Fatalf("ledger holds %d IDs at or above its cursor %d", above, l.next)
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

// retire ends the session and its work, frees its slot of the table,
// then checks its counters against the record.
func (v *serverSide) retire(s *schedule) {
	if v.retired {
		return
	}
	v.retired = true
	v.end()
	v.finishOp()
	for len(v.running) > 0 {
		v.experimentEvent(0, true)
	}
	if v.slot {
		<-s.srvd.sem
		v.slot = false
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

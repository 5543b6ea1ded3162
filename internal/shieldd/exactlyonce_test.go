package shieldd_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/securelink"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// answer returns the ID and message of the next answer a raw datagram
// peer reads, or ok=false when none comes back within five seconds.
func answer(p *rawPeer, link *securelink.Link) (id uint64, m wire.Message, ok bool) {
	for {
		kind, payload, ok := p.read(5 * time.Second)
		if !ok {
			return 0, nil, false
		}
		if kind != dgram.KindSealed {
			continue
		}
		plain, err := link.Open(payload)
		if err != nil {
			continue
		}
		if id, _, _, m, err := wire.DecodeEnvelopeV3(plain); err == nil {
			return id, m, true
		}
	}
}

// ask sends msg with request ID id and cumulative report cum from a raw
// datagram peer, and returns the response to id, or nil when none comes
// back within five seconds.
func ask(p *rawPeer, link *securelink.Link, id, cum uint64, msg wire.Message) wire.Message {
	p.t.Helper()
	p.send(dgram.KindSealed, link.Seal(wire.EncodeEnvelopeV3(id, 0, cum, msg)))
	for {
		rid, m, ok := answer(p, link)
		if !ok {
			return nil
		}
		if rid == id {
			return m
		}
	}
}

// TestLateRetransmitFillsGap: an ordered request lost on its first send
// must execute when its retransmit lands after the rest of its window
// was answered above it, the widest gap a client that keeps the window
// can leave. The session ledger judges an ID by its cursor, the lowest
// ID not yet sequenced: an ID at the cursor with no record is fresh
// however many IDs above it were answered. A horizon measured from the
// highest ID seen dropped every retransmit of the gap instead, and
// every later ordered request waited behind it forever.
func TestLateRetransmitFillsGap(t *testing.T) {
	const window = 16
	nw := faultnet.New(71, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	p := newRawPeer(t, nw, "gap-client")
	link, _, _ := establish(t, p, 7) // request ID 1 is the committing PING

	// Request 2, an EXCHANGE, is lost on the way. The peer runs PINGs
	// 3..17, the rest of its window, one at a time; its honest
	// cumulative report stays at 1.
	exchange := &wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate}
	for id := uint64(3); id < 2+window; id++ {
		if pong, ok := ask(p, link, id, 1, &wire.Ping{Token: id}).(*wire.Pong); !ok || pong.Token != id {
			t.Fatalf("PING %d above the gap unanswered", id)
		}
	}
	if _, ok := ask(p, link, 2, 1, exchange).(*wire.ExchangeResp); !ok {
		t.Fatalf("retransmit of request 2 behind %d answered requests was not executed", window-1)
	}
	// The gap is filled: the cursor runs past every answered PING, so the
	// next ordered request executes at once.
	if _, ok := ask(p, link, 2+window, 1+window, exchange).(*wire.ExchangeResp); !ok {
		t.Fatal("ordered request after the filled gap was not executed")
	}
	if got := srv.Metrics().TotalExchanges; got != 2 {
		t.Errorf("server executed %d exchanges, want 2", got)
	}
}

// TestRequestBeyondWindowDropped: a fresh request above the server's
// window, cursor+16, is dropped unanswered and unrecorded, and its
// retransmit is answered once the cursor has come within a window of
// it. A server that took in any fresh ID above its cursor answered such
// a PING at once and kept a record of it, however far ahead it was, so
// a peer that never filled its gap could make one session hold an
// unbounded ledger.
func TestRequestBeyondWindowDropped(t *testing.T) {
	const window = 16
	nw := faultnet.New(74, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	p := newRawPeer(t, nw, "beyond-client")
	link, _, _ := establish(t, p, 9) // request ID 1 is the committing PING

	// Request 2, an EXCHANGE, is lost on the way, so the server's cursor
	// stays at 2 and its window ends at 2+16. A PING one beyond it goes
	// first, then the retransmit of 2.
	beyond := uint64(3 + window)
	ping := &wire.Ping{Token: beyond}
	p.send(dgram.KindSealed, link.Seal(wire.EncodeEnvelopeV3(beyond, 0, 1, ping)))
	p.send(dgram.KindSealed, link.Seal(wire.EncodeEnvelopeV3(2, 0, 1, &wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate})))
	id, m, ok := answer(p, link)
	if !ok {
		t.Fatal("no answer to the retransmit of request 2")
	}
	if _, isResult := m.(*wire.ExchangeResp); id != 2 || !isResult {
		t.Fatalf("first answer is %T for request %d, want the exchange result for request 2", m, id)
	}
	// The cursor is at 3 now, so the PING's retransmit is inside the
	// window.
	if pong, ok := ask(p, link, beyond, 2, ping).(*wire.Pong); !ok || pong.Token != beyond {
		t.Fatal("PING re-sent inside the window was not answered")
	}
	if got := srv.Metrics().TotalPings; got != 2 {
		t.Errorf("server counted %d PINGs, want 2 (the committing PING and the one re-sent)", got)
	}
}

// slowWriteConn is a client packet socket whose writes, once armed,
// return only after the client's read loop has handled the datagram
// that arrived next: a send path so slow that the response overtakes
// the write that carried its request.
type slowWriteConn struct {
	net.PacketConn
	mu      sync.Mutex
	armed   bool
	read    bool          // a datagram arrived since the pending write began
	handled chan struct{} // closed when the read loop comes back for more
}

func (s *slowWriteConn) arm(on bool) {
	s.mu.Lock()
	s.armed = on
	s.mu.Unlock()
}

func (s *slowWriteConn) ReadFrom(b []byte) (int, net.Addr, error) {
	s.mu.Lock()
	if s.handled != nil && s.read {
		close(s.handled)
		s.handled = nil
	}
	s.mu.Unlock()
	n, addr, err := s.PacketConn.ReadFrom(b)
	s.mu.Lock()
	s.read = s.handled != nil
	s.mu.Unlock()
	return n, addr, err
}

func (s *slowWriteConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	s.mu.Lock()
	if !s.armed {
		s.mu.Unlock()
		return s.PacketConn.WriteTo(b, addr)
	}
	handled := make(chan struct{})
	s.handled, s.read = handled, false
	s.mu.Unlock()
	n, err := s.PacketConn.WriteTo(b, addr)
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
	}
	return n, err
}

// TestCompletedCallLeavesRetrySchedule: a call answered before the write
// that carried its request returns must leave the retransmit schedule
// together with the pending table. Registering retry state only after
// the write left a ghost entry no response could ack: it re-sent a
// request the server had already answered and then forgotten (the next
// request's cumulative report pruned it), and finally counted a timeout
// for a call that had succeeded.
func TestCompletedCallLeavesRetrySchedule(t *testing.T) {
	nw := faultnet.New(73, faultnet.Impairment{})
	defer nw.Close()
	startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	ep, err := nw.Listen("ghost-client")
	if err != nil {
		t.Fatal(err)
	}
	sc := &slowWriteConn{PacketConn: ep}
	c, err := shieldd.NewPacketClient(sc, faultnet.Addr("server"), testSecret, shieldd.SessionOptions{
		Seed: 3, RetryTimeout: 20 * time.Millisecond, MaxRetries: 3,
	})
	if err != nil {
		ep.Close()
		t.Fatal(err)
	}
	defer c.Close()

	// The first PING's answer overtakes its write; the second PING
	// carries the cumulative report that lets the server forget it.
	sc.arm(true)
	for i := 0; i < 2; i++ {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	sc.arm(false)
	// Outlast a ghost's whole retry schedule (20+40+80+160 ms): a call
	// that succeeded can never time out afterwards.
	time.Sleep(600 * time.Millisecond)
	if ts := c.TransportStats(); ts.Timeouts != 0 {
		t.Errorf("%d timeouts (%d retransmits) after two successful PINGs, want 0", ts.Timeouts, ts.Retransmits)
	}
}

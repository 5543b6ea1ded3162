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

// ask sends msg with request ID id and cumulative report cum from a raw
// datagram peer, and returns the response to id, or nil when none comes
// back within five seconds.
func ask(p *rawPeer, link *securelink.Link, id, cum uint64, msg wire.Message) wire.Message {
	p.t.Helper()
	p.send(dgram.KindSealed, link.Seal(wire.EncodeEnvelopeV3(id, 0, cum, msg)))
	for {
		kind, payload, ok := p.read(5 * time.Second)
		if !ok {
			return nil
		}
		if kind != dgram.KindSealed {
			continue
		}
		plain, err := link.Open(payload)
		if err != nil {
			continue
		}
		if rid, _, _, m, err := wire.DecodeEnvelopeV3(plain); err == nil && rid == id {
			return m
		}
	}
}

// TestLateRetransmitFillsGap: an ordered request lost on its first send
// must execute when its retransmit lands after far more than
// dedupCacheCap (256) later requests were answered above it. The
// session ledger judges an ID by its cursor, the lowest ID not yet
// sequenced: an ID at the cursor with no record is fresh however far
// ahead the other IDs ran. A horizon measured from the highest ID seen
// dropped every retransmit of the gap instead, and every later ordered
// request waited behind it forever.
func TestLateRetransmitFillsGap(t *testing.T) {
	const pings = 400
	nw := faultnet.New(71, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	p := newRawPeer(t, nw, "gap-client")
	link, _, _ := establish(t, p, 7) // request ID 1 is the committing PING

	// Request 2, an EXCHANGE, is lost on the way. The peer runs PINGs
	// 3..402 one at a time; its honest cumulative report stays at 1.
	exchange := &wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate}
	for id := uint64(3); id < 3+pings; id++ {
		if pong, ok := ask(p, link, id, 1, &wire.Ping{Token: id}).(*wire.Pong); !ok || pong.Token != id {
			t.Fatalf("PING %d above the gap unanswered", id)
		}
	}
	if _, ok := ask(p, link, 2, 1, exchange).(*wire.ExchangeResp); !ok {
		t.Fatalf("retransmit of request 2 behind %d answered requests was not executed", pings)
	}
	// The gap is filled: the cursor runs past every answered PING, so the
	// next ordered request executes at once.
	if _, ok := ask(p, link, 3+pings, 2+pings, exchange).(*wire.ExchangeResp); !ok {
		t.Fatal("ordered request after the filled gap was not executed")
	}
	if got := srv.Metrics().TotalExchanges; got != 2 {
		t.Errorf("server executed %d exchanges, want 2", got)
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

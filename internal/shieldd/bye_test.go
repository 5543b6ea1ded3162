package shieldd_test

import (
	"testing"

	"heartshield/internal/faultnet"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// TestByeBehindFullWindow: a client that closes with its request window
// (16) full of requests waiting on a lost one sends its BYE outside the
// window, as Client.Close does. The lost request's retransmit must still
// be read and executed, and every request answered before the BYE. When
// the BYE took the last window slot, the retransmit was never read and
// the session hung until the idle reaper took it.
func TestByeBehindFullWindow(t *testing.T) {
	const window = 16
	nw := faultnet.New(72, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	p := newRawPeer(t, nw, "bye-client")
	link, _, _ := establish(t, p, 8) // request ID 1 is the committing PING

	// Request 2 is lost; 3..17 wait above it, and the BYE follows them.
	exchange := &wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate}
	for id := uint64(3); id < 2+window; id++ {
		p.send(dgram.KindSealed, link.Seal(wire.EncodeEnvelopeV3(id, 0, 1, exchange)))
	}
	bye := uint64(2 + window)
	p.send(dgram.KindSealed, link.Seal(wire.EncodeEnvelopeV3(bye, 0, 1, &wire.Bye{})))

	if _, ok := ask(p, link, 2, 1, exchange).(*wire.ExchangeResp); !ok {
		t.Fatal("the retransmit of the lost request behind the BYE was not answered")
	}
	// A duplicate of the BYE is dropped while it waits; the reply to the
	// original comes once every exchange has run.
	if _, ok := ask(p, link, bye, 1, &wire.Bye{}).(*wire.Bye); !ok {
		t.Fatal("BYE unanswered")
	}
	if got := srv.Metrics().TotalExchanges; got != window {
		t.Errorf("server executed %d exchanges, want %d", got, window)
	}
}

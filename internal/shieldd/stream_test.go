package shieldd_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"heartshield/internal/securelink/sectest"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
)

// TestStreamReusedRequestID: an ordered request whose ID the session has
// already sequenced (ID 0, or a reused ID) must be refused before it
// takes a window slot. A stream session that let such frames leak their
// slots stopped reading once the window filled, never answered another
// request, and kept the idle reaper from ever collecting it.
func TestStreamReusedRequestID(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{InFlightPerSession: 4, IdleTimeout: 200 * time.Millisecond})
	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	defer cEnd.Close()
	hs, err := sectest.RunV4Handshake(cEnd, testSecret, nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	send := func(id uint64, m wire.Message) {
		t.Helper()
		if err := wire.WriteFrame(cEnd, hs.Link.Seal(wire.EncodeEnvelopeV3(id, 0, 0, m))); err != nil {
			t.Fatal(err)
		}
	}
	// await reads responses until the one for id arrives; the deadline
	// turns a wedged session into a failure instead of a hang.
	await := func(id uint64) wire.Message {
		t.Helper()
		_ = cEnd.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			raw, err := wire.ReadFrame(cEnd)
			if err != nil {
				t.Fatalf("awaiting response %d: %v", id, err)
			}
			plain, err := hs.Link.Open(raw)
			if err != nil {
				t.Fatal(err)
			}
			rid, _, _, m, err := wire.DecodeEnvelopeV3(plain)
			if err != nil {
				t.Fatal(err)
			}
			if rid == id {
				return m
			}
		}
	}

	exchange := &wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate}
	send(1, exchange)
	if _, ok := await(1).(*wire.ExchangeResp); !ok {
		t.Fatal("first exchange failed")
	}
	// A full window's worth of already-sequenced IDs.
	for _, id := range []uint64{1, 0, 1, 0} {
		send(id, exchange)
	}
	send(2, &wire.Ping{Token: 9})
	if pong, ok := await(2).(*wire.Pong); !ok || pong.Token != 9 {
		t.Fatal("PING after reused request IDs was not answered")
	}
	if got := srv.Status().TotalExchanges; got != 1 {
		t.Errorf("server executed %d exchanges, want 1", got)
	}

	// With no leaked slot the quiet session is reapable.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().ReapedSessions == 0 || srv.Metrics().ActiveSessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session never reaped: %+v", srv.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamSilentPeerTimesOut: a stream peer that accepts the HELLO and
// never answers must fail the dial with ErrHandshakeTimeout after the
// retry schedule, exactly as a silent datagram peer does, instead of
// blocking the caller forever.
func TestStreamSilentPeerTimesOut(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	defer sEnd.Close()
	go func() { _, _ = wire.ReadFrame(sEnd) }() // drain the HELLO, never reply

	done := make(chan error, 1)
	go func() {
		_, err := shieldd.NewClient(cEnd, testSecret, shieldd.SessionOptions{
			Seed: 1, RetryTimeout: 10 * time.Millisecond, MaxRetries: 2,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, shieldd.ErrHandshakeTimeout) {
			t.Fatalf("dial against a silent stream peer = %v, want ErrHandshakeTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream handshake against a silent peer never timed out")
	}
}

package shieldd_test

import (
	"bytes"
	"net"
	"testing"

	"heartshield/internal/securelink"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
)

// recordSession captures, as transport frames in order, everything a
// legitimate client sent during one session.
func recordSession(t *testing.T, srv *shieldd.Server) [][]byte {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	rec := &recordingConn{Conn: cEnd}
	c, err := shieldd.NewClient(rec, testSecret, shieldd.SessionOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exchange(0, wire.CmdInterrogate); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Re-frame the raw byte stream into the transport frames it carried.
	var frames [][]byte
	r := bytes.NewReader(rec.sent.Bytes())
	for r.Len() > 0 {
		f, err := wire.ReadFrame(r)
		if err != nil {
			t.Fatalf("recorded stream does not re-frame: %v", err)
		}
		frames = append(frames, f)
	}
	return frames
}

type recordingConn struct {
	net.Conn
	sent bytes.Buffer
}

func (r *recordingConn) Write(b []byte) (int, error) {
	r.sent.Write(b)
	return r.Conn.Write(b)
}

// An attacker replaying a recorded session verbatim — plaintext HELLO
// included — must get nothing: the server's fresh nonce puts the new
// session under different keys, so the recorded sealed frames cannot
// open and the connection dies without ever reaching a request handler.
func TestRecordedSessionReplayFails(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	recorded := recordSession(t, srv)
	if len(recorded) < 2 {
		t.Fatalf("recorded only %d client writes", len(recorded))
	}

	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	defer cEnd.Close()

	// Replay the HELLO; the server answers with a (fresh) CHALLENGE2 and
	// a sealed HelloAck it expects us to be able to open.
	if err := wire.WriteFrame(cEnd, recorded[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(cEnd); err != nil { // CHALLENGE2
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(cEnd); err != nil { // sealed HelloAck
		t.Fatal(err)
	}

	// Replay every recorded sealed frame. The server must never answer a
	// request — it tears the connection down at the first frame, because
	// the recorded session's keys are dead.
	exch := srv.Status().TotalExchanges
	for _, frame := range recorded[1:] {
		if err := wire.WriteFrame(cEnd, frame); err != nil {
			break // server hung up: exactly what we want
		}
	}
	if _, err := wire.ReadFrame(cEnd); err == nil {
		t.Fatal("server answered a replayed sealed frame")
	}
	if got := srv.Status().TotalExchanges; got != exch {
		t.Fatalf("replayed session executed %d exchanges", got-exch)
	}
}

// Two sessions opened with identical client HELLOs must still get
// distinct server nonces and distinct server ephemerals — the freshness
// the replay defense rests on.
func TestServerNonceIsFresh(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	eph, err := securelink.NewEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	hello := (&wire.Hello{Version: wire.Version, Seed: 1, KeyShare: eph.Public()}).Encode()
	challenge := func() *wire.Challenge2 {
		cEnd, sEnd := net.Pipe()
		go srv.ServeConn(sEnd)
		defer cEnd.Close()
		if err := wire.WriteFrame(cEnd, hello); err != nil {
			t.Fatal(err)
		}
		raw, err := wire.ReadFrame(cEnd)
		if err != nil {
			t.Fatal(err)
		}
		m, err := wire.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		ch, ok := m.(*wire.Challenge2)
		if !ok {
			t.Fatalf("first server frame is %T, want Challenge2", m)
		}
		return ch
	}
	a, b := challenge(), challenge()
	if bytes.Equal(a.ServerNonce[:], b.ServerNonce[:]) {
		t.Fatal("server reused its session nonce for identical HELLOs")
	}
	if bytes.Equal(a.KeyShare, b.KeyShare) {
		t.Fatal("server reused its ephemeral key share for identical HELLOs")
	}
}

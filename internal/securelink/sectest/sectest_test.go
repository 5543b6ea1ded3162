package sectest

import (
	"errors"
	"net"
	"testing"
	"time"

	"heartshield/internal/securelink"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
)

// The suite's provisioned master secret — by assumption compromised:
// every attack below is run WITH knowledge of it.
var master = []byte("sectest-master-secret")

func newServer(t *testing.T, cfg shieldd.ServerConfig) *shieldd.Server {
	t.Helper()
	if cfg.Secret == nil {
		cfg.Secret = master
	}
	srv, err := shieldd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// recordSession runs one legitimate stream session (handshake, one
// exchange, BYE) and returns its transcript.
func recordSession(t *testing.T) *Recording {
	t.Helper()
	srv := newServer(t, shieldd.ServerConfig{})
	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	tap := NewTapConn(cEnd)
	c, err := shieldd.NewClient(tap, master, shieldd.SessionOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exchange(0, wire.CmdInterrogate); err != nil {
		t.Fatal(err)
	}
	c.Close()
	rec, err := tap.Recording()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.ClientFrames) < 2 || len(rec.ServerFrames) < 2 {
		t.Fatalf("transcript too short: %d client / %d server frames",
			len(rec.ClientFrames), len(rec.ServerFrames))
	}
	return rec
}

// dialRaw opens a fresh raw connection served by srv.
func dialRaw(t *testing.T, srv *shieldd.Server) net.Conn {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	t.Cleanup(func() { cEnd.Close() })
	return cEnd
}

// mitm stands up a frame-rewriting relay between a fresh client
// connection and srv, and returns the client end.
func mitm(t *testing.T, srv *shieldd.Server, c2s, s2c Rewrite) net.Conn {
	t.Helper()
	cliEnd, relayCli := net.Pipe()
	relaySrv, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	RelayFrames(relayCli, relaySrv, c2s, s2c)
	t.Cleanup(func() { cliEnd.Close() })
	return cliEnd
}

// TestSecuritySuite is the adversarial wall the handshake must hold
// against, and the demonstration that a PSK-only derivation does not —
// the forward-secrecy leg's PSK-only case must keep SUCCEEDING as an
// attack, or the suite has lost its teeth.
func TestSecuritySuite(t *testing.T) {
	t.Run("forward-secrecy", testForwardSecrecy)
	t.Run("key-compromise", testKeyCompromise)
	t.Run("replay", testReplay)
	t.Run("downgrade", testDowngrade)
}

// Forward secrecy: record a session, THEN leak the master secret. A
// PSK-only recording of the same handshake falls; the AKE's does not.
func testForwardSecrecy(t *testing.T) {
	rec := recordSession(t)

	t.Run("PSK-only recording decrypts under leaked master", func(t *testing.T) {
		// The teeth: the attack must demonstrably WORK against the
		// nonce-only derivation. If this case ever starts failing, the
		// attacker model broke, not the handshake.
		psk, err := PSKOnlyRecording(master, rec)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := RecoverSession(master, psk)
		if err != nil {
			t.Fatalf("offline attack on a PSK-only recording failed (%v) — the suite lost its teeth", err)
		}
		if len(plain) < 2 {
			t.Fatalf("attack recovered only %d frames from a PSK-only recording", len(plain))
		}
	})

	t.Run("v4 AKE session stays sealed under leaked master", func(t *testing.T) {
		plain, err := RecoverSession(master, rec)
		if !errors.Is(err, ErrNotRecovered) {
			t.Fatalf("offline attack on a v4 session: got (%d frames, %v), want ErrNotRecovered",
				len(plain), err)
		}
	})
}

// Key compromise: even holding the master secret, an attacker missing
// the per-session secrets cannot impersonate its way into a session —
// and a stolen ticket without its resumption secret is both useless and
// burned on first use.
func testKeyCompromise(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})

	// A legitimate handshake first, to put a real ticket in play.
	legit, err := RunV4Handshake(dialRaw(t, srv), master, nil, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(legit.Ticket) == 0 || len(legit.RMS) == 0 {
		t.Fatal("v4 handshake returned no resumption state")
	}

	t.Run("stolen ticket without its secret", func(t *testing.T) {
		// The thief has the master AND the ticket bytes, but not the
		// resumption secret the ticket seals. The server resumes, the
		// thief cannot follow the schedule, and the sealed ack is the
		// wall it hits.
		if hs, err := RunV4Handshake(dialRaw(t, srv), master, legit.Ticket, nil, 7); err == nil {
			t.Fatalf("thief completed a resumed handshake (resumed=%v)", hs.Resumed)
		}
		// Single use means single attempt: the theft burned the ticket,
		// so even the rightful owner cannot resume with it anymore.
		hs, err := RunV4Handshake(dialRaw(t, srv), master, legit.Ticket, legit.RMS, 7)
		if err != nil {
			t.Fatalf("full-AKE fallback after a burned ticket failed: %v", err)
		}
		if hs.Resumed {
			t.Fatal("server resumed from a ticket an attacker already spent")
		}
	})

	t.Run("wrong master cannot complete the AKE", func(t *testing.T) {
		wrong := append([]byte(nil), master...)
		wrong[0] ^= 0x01
		if _, err := RunV4Handshake(dialRaw(t, srv), wrong, nil, nil, 7); err == nil {
			t.Fatal("handshake completed without the provisioned master secret")
		}
	})
}

// Replay: neither a whole recorded v4 session nor a spent ticket buys
// the attacker a second run.
func testReplay(t *testing.T) {
	t.Run("recorded v4 session", func(t *testing.T) {
		srv := newServer(t, shieldd.ServerConfig{})
		rec := recordSession(t)

		conn := dialRaw(t, srv)
		if err := wire.WriteFrame(conn, rec.ClientFrames[0]); err != nil {
			t.Fatal(err)
		}
		// The server answers a fresh CHALLENGE2 and a sealed ack under
		// keys the replayer cannot derive (new server ephemeral).
		for i := 0; i < 2; i++ {
			if _, err := wire.ReadFrame(conn); err != nil {
				t.Fatalf("server frame %d: %v", i, err)
			}
		}
		exch := srv.Status().TotalExchanges
		for _, f := range rec.ClientFrames[1:] {
			if err := wire.WriteFrame(conn, f); err != nil {
				break // server hung up — acceptable at any point
			}
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := wire.ReadFrame(conn); err == nil {
			t.Fatal("server answered a replayed sealed frame")
		}
		if got := srv.Status().TotalExchanges; got != exch {
			t.Fatalf("replayed session executed %d exchanges", got-exch)
		}
	})

	t.Run("ticket double redeem", func(t *testing.T) {
		srv := newServer(t, shieldd.ServerConfig{})
		first, err := RunV4Handshake(dialRaw(t, srv), master, nil, nil, 7)
		if err != nil {
			t.Fatal(err)
		}
		second, err := RunV4Handshake(dialRaw(t, srv), master, first.Ticket, first.RMS, 7)
		if err != nil {
			t.Fatalf("legitimate resumption failed: %v", err)
		}
		if !second.Resumed {
			t.Fatal("first ticket use did not resume")
		}
		// Same ticket again: the server must have consumed it. The
		// handshake may still complete — as a full AKE, never resumed.
		third, err := RunV4Handshake(dialRaw(t, srv), master, first.Ticket, first.RMS, 7)
		if err == nil && third.Resumed {
			t.Fatal("ticket redeemed twice")
		}
	})
}

// Downgrade: there is one protocol version and nothing to fall back
// to. A MITM rewriting the HELLO's version byte gets the typed refusal,
// and tampering inside the key exchange kills the handshake.
func testDowngrade(t *testing.T) {
	t.Run("rewritten HELLO version", func(t *testing.T) {
		srv := newServer(t, shieldd.ServerConfig{})
		rewrite := func(m wire.Message, f []byte) []byte {
			if h, ok := m.(*wire.Hello); ok {
				old := *h
				old.Version = wire.Version - 1
				return old.Encode()
			}
			return f
		}
		_, err := shieldd.NewClient(mitm(t, srv, rewrite, nil), master, shieldd.SessionOptions{Seed: 7})
		if !errors.Is(err, shieldd.ErrVersion) {
			t.Fatalf("client under a version-rewriting MITM: err = %v, want ErrVersion", err)
		}
	})

	t.Run("tampered server key share", func(t *testing.T) {
		srv := newServer(t, shieldd.ServerConfig{})
		evil, err := securelink.NewEphemeral()
		if err != nil {
			t.Fatal(err)
		}
		swapShare := func(m wire.Message, f []byte) []byte {
			if ch, ok := m.(*wire.Challenge2); ok && !ch.Resumed {
				forged := *ch
				forged.KeyShare = evil.Public()
				return forged.Encode()
			}
			return f
		}
		conn := mitm(t, srv, nil, swapShare)
		if _, err := shieldd.NewClient(conn, master, shieldd.SessionOptions{Seed: 7}); err == nil {
			t.Fatal("handshake completed over a substituted server key share")
		}
	})
}

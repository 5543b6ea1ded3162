package shieldd_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/securelink"
	"heartshield/internal/securelink/sectest"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// TestVersionRefused: one protocol version is spoken, so a HELLO
// announcing any other is refused with the typed ErrVersion on both
// transports — there is nothing to negotiate down to. A relay rewrites
// the version byte of the real client's HELLO in flight, so each refusal
// is observed end to end through the production client; on datagrams it
// comes only after the cookie round, so no reply beyond a cookie ever
// goes to an unverified address.
func TestVersionRefused(t *testing.T) {
	versions := []uint8{0, 1, 2, 3, 5, 255}
	setVersion := func(v uint8) func([]byte) []byte {
		return func(payload []byte) []byte {
			m, err := wire.Decode(payload)
			if h, ok := m.(*wire.Hello); err == nil && ok {
				h.Version = v
				return h.Encode()
			}
			return payload
		}
	}

	t.Run("stream", func(t *testing.T) {
		srv := newServer(t, shieldd.ServerConfig{})
		for _, v := range versions {
			t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
				cliEnd, relayCli := net.Pipe()
				relaySrv, srvEnd := net.Pipe()
				defer cliEnd.Close()
				go srv.ServeConn(srvEnd)
				rw := setVersion(v)
				sectest.RelayFrames(relayCli, relaySrv, func(_ wire.Message, f []byte) []byte { return rw(f) }, nil)
				_, err := shieldd.NewClient(cliEnd, testSecret, shieldd.SessionOptions{Seed: 1})
				if !errors.Is(err, shieldd.ErrVersion) {
					t.Fatalf("HELLO rewritten to v%d: err = %v, want ErrVersion", v, err)
				}
			})
		}
		if m := srv.Metrics(); m.TotalSessions != 0 {
			t.Errorf("refused HELLOs opened %d sessions", m.TotalSessions)
		}
	})

	t.Run("datagram", func(t *testing.T) {
		nw := faultnet.New(47, faultnet.Impairment{})
		defer nw.Close()
		srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
		for i, v := range versions {
			t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
				relay := fmt.Sprintf("relay-%d", i)
				startDgramRelay(t, nw, relay, setVersion(v))
				pc, err := nw.Listen(fmt.Sprintf("vclient-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				defer pc.Close()
				_, err = shieldd.NewPacketClient(pc, faultnet.Addr(relay), testSecret,
					shieldd.SessionOptions{Seed: 1, RetryTimeout: time.Second, MaxRetries: 2})
				if !errors.Is(err, shieldd.ErrVersion) {
					t.Fatalf("HELLO rewritten to v%d: err = %v, want ErrVersion", v, err)
				}
			})
		}
		m := srv.Metrics()
		if m.CookiesSent != uint64(len(versions)) || m.CookieRejects != 0 || m.TotalSessions != 0 {
			t.Errorf("cookies sent=%d rejects=%d sessions=%d, want %d/0/0 (one cookie round per refused dial)",
				m.CookiesSent, m.CookieRejects, m.TotalSessions, len(versions))
		}
	})

	t.Run("acked", func(t *testing.T) {
		// A server that completes the key exchange but acks another
		// version is refused the same way.
		cEnd, sEnd := net.Pipe()
		defer cEnd.Close()
		defer sEnd.Close()
		go fakeServer(t, sEnd, wire.Version+1)
		_, err := shieldd.NewClient(cEnd, testSecret, shieldd.SessionOptions{Seed: 1})
		if !errors.Is(err, shieldd.ErrVersion) {
			t.Fatalf("ack of v%d: err = %v, want ErrVersion", wire.Version+1, err)
		}
	})
}

// startDgramRelay forwards datagrams between one client and "server"
// through a faultnet endpoint named addr, passing every plaintext
// handshake payload from the client through rw — an on-path attacker on
// the datagram transport.
func startDgramRelay(t *testing.T, nw *faultnet.Network, addr string, rw func([]byte) []byte) {
	t.Helper()
	ep, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	go func() {
		buf := make([]byte, dgram.MaxDatagram)
		var client net.Addr
		for {
			n, from, err := ep.ReadFrom(buf)
			if err != nil {
				return
			}
			frame := append([]byte(nil), buf[:n]...)
			if from.String() == "server" {
				if client != nil {
					_, _ = ep.WriteTo(frame, client)
				}
				continue
			}
			client = from
			if kind, payload, err := dgram.Decode(frame); err == nil && kind == dgram.KindHandshake {
				frame, _ = dgram.Encode(kind, rw(payload))
			}
			_, _ = ep.WriteTo(frame, faultnet.Addr("server"))
		}
	}()
}

// fakeServer answers one stream HELLO with a genuine key exchange whose
// sealed HELLO-ACK announces ackVersion.
func fakeServer(t *testing.T, conn net.Conn, ackVersion uint8) {
	raw, err := wire.ReadFrame(conn)
	if err != nil {
		return
	}
	m, err := wire.Decode(raw)
	hello, ok := m.(*wire.Hello)
	if err != nil || !ok {
		t.Errorf("fake server got %T, want HELLO", m)
		return
	}
	eph, err := securelink.NewEphemeral()
	if err != nil {
		t.Error(err)
		return
	}
	dh, err := eph.Shared(hello.KeyShare)
	if err != nil {
		t.Error(err)
		return
	}
	ch := (&wire.Challenge2{KeyShare: eph.Public()}).Encode()
	sched := securelink.NewHandshake(securelink.HandshakeLabelV4)
	sched.MixHash(hello.TranscriptBytes())
	sched.MixHash(ch)
	sched.MixKey(testSecret)
	sched.MixKey(dh)
	link, _, err := securelink.Pair(sched.SessionSecret())
	if err != nil {
		t.Error(err)
		return
	}
	_ = wire.WriteFrame(conn, ch)
	_ = wire.WriteFrame(conn, link.Seal((&wire.HelloAck{Version: ackVersion, SessionID: 1}).Encode()))
}

// TestV4ResumptionStream: after the idle reaper kills a stream session,
// AutoReconnect re-handshakes by redeeming the resumption ticket — the
// new session runs on resumed forward-secret keys (Resumed, one resume
// counted) and still restarts the deterministic stream at the seed.
func TestV4ResumptionStream(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer l.Close()
	srv := newServer(t, shieldd.ServerConfig{IdleTimeout: 300 * time.Millisecond})
	go srv.Serve(l)

	c, err := shieldd.Dial(l.Addr().String(), testSecret, shieldd.SessionOptions{Seed: 41, AutoReconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Resumed() {
		t.Fatal("initial handshake reports itself resumed")
	}
	first, err := c.Exchange(0, wire.CmdInterrogate)
	if err != nil {
		t.Fatal(err)
	}
	firstSession := c.SessionID()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().ReapedSessions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	again, err := c.Exchange(0, wire.CmdInterrogate)
	if err != nil {
		t.Fatalf("exchange after reap: %v", err)
	}
	if !c.Resumed() {
		t.Error("reconnected session did not resume from its ticket")
	}
	if n := c.Resumes(); n != 1 {
		t.Errorf("resume count = %d, want 1", n)
	}
	if c.SessionID() == firstSession {
		t.Error("session ID unchanged across resumption")
	}
	if again.EavesBER != first.EavesBER || again.CancellationDB != first.CancellationDB {
		t.Errorf("resumed stream first exchange %+v != original %+v", again, first)
	}

	// Each resumption mints a fresh single-use ticket: a second reap
	// cycle must resume again, not fall back to the full AKE.
	reaped := srv.Metrics().ReapedSessions
	deadline = time.Now().Add(5 * time.Second)
	for srv.Metrics().ReapedSessions == reaped {
		if time.Now().After(deadline) {
			t.Fatal("resumed session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Exchange(0, wire.CmdInterrogate); err != nil {
		t.Fatalf("exchange after second reap: %v", err)
	}
	if n := c.Resumes(); n != 2 {
		t.Errorf("resume count after second cycle = %d, want 2", n)
	}
}

// TestV4ResumptionDatagramGate: a datagram reconnect from the ticket's
// issuing address skips the stateless-cookie round entirely — the gate
// admits the ticket directly, so resumption is one round trip and the
// server's CookiesSent counter stays flat.
func TestV4ResumptionDatagramGate(t *testing.T) {
	nw := faultnet.New(44, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{
		MaxSessions: 4, IdleTimeout: 300 * time.Millisecond,
	})

	ep, err := nw.Listen("res-client")
	if err != nil {
		t.Fatal(err)
	}
	c, err := shieldd.NewPacketClient(ep, faultnet.Addr("server"), testSecret, shieldd.SessionOptions{
		Seed:          9,
		AutoReconnect: true,
		RetryTimeout:  10 * time.Millisecond,
		MaxRetries:    4,
		// Redial from the SAME faultnet address: the resumption ticket is
		// address-bound at the gate, and only the issuing address gets the
		// one-round-trip path. Closing the old endpoint first frees the
		// name (the dead session's transport is already unusable).
		RedialPacket: func() (net.PacketConn, net.Addr, error) {
			ep.Close()
			ep2, err := nw.Listen("res-client")
			if err != nil {
				return nil, nil, err
			}
			return ep2, faultnet.Addr("server"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := clientPair(t, c)

	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().ReapedSessions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle datagram session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The death is only observable via retransmit exhaustion: the first
	// post-reap request fails and poisons the session, the next one
	// reconnects.
	if _, err := c.Exchange(0, wire.CmdInterrogate); err == nil {
		t.Fatal("exchange on a reaped datagram session succeeded")
	}
	cookiesBefore := srv.Metrics().CookiesSent

	again := clientPair(t, c)
	if again != first {
		t.Errorf("resumed stream pair %+v != original %+v", again, first)
	}
	if !c.Resumed() {
		t.Error("datagram reconnect did not resume from its ticket")
	}
	if n := c.Resumes(); n != 1 {
		t.Errorf("resume count = %d, want 1", n)
	}
	if got := srv.Metrics().CookiesSent; got != cookiesBefore {
		t.Errorf("resumption cost %d cookie round trips, want 0 (ticket admits at the gate)", got-cookiesBefore)
	}
}

// TestClientGoroutineHygiene is the timer/goroutine teardown wall:
// repeated session open/use/close cycles — including a datagram Close
// against a dead server and a failed AutoReconnect — must not leave
// retransmit timers, read loops, or retrier goroutines behind.
func TestClientGoroutineHygiene(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer l.Close()
	srv := newServer(t, shieldd.ServerConfig{IdleTimeout: 200 * time.Millisecond})
	go srv.Serve(l)
	nw := faultnet.New(46, faultnet.Impairment{})
	defer nw.Close()
	startPacketServer(t, nw, "gserver", shieldd.ServerConfig{IdleTimeout: 200 * time.Millisecond})

	cycle := func(i int) {
		// Stream cycle.
		sc, err := shieldd.Dial(l.Addr().String(), testSecret, shieldd.SessionOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Exchange(0, wire.CmdInterrogate); err != nil {
			t.Fatal(err)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		// Datagram cycle.
		dc := dialPacket(t, nw, fmt.Sprintf("g%d", i), "gserver", shieldd.SessionOptions{
			Seed: 1, RetryTimeout: 10 * time.Millisecond, MaxRetries: 3,
		})
		if err := dc.Ping(); err != nil {
			t.Fatal(err)
		}
		if err := dc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// One warmup pass so lazy singletons (pools, DNS, scenario shapes)
	// are allocated before the baseline is taken.
	cycle(0)
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	baseline := runtime.NumGoroutine()

	for i := 1; i <= 4; i++ {
		cycle(i)
	}

	// Failed AutoReconnect: the reaper kills the session, the redial
	// hook refuses, and every retry path must still tear down cleanly.
	fc := dialPacket(t, nw, "gfail", "gserver", shieldd.SessionOptions{
		Seed: 1, AutoReconnect: true,
		RetryTimeout: 10 * time.Millisecond, MaxRetries: 3,
		RedialPacket: func() (net.PacketConn, net.Addr, error) {
			return nil, nil, errors.New("redial refused by test")
		},
	})
	if err := fc.Ping(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := fc.Exchange(0, wire.CmdInterrogate); err != nil {
			break // session died and the failed reconnect surfaced
		}
		if time.Now().After(deadline) {
			t.Fatal("datagram session never reaped under idle timeout")
		}
		time.Sleep(250 * time.Millisecond)
	}
	if _, err := fc.Exchange(0, wire.CmdInterrogate); err == nil {
		t.Fatal("exchange succeeded after redial hook refused")
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}

	// Close against a dead server: BYE retransmits must give up on
	// their bounded budget and the retrier must stop.
	dead := dialPacket(t, nw, "gdead", "gserver", shieldd.SessionOptions{
		Seed: 1, RetryTimeout: 10 * time.Millisecond, MaxRetries: 3,
	})
	if err := dead.Ping(); err != nil {
		t.Fatal(err)
	}
	nw.SetFlowImpairment("gdead", "gserver", faultnet.Impairment{Drop: 1.0})
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything torn down: the goroutine count must return to the
	// baseline (plus slack for server-side reap/accept churn in flight).
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

package shieldd_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// floodHello writes one raw handshake HELLO datagram (optionally with a
// forged cookie) from ep to the server and waits for the gate's reply,
// which must be a plaintext cookie challenge of the right length — the
// wire traffic of a flood source, below the client library. Waiting for
// the reply self-clocks the flood so every HELLO reaches the gate
// instead of overflowing the bounded inbox (a full-blast flood is
// absorbed too, but then drop counts make exact assertions impossible).
func floodHello(ep *faultnet.Endpoint, src, slot byte, cookie []byte, cookieBytes int) error {
	h := &wire.Hello{Version: 2, Seed: 1, Cookie: cookie}
	h.Nonce[0], h.Nonce[1] = src, slot
	frame, err := dgram.Encode(dgram.KindHandshake, h.Encode())
	if err != nil {
		return err
	}
	if _, err := ep.WriteTo(frame, faultnet.Addr("server")); err != nil {
		return err
	}
	_ = ep.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	n, _, err := ep.ReadFrom(buf)
	if err != nil {
		return fmt.Errorf("no gate reply: %w", err)
	}
	kind, payload, err := dgram.Decode(buf[:n])
	if err != nil || kind != dgram.KindHandshake {
		return fmt.Errorf("gate reply frame kind=%d err=%v", kind, err)
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		return err
	}
	ck, ok := msg.(*wire.Cookie)
	if !ok {
		return fmt.Errorf("gate reply = %T, want *wire.Cookie", msg)
	}
	if len(ck.Cookie) != cookieBytes {
		return fmt.Errorf("cookie length %d, want %d", len(ck.Cookie), cookieBytes)
	}
	return nil
}

// TestFloodLeavesSessionsUnharmed is wall (a): 64 flood sources hammer
// the datagram listener with cookie-less and forged-cookie HELLOs while
// 4 established sessions run their scripts. The stateless cookie gate
// must absorb the whole flood with zero session-state growth and exact
// counters, and the established sessions' reports must be byte-identical
// to unloaded in-process runs.
func TestFloodLeavesSessionsUnharmed(t *testing.T) {
	const (
		nSessions   = 4
		nFlood      = 64
		plainPer    = 8 // cookie-less HELLOs per flood source
		bogusPer    = 4 // forged-cookie HELLOs per flood source
		cookieBytes = 16
	)
	nw := faultnet.New(100, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{MaxSessions: nSessions * 2})

	// Unloaded expectation per seed, via the in-process pipe path.
	want := make([]chaosReport, nSessions)
	for i := range want {
		p, err := srv.Pipe(shieldd.SessionOptions{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = runChaosSession(p)
		if err != nil {
			t.Fatalf("unloaded session %d: %v", i, err)
		}
		_ = p.Close()
	}

	clients := make([]*shieldd.Client, nSessions)
	for i := range clients {
		clients[i] = dialPacket(t, nw, fmt.Sprintf("legit-%d", i), "server", shieldd.SessionOptions{
			Seed: int64(i + 1), RetryTimeout: 15 * time.Millisecond, MaxRetries: 12,
		})
		defer clients[i].Close()
		// A datagram session commits its slot on the first authenticated
		// frame, so ping before snapshotting the baseline.
		if err := clients[i].Ping(); err != nil {
			t.Fatal(err)
		}
	}
	base := srv.Metrics()
	// Each legit handshake sends exactly one cookie-less HELLO on a
	// perfect network, so the baseline is already exact.
	if base.CookiesSent != nSessions || base.CookieRejects != 0 {
		t.Fatalf("baseline cookie counters: sent=%d rejects=%d, want %d/0",
			base.CookiesSent, base.CookieRejects, nSessions)
	}

	// The flood and the legit scripts run concurrently.
	floodEps := make([]*faultnet.Endpoint, nFlood)
	for i := range floodEps {
		ep, err := nw.Listen(fmt.Sprintf("flood-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		floodEps[i] = ep
	}
	bogus := make([]byte, cookieBytes)
	for i := range bogus {
		bogus[i] = 0xAA
	}
	var wg sync.WaitGroup
	got := make([]chaosReport, nSessions)
	errs := make([]error, nSessions)
	floodErrs := make([]error, nFlood)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = runChaosSession(clients[i])
		}(i)
	}
	for i := range floodEps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < plainPer+bogusPer; j++ {
				var ck []byte
				if j >= plainPer {
					ck = bogus
				}
				if err := floodHello(floodEps[i], byte(i), byte(j), ck, cookieBytes); err != nil {
					floodErrs[i] = fmt.Errorf("flood source %d, HELLO %d: %w", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range floodErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every flood HELLO earned a cookie reply (cookie-less and forged
	// alike) and every reply was observed above, so the counters must
	// be EXACT — any drift means state or work leaked somewhere.
	wantSent := base.CookiesSent + nFlood*(plainPer+bogusPer)
	wantRejects := uint64(nFlood * bogusPer)
	snap := srv.Metrics()
	if snap.CookiesSent != wantSent {
		t.Errorf("CookiesSent = %d, want exactly %d", snap.CookiesSent, wantSent)
	}
	if snap.CookieRejects != wantRejects {
		t.Errorf("CookieRejects = %d, want exactly %d", snap.CookieRejects, wantRejects)
	}
	if snap.RateLimited != 0 || snap.ShedHandshakes != 0 {
		t.Errorf("flood leaked past the cookie gate: rateLimited=%d shedHandshakes=%d",
			snap.RateLimited, snap.ShedHandshakes)
	}

	// Zero session-state growth: no flood source became a datagram peer
	// or a session.
	if n := srv.DatagramPeers(); n != nSessions {
		t.Errorf("datagram peers = %d, want %d (flood grew per-peer state)", n, nSessions)
	}
	if snap.TotalSessions != base.TotalSessions {
		t.Errorf("TotalSessions grew %d -> %d under a cookie-less flood",
			base.TotalSessions, snap.TotalSessions)
	}

	// Established sessions were untouched: byte-identical reports.
	for i := range clients {
		if errs[i] != nil {
			t.Errorf("legit session %d under flood: %v", i, errs[i])
			continue
		}
		if got[i] != want[i] {
			t.Errorf("legit session %d diverged under flood\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	// The new server-wide counters travel the wire: STATUS-METRICS from
	// a live session must carry the same exact values.
	m, err := clients[0].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("server.cookiesSent") != wantSent || m.Get("server.cookieRejects") != wantRejects {
		t.Errorf("wire metrics cookies sent/rejects = %d/%d, want %d/%d",
			m.Get("server.cookiesSent"), m.Get("server.cookieRejects"), wantSent, wantRejects)
	}
}

// TestPartitionRideout is wall (b): established datagram sessions ride
// out a 2-second full partition purely on retransmit backoff, ending
// with reports field-identical to unloaded runs and zero duplicate
// executions, on every network seed.
func TestPartitionRideout(t *testing.T) {
	for _, netSeed := range []int64{21, 22} {
		netSeed := netSeed
		t.Run(fmt.Sprintf("netseed=%d", netSeed), func(t *testing.T) {
			t.Parallel()
			const nSessions = 3
			nw := faultnet.New(netSeed, faultnet.Impairment{Drop: 0.05})
			defer nw.Close()
			srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{MaxSessions: nSessions * 2})

			want := make([]chaosReport, nSessions)
			for i := range want {
				p, err := srv.Pipe(shieldd.SessionOptions{Seed: int64(i + 1)})
				if err != nil {
					t.Fatal(err)
				}
				want[i], err = runChaosSession(p)
				if err != nil {
					t.Fatal(err)
				}
				_ = p.Close()
			}

			var redials atomic.Int64
			clients := make([]*shieldd.Client, nSessions)
			for i := range clients {
				i := i
				clients[i] = dialPacket(t, nw, fmt.Sprintf("part-client-%d", i), "server", shieldd.SessionOptions{
					Seed:          int64(i + 1),
					RetryTimeout:  15 * time.Millisecond,
					MaxRetries:    14,
					AutoReconnect: true,
					RedialPacket:  redialVia(nw, &redials, fmt.Sprintf("part-client-%d", i)),
				})
				defer clients[i].Close()
			}

			// Cut the network for 2 seconds starting now: the scripts'
			// first requests land inside the outage and must survive on
			// escalating retransmits alone.
			nw.SetPartitions(faultnet.Partition{Start: 0, Dur: 2 * time.Second})

			got := make([]chaosReport, nSessions)
			errs := make([]error, nSessions)
			var wg sync.WaitGroup
			for i := range clients {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = runChaosSession(clients[i])
				}(i)
			}
			wg.Wait()

			var retrans uint64
			for i := range clients {
				if errs[i] != nil {
					t.Errorf("session %d did not ride out the partition: %v", i, errs[i])
					continue
				}
				if got[i] != want[i] {
					t.Errorf("session %d diverged across the partition\n got %+v\nwant %+v", i, got[i], want[i])
				}
				m, err := clients[i].Metrics()
				if err != nil {
					t.Fatal(err)
				}
				if m.Get("exchanges") != chaosExchanges {
					t.Errorf("session %d executed %d exchanges, want exactly %d (duplicate execution across the partition)",
						i, m.Get("exchanges"), chaosExchanges)
				}
				if n := clients[i].Reconnects(); n != 0 {
					t.Errorf("session %d reconnected %d times: backoff alone should ride out 2s", i, n)
				}
				retrans += clients[i].TransportStats().Retransmits
			}
			if retrans == 0 {
				t.Error("no retransmits across a 2s partition: the outage never touched the sessions")
			}
			if st := nw.Stats(); st.PartitionDrops == 0 {
				t.Errorf("partition swallowed nothing: %+v", st)
			}
		})
	}
}

// redialVia returns a RedialPacket that opens fresh fault-network
// endpoints ("<base>-r1", "<base>-r2", ...) aimed at the server,
// counting attempts.
func redialVia(nw *faultnet.Network, count *atomic.Int64, base string) func() (net.PacketConn, net.Addr, error) {
	return func() (net.PacketConn, net.Addr, error) {
		ep, err := nw.Listen(fmt.Sprintf("%s-r%d", base, count.Add(1)))
		if err != nil {
			return nil, nil, err
		}
		return ep, faultnet.Addr("server"), nil
	}
}

// TestShedRequestsExactlyOnce is wall (c): with a single global
// in-flight slot, one session's experiment pins the slot while two
// others hammer exchanges, so shedding is guaranteed, not a scheduling
// accident. Every shed request is answered BUSY and transparently
// retried; nothing is ever half-executed: the scripted session's report
// stays unloaded-identical, every client executes exactly the requests
// it issued, and the shed counters reconcile exactly between sessions,
// the server, and the wire.
func TestShedRequestsExactlyOnce(t *testing.T) {
	nw := faultnet.New(77, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{
		MaxSessions:       4,
		MaxInFlightGlobal: 1,
		BusyRetryAfter:    2 * time.Millisecond,
	})

	// Unloaded expectation for the scripted session, before any load.
	p, err := srv.Pipe(shieldd.SessionOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runChaosSession(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Close()

	opts := func(seed int64) shieldd.SessionOptions {
		return shieldd.SessionOptions{Seed: seed, RetryTimeout: 10 * time.Millisecond, MaxRetries: 12}
	}
	a := dialPacket(t, nw, "shed-exp", "server", opts(1))
	defer a.Close()
	b := dialPacket(t, nw, "shed-hammer", "server", opts(2))
	defer b.Close()
	c := dialPacket(t, nw, "shed-script", "server", opts(3))
	defer c.Close()

	// A's experiment occupies the only work slot for tens of
	// milliseconds (or is itself shed and retried if a hammer exchange
	// got there first — either way BUSY flows).
	expDone := make(chan error, 1)
	go func() {
		_, err := a.Experiment(wire.ExperimentReq{Name: "fig7", Quick: true, Workers: 1})
		expDone <- err
	}()
	scriptDone := make(chan error, 1)
	gotScript := make(chan chaosReport, 1)
	go func() {
		rep, err := runChaosSession(c)
		gotScript <- rep
		scriptDone <- err
	}()

	// B hammers single exchanges until the server has demonstrably shed
	// something; every BUSY is retried under the hood, so each call must
	// still succeed.
	hammered := uint64(0)
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().ShedRequests == 0 {
		if _, err := b.Exchange(0, wire.CmdInterrogate); err != nil {
			t.Fatalf("hammer exchange %d: %v", hammered, err)
		}
		hammered++
		if time.Now().After(deadline) {
			t.Fatal("no requests shed while an experiment pinned the only work slot")
		}
	}
	if err := <-expDone; err != nil {
		t.Fatalf("experiment under shedding: %v", err)
	}
	if err := <-scriptDone; err != nil {
		t.Fatalf("scripted session under shedding: %v", err)
	}
	if got := <-gotScript; got != want {
		t.Errorf("scripted session diverged under shedding\n got %+v\nwant %+v", got, want)
	}

	// Exactly-once despite BUSY + retry: each client executed precisely
	// the requests it issued, no more (a replayed shed request would
	// re-execute) and no less (a half-executed shed would under-count).
	mets := make(map[string]*wire.MetricsResp, 3)
	for name, cl := range map[string]*shieldd.Client{"exp": a, "hammer": b, "script": c} {
		m, err := cl.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		mets[name] = m
	}
	if n := mets["hammer"].Get("exchanges"); n != hammered {
		t.Errorf("hammer session executed %d exchanges, want exactly %d", n, hammered)
	}
	if n := mets["script"].Get("exchanges"); n != chaosExchanges {
		t.Errorf("scripted session executed %d exchanges, want exactly %d", n, chaosExchanges)
	}
	if n := mets["exp"].Get("experiments"); n != 1 {
		t.Errorf("experiment session executed %d experiments, want exactly 1", n)
	}

	// The per-session Shed counters and the server-wide ShedRequests are
	// incremented together; at quiescence they reconcile exactly, and
	// the wire snapshot agrees.
	sumShed := mets["exp"].Get("shed") + mets["hammer"].Get("shed") + mets["script"].Get("shed")
	snap := srv.Metrics()
	if snap.ShedRequests == 0 {
		t.Error("no shed requests counted")
	}
	if snap.ShedRequests != sumShed {
		t.Errorf("server ShedRequests=%d != per-session shed sum %d", snap.ShedRequests, sumShed)
	}
	if mets["hammer"].Get("server.shedRequests") != snap.ShedRequests {
		t.Errorf("wire ServerShedRequests=%d != server counter %d", mets["hammer"].Get("server.shedRequests"), snap.ShedRequests)
	}
	t.Logf("shed wall: %d sheds (%d hammer exchanges), reports identical", sumShed, hammered)
}

// TestIdleReapAutoReconnectOverImpairedPacket covers the reap →
// retransmit-exhaustion → reconnect sequence over a 10%-drop datagram
// network: the reaper kills an idle session, pipelined requests on the
// dead session fail with the typed timeout, and the next request
// re-handshakes (fresh cookie round trip through loss) and restarts the
// deterministic stream — exactly once.
func TestIdleReapAutoReconnectOverImpairedPacket(t *testing.T) {
	nw := faultnet.New(33, faultnet.Impairment{Drop: 0.10})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{
		MaxSessions: 4, IdleTimeout: 300 * time.Millisecond,
	})

	var redials atomic.Int64
	c := dialPacket(t, nw, "rc-client", "server", shieldd.SessionOptions{
		Seed:          9,
		AutoReconnect: true,
		RetryTimeout:  10 * time.Millisecond,
		MaxRetries:    6,
		RedialPacket:  redialVia(nw, &redials, "rc-client"),
	})
	defer c.Close()

	first := clientPair(t, c)
	if want := localPair(9); first != want {
		t.Fatalf("pre-reap pair %+v != in-process %+v", first, want)
	}
	firstSession := c.SessionID()

	// Go idle until the reaper kills the session server-side. The
	// datagram client hears nothing — the death is discovered by the
	// next request's retransmits running dry.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().ReapedSessions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle datagram session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := srv.DatagramPeers(); n != 0 {
		t.Errorf("reaped session left %d datagram peers registered", n)
	}

	// Mid-pipeline on the dead session: both in-flight requests must
	// fail with the retransmit-timeout error, never hang.
	callA := c.Go(&wire.Ping{})
	callB := c.Go(&wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate})
	if _, err := callA.Wait(); err == nil {
		t.Error("pipelined ping on a reaped datagram session succeeded")
	}
	if _, err := callB.Wait(); err == nil {
		t.Error("pipelined exchange on a reaped datagram session succeeded")
	}

	// The next request reconnects through 10% loss and restarts the
	// seed-9 stream from the beginning — the same pair, exactly once.
	again := clientPair(t, c)
	if again != first {
		t.Errorf("restarted stream pair %+v != original %+v", again, first)
	}
	if c.SessionID() == firstSession {
		t.Error("session ID unchanged across reconnect")
	}
	if n := c.Reconnects(); n != 1 {
		t.Errorf("reconnects = %d, want 1", n)
	}
	if n := redials.Load(); n != 1 {
		t.Errorf("redial transports opened = %d, want 1", n)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("exchanges") != 2 {
		t.Errorf("new session executed %d exchanges, want exactly 2", m.Get("exchanges"))
	}
}

// TestHandshakeShedTyped: with an immediate-shed admission policy and a
// full session table, a datagram handshake is refused with BUSY and the
// dial fails with ErrServerBusy — distinguishable from breakage — and
// dialing works again once capacity frees.
func TestHandshakeShedTyped(t *testing.T) {
	nw := faultnet.New(55, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{
		MaxSessions:    1,
		AdmissionWait:  -time.Nanosecond,
		BusyRetryAfter: time.Millisecond,
	})

	hold := dialPacket(t, nw, "hold-client", "server", shieldd.SessionOptions{Seed: 1})
	// The session slot is committed by the first authenticated frame.
	if err := hold.Ping(); err != nil {
		t.Fatal(err)
	}

	pc, err := nw.Listen("busy-client")
	if err != nil {
		t.Fatal(err)
	}
	_, err = shieldd.NewPacketClient(pc, faultnet.Addr("server"), testSecret, shieldd.SessionOptions{
		Seed: 2, RetryTimeout: 5 * time.Millisecond, MaxRetries: 3,
	})
	pc.Close()
	if !errors.Is(err, shieldd.ErrServerBusy) {
		t.Fatalf("dial against a full shedding server = %v, want ErrServerBusy", err)
	}
	if snap := srv.Metrics(); snap.ShedHandshakes == 0 {
		t.Error("no shed handshakes counted")
	}

	// Capacity frees; the same address dials cleanly.
	if err := hold.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().ActiveSessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("held session never released its slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c := dialPacket(t, nw, "busy-client", "server", shieldd.SessionOptions{Seed: 3})
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeRateLimitTyped: an address that exhausts its per-peer
// handshake budget is silently dropped (it holds a valid cookie, the
// reply would be pure amplification) and the dial fails with
// ErrHandshakeTimeout; other addresses are unaffected.
func TestHandshakeRateLimitTyped(t *testing.T) {
	nw := faultnet.New(56, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{
		MaxSessions:    4,
		HandshakeRate:  0.001, // a token every ~17 minutes
		HandshakeBurst: 1,
	})

	// The first handshake from this address consumes the only token.
	c1 := dialPacket(t, nw, "metered-client", "server", shieldd.SessionOptions{Seed: 1})
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	pc, err := nw.Listen("metered-client")
	if err != nil {
		t.Fatal(err)
	}
	_, err = shieldd.NewPacketClient(pc, faultnet.Addr("server"), testSecret, shieldd.SessionOptions{
		Seed: 2, RetryTimeout: 5 * time.Millisecond, MaxRetries: 3,
	})
	pc.Close()
	if !errors.Is(err, shieldd.ErrHandshakeTimeout) {
		t.Fatalf("over-rate dial = %v, want ErrHandshakeTimeout", err)
	}
	if snap := srv.Metrics(); snap.RateLimited == 0 {
		t.Error("no rate-limited handshakes counted")
	}

	// The limiter is per-peer: a different address dials immediately.
	c2 := dialPacket(t, nw, "metered-client-2", "server", shieldd.SessionOptions{Seed: 3})
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
}

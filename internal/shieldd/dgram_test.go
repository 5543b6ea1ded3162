package shieldd_test

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
)

// startPacketServer serves datagram sessions from a faultnet endpoint
// named addr and returns the server.
func startPacketServer(t *testing.T, nw *faultnet.Network, addr string, cfg shieldd.ServerConfig) *shieldd.Server {
	t.Helper()
	srv := newServer(t, cfg)
	pc, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServePacket(pc)
	return srv
}

// dialPacket opens a datagram session through the fault network.
func dialPacket(t *testing.T, nw *faultnet.Network, clientAddr, serverAddr string, opt shieldd.SessionOptions) *shieldd.Client {
	t.Helper()
	pc, err := nw.Listen(clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := shieldd.NewPacketClient(pc, faultnet.Addr(serverAddr), testSecret, opt)
	if err != nil {
		pc.Close()
		t.Fatalf("packet dial: %v", err)
	}
	return c
}

// A datagram session over a perfect network must produce exactly the
// in-process Simulation's per-seed results — transport is unobservable.
func TestPacketSessionMatchesInProcess(t *testing.T) {
	nw := faultnet.New(1, faultnet.Impairment{})
	defer nw.Close()
	startPacketServer(t, nw, "server", shieldd.ServerConfig{})

	for _, seed := range []int64{1, 5} {
		want := localPair(seed)
		c := dialPacket(t, nw, "client", "server", shieldd.SessionOptions{Seed: seed})
		got := clientPair(t, c)
		if got != want {
			t.Errorf("seed %d: packet session %+v != in-process %+v", seed, got, want)
		}
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		// Reuse the client address for the next seed: closing must have
		// detached it from the fault network.
	}
}

// The same must hold over real UDP sockets on the loopback.
func TestPacketSessionOverRealUDP(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	srv := newServer(t, shieldd.ServerConfig{})
	go srv.ServePacket(pc)

	want := localPair(3)
	c, err := shieldd.DialUDP(pc.LocalAddr().String(), testSecret, shieldd.SessionOptions{Seed: 3})
	if err != nil {
		t.Fatalf("DialUDP: %v", err)
	}
	defer c.Close()
	got := clientPair(t, c)
	if got != want {
		t.Errorf("UDP session %+v != in-process %+v", got, want)
	}
	if st, err := c.Metrics(); err != nil || st.Get("server.active") == 0 {
		t.Errorf("server metrics over UDP: %+v, %v", st, err)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("ping over UDP: %v", err)
	}
}

// Batched exchanges, metrics, and experiments must all work over the
// datagram transport, and the metrics frame must carry the securelink
// window counters.
func TestPacketBatchAndMetrics(t *testing.T) {
	nw := faultnet.New(3, faultnet.Impairment{})
	defer nw.Close()
	startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	c := dialPacket(t, nw, "client", "server", shieldd.SessionOptions{Seed: 2})
	defer c.Close()

	items := []wire.ExchangeItem{
		{IMD: 0, Cmd: wire.CmdInterrogate},
		{IMD: 0, Cmd: wire.CmdSetTherapy},
	}
	batched, err := c.BatchExchange(items)
	if err != nil {
		t.Fatalf("batch over packet transport: %v", err)
	}
	want := localPair(2)
	if batched[0].EavesBER != want.BER0 || batched[1].EavesBER != want.BER1 {
		t.Errorf("batched BERs (%v, %v) != in-process (%v, %v)",
			batched[0].EavesBER, batched[1].EavesBER, want.BER0, want.BER1)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Get("batches") != 1 || m.Get("batched") != 2 || m.Get("retransmits") != 0 {
		t.Errorf("metrics %+v: want 1 batch, 2 batched, 0 retransmits on a perfect network", m)
	}
	if ts := c.TransportStats(); ts.Retransmits != 0 || ts.Timeouts != 0 {
		t.Errorf("client transport stats on perfect network: %+v", ts)
	}
}

// A client whose requests are never answered must fail with a timeout
// after exhausting its retransmissions — not hang.
func TestPacketRequestTimesOutWithoutServer(t *testing.T) {
	nw := faultnet.New(4, faultnet.Impairment{})
	defer nw.Close()
	startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	c := dialPacket(t, nw, "client", "server", shieldd.SessionOptions{
		Seed: 1, RetryTimeout: 5 * time.Millisecond, MaxRetries: 3,
	})
	// Tear the network's server side down after the handshake, then ask.
	nw.Close()
	start := time.Now()
	if err := c.Ping(); err == nil {
		t.Fatal("ping on a dead network succeeded")
	} else if !strings.Contains(err.Error(), "timed out") && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("dead-network error = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout took too long")
	}
	if ts := c.TransportStats(); ts.Retransmits == 0 && ts.Timeouts == 0 {
		t.Logf("note: transport failed before any retransmit (%+v)", ts)
	}
}

// TestExhaustedRequestEndsSession: a datagram request that runs out of
// retransmissions ends its session, even without AutoReconnect. The
// server can never fill the gap its ID leaves, so a later ordered
// request would wait behind it through its whole retry schedule, and
// every request answered above it would stay in the server's ledger
// until the session died. The next call fails at once, and nothing is
// sent.
func TestExhaustedRequestEndsSession(t *testing.T) {
	nw := faultnet.New(81, faultnet.Impairment{})
	defer nw.Close()
	startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	c := dialPacket(t, nw, "exhaust-client", "server", shieldd.SessionOptions{
		Seed: 1, RetryTimeout: 5 * time.Millisecond, MaxRetries: 3,
	})
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	nw.SetPartitions(faultnet.Partition{Src: "exhaust-client", Dst: "server", Dur: time.Hour})
	if err := c.Ping(); !errors.Is(err, shieldd.ErrRequestTimeout) || errors.Is(err, shieldd.ErrSessionLost) {
		t.Fatalf("ping under a partition = %v, want ErrRequestTimeout", err)
	}
	nw.SetPartitions()

	retransmits, sent := c.TransportStats().Retransmits, nw.Stats().Sent
	_, err := c.Exchange(0, wire.CmdInterrogate)
	if !errors.Is(err, shieldd.ErrSessionLost) || !errors.Is(err, shieldd.ErrRequestTimeout) {
		t.Fatalf("exchange after the expiry = %v, want ErrSessionLost wrapping ErrRequestTimeout", err)
	}
	if got := c.TransportStats().Retransmits; got != retransmits {
		t.Errorf("retransmits went %d -> %d on an ended session", retransmits, got)
	}
	if got := nw.Stats().Sent; got != sent {
		t.Errorf("%d datagrams sent on an ended session", got-sent)
	}
}

// Handshakes must survive datagram loss: with 30% drop and tight retry
// timers, sessions still establish and run correct exchanges.
func TestPacketHandshakeSurvivesLoss(t *testing.T) {
	nw := faultnet.New(5, faultnet.Impairment{Drop: 0.30})
	defer nw.Close()
	startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	for i := 0; i < 4; i++ {
		seed := int64(i + 1)
		c := dialPacket(t, nw, "lossy-client", "server", shieldd.SessionOptions{
			Seed: seed, RetryTimeout: 10 * time.Millisecond, MaxRetries: 12,
		})
		want := localPair(seed)
		got := clientPair(t, c)
		if got != want {
			t.Errorf("seed %d under 30%% drop: %+v != %+v", seed, got, want)
		}
		_ = c.Close()
	}
}

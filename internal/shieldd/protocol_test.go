package shieldd_test

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"heartshield/internal/securelink"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
)

// A batch must produce exactly the result stream of the same items sent
// as individual EXCHANGE frames at the same seed — batching is a framing
// optimization, never a physics change.
func TestBatchMatchesSequentialExchanges(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	items := []wire.ExchangeItem{
		{IMD: 0, Cmd: wire.CmdInterrogate},
		{IMD: 0, Cmd: wire.CmdSetTherapy},
		{IMD: 0, Cmd: wire.CmdInterrogate},
	}

	cSeq, err := srv.Pipe(shieldd.SessionOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var want []wire.ExchangeResp
	for _, it := range items {
		r, err := cSeq.Exchange(int(it.IMD), it.Cmd)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, *r)
	}
	cSeq.Close()

	cBatch, err := srv.Pipe(shieldd.SessionOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer cBatch.Close()
	got, err := cBatch.BatchExchange(items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].EavesBER != want[i].EavesBER || got[i].CancellationDB != want[i].CancellationDB ||
			string(got[i].Response) != string(want[i].Response) {
			t.Errorf("item %d: batch %+v != sequential %+v", i, got[i], want[i])
		}
	}

	// A batch with any bad index is refused before touching the scenario:
	// the deterministic stream continues exactly where it left off. The
	// 4th exchange after the rejected batch must equal the 4th exchange
	// of a session that never saw the bad batch.
	if _, err := cBatch.BatchExchange([]wire.ExchangeItem{{IMD: 0}, {IMD: 9}}); err == nil {
		t.Fatal("batch with out-of-range IMD accepted")
	}
	after, err := cBatch.Exchange(0, wire.CmdInterrogate)
	if err != nil {
		t.Fatal(err)
	}
	cSeq2, err := srv.Pipe(shieldd.SessionOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer cSeq2.Close()
	for _, it := range items {
		if _, err := cSeq2.Exchange(int(it.IMD), it.Cmd); err != nil {
			t.Fatal(err)
		}
	}
	clean, err := cSeq2.Exchange(0, wire.CmdInterrogate)
	if err != nil {
		t.Fatal(err)
	}
	if after.EavesBER != clean.EavesBER || after.CancellationDB != clean.CancellationDB {
		t.Errorf("rejected batch perturbed the stream: %+v != %+v", after, clean)
	}

	if _, err := cBatch.BatchExchange(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// Pipelined requests complete out of order: a PING submitted behind a
// long BATCH-EXCHANGE overtakes it (the server answers keepalives from
// the reader fast path, never behind the scenario executor).
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// ~64 exchanges ≈ 150 ms of scenario work in the executor queue.
	items := make([]wire.ExchangeItem, 64)
	for i := range items {
		items[i] = wire.ExchangeItem{IMD: 0, Cmd: wire.CmdInterrogate}
	}
	batch := c.Go(&wire.BatchReq{Items: items})
	ping := c.Go(&wire.Ping{Token: 77})

	if _, err := ping.Wait(); err != nil {
		t.Fatalf("ping behind batch: %v", err)
	}
	select {
	case <-batch.Done:
		t.Error("batch finished before the ping — requests were not pipelined out of order")
	default:
	}
	resp, err := batch.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if br := resp.(*wire.BatchResp); len(br.Results) != len(items) {
		t.Fatalf("batch returned %d results", len(br.Results))
	}

	// The pipelining depth reached at least 2 (batch + ping in flight).
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if hwm := m.Get("inflightHWM"); hwm < 2 {
		t.Errorf("in-flight high-water mark %d, want >= 2", hwm)
	}
}

// Pipelined exchanges must preserve the deterministic result stream:
// two exchanges submitted back-to-back without waiting produce exactly
// the serial in-process results (the executor runs them in arrival
// order even though the transport no longer enforces lockstep).
func TestPipelinedExchangesStayDeterministic(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	want := localPair(13)
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	callA := c.Go(&wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate})
	callB := c.Go(&wire.ExchangeReq{IMD: 0, Cmd: wire.CmdSetTherapy})
	ra, err := callA.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := callB.Wait()
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra.(*wire.ExchangeResp), rb.(*wire.ExchangeResp)
	got := exchangePair{
		BER0: a.EavesBER, Cancel0: a.CancellationDB, Payload0: string(a.Response),
		BER1: b.EavesBER, Cancel1: b.CancellationDB,
	}
	if got != want {
		t.Errorf("pipelined %+v != serial in-process %+v", got, want)
	}
}

// The idle reaper must close a quiet session that has run physics, while
// PING keepalives hold a session open. The keepalive interval sits at a
// quarter of the idle window: under the race detector on a loaded
// single-core machine a sleep can overshoot by tens of milliseconds, and
// a half-window interval made the reaper win those races spuriously.
func TestIdleReapClosesOnlyQuietSessions(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{IdleTimeout: 400 * time.Millisecond})
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exchange(0, wire.CmdInterrogate); err != nil {
		t.Fatal(err)
	}

	// Keepalives across several idle windows: the session must survive.
	for i := 0; i < 6; i++ {
		time.Sleep(100 * time.Millisecond)
		if err := c.Ping(); err != nil {
			t.Fatalf("keepalive %d failed: %v", i, err)
		}
	}

	// Go quiet: the reaper must close the session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := srv.Metrics()
		if m.ActiveSessions == 0 && m.ReapedSessions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not reaped: metrics %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The client's next request must fail (no auto-reconnect configured).
	if _, err := c.Exchange(0, wire.CmdInterrogate); err == nil {
		t.Fatal("exchange succeeded on a reaped session without AutoReconnect")
	}
}

// TestTinyIdleTimeoutReaps: any positive IdleTimeout reaps. The reaper
// ticks at a quarter of the timeout, floored at a millisecond; without
// the floor a timeout under 4ns made a zero tick interval, and
// time.NewTicker panicked inside the reaper goroutine, taking the whole
// server process down.
func TestTinyIdleTimeoutReaps(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{IdleTimeout: time.Nanosecond})
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The PING commits the session; the reaper may close it before the
	// PONG is written, so only the reap is checked.
	_ = c.Ping()
	deadline := time.Now().Add(5 * time.Second)
	for m := srv.Metrics(); m.ReapedSessions == 0 || m.ActiveSessions != 0; m = srv.Metrics() {
		if time.Now().After(deadline) {
			t.Fatalf("session with a 1ns idle timeout never reaped: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
}

// A dialed client with AutoReconnect re-handshakes transparently after
// the idle reaper closes its connection; the fresh session restarts the
// deterministic stream at the session seed.
func TestAutoReconnectAfterIdleReap(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer l.Close()
	// As above: a reap window under ~300ms races the first exchange's
	// frame transit under -race on a loaded machine (failed 1-2/5 runs
	// at 60ms with a concurrent experiment suite, base commit included).
	srv := newServer(t, shieldd.ServerConfig{IdleTimeout: 300 * time.Millisecond})
	go srv.Serve(l)

	c, err := shieldd.Dial(l.Addr().String(), testSecret, shieldd.SessionOptions{Seed: 31, AutoReconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first, err := c.Exchange(0, wire.CmdInterrogate)
	if err != nil {
		t.Fatal(err)
	}
	firstSession := c.SessionID()

	// Wait for the reaper to kill the idle connection.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().ReapedSessions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The next request must transparently re-dial, re-handshake with
	// fresh nonces, and restart the seed-31 stream from the beginning.
	again, err := c.Exchange(0, wire.CmdInterrogate)
	if err != nil {
		t.Fatalf("exchange after reap: %v", err)
	}
	if c.Reconnects() != 1 {
		t.Errorf("reconnect count = %d, want 1", c.Reconnects())
	}
	if c.SessionID() == firstSession {
		t.Error("session ID unchanged across reconnect — handshake not fresh")
	}
	if again.EavesBER != first.EavesBER || again.CancellationDB != first.CancellationDB {
		t.Errorf("restarted stream first exchange %+v != original first exchange %+v", again, first)
	}
}

// STATUS-METRICS must count the session's own requests and expose link
// traffic from securelink.
func TestSessionMetricsCounters(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exchange(0, wire.CmdInterrogate); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BatchExchange([]wire.ExchangeItem{
		{IMD: 0, Cmd: wire.CmdInterrogate}, {IMD: 0, Cmd: wire.CmdInterrogate},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attack(wire.CmdInterrogate, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exchange(9, wire.CmdInterrogate); err == nil {
		t.Fatal("out-of-range exchange accepted")
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("exchanges") != 1 || m.Get("batches") != 1 || m.Get("batched") != 2 ||
		m.Get("attacks") != 1 || m.Get("pings") != 1 || m.Get("errors") != 1 {
		t.Errorf("session counters %+v", m)
	}
	if m.Get("sealedB") == 0 || m.Get("openedB") == 0 {
		t.Errorf("link byte counters empty: sealed %d opened %d", m.Get("sealedB"), m.Get("openedB"))
	}
	if m.Get("server.sessions") == 0 || m.Get("server.active") == 0 {
		t.Errorf("server gauges empty: %+v", m)
	}
}

// reportPerExchange turns the link-stat delta of a benchmark run into
// deterministic per-exchange protocol-cost metrics: sealed+opened wire
// frames and bytes per exchange. Unlike ns/op these are exact (no
// scheduler noise), so they are what the CI bench gate watches to prove
// batching amortizes framing and sealing.
func reportPerExchange(b *testing.B, before, after securelink.Stats, exchanges int) {
	b.Helper()
	frames := float64(after.MsgsSealed - before.MsgsSealed + after.MsgsOpened - before.MsgsOpened)
	bytes := float64(after.BytesSealed - before.BytesSealed + after.BytesOpened - before.BytesOpened)
	b.ReportMetric(frames/float64(exchanges), "frames/xchg")
	b.ReportMetric(bytes/float64(exchanges), "wireB/xchg")
}

// BenchmarkBatchedExchange measures 16 protected exchanges delivered as
// one BATCH-EXCHANGE frame (one sealed round trip); compare with
// BenchmarkSequentialExchanges, which performs the same 16 exchanges as
// individual round trips. The per-exchange simulation physics (~ms)
// dominates wall clock on an in-process pipe, so the amortization shows
// up primarily in the exact frames/xchg metric (0.125 vs 2) and in
// wire bytes per exchange; over a real network each saved frame is also
// a saved round trip.
func BenchmarkBatchedExchange(b *testing.B) {
	srv, err := shieldd.NewServer(shieldd.ServerConfig{Secret: testSecret})
	if err != nil {
		b.Fatal(err)
	}
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	items := make([]wire.ExchangeItem, 16)
	for i := range items {
		items[i] = wire.ExchangeItem{IMD: 0, Cmd: wire.CmdInterrogate}
	}
	before := c.LinkStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BatchExchange(items); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerExchange(b, before, c.LinkStats(), 16*b.N)
}

// BenchmarkSequentialExchanges is the unbatched baseline: the same 16
// exchanges as BenchmarkBatchedExchange, one sealed round trip each.
func BenchmarkSequentialExchanges(b *testing.B) {
	srv, err := shieldd.NewServer(shieldd.ServerConfig{Secret: testSecret})
	if err != nil {
		b.Fatal(err)
	}
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	before := c.LinkStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 16; k++ {
			if _, err := c.Exchange(0, wire.CmdInterrogate); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	reportPerExchange(b, before, c.LinkStats(), 16*b.N)
}

// TestStreamHelloBudget: a stream peer has proven nothing before its
// first sealed frame opens, so its plaintext first frame gets a budget
// of 512 bytes (maxHelloFrame). A peer whose first frame announces more
// gets no reply: the server closes the conn without reading the body,
// and no session is counted.
func TestStreamHelloBudget(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	served := make(chan struct{})
	go func() {
		srv.ServeConn(sEnd)
		close(served)
	}()
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], 513)
	if _, err := cEnd.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	_ = cEnd.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := cEnd.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read %d bytes (err %v); want no reply and io.EOF", n, err)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn still runs after an over-budget first frame")
	}
	if m := srv.Metrics(); m.TotalSessions != 0 || m.ActiveSessions != 0 {
		t.Fatalf("over-budget first frame counted sessions: total %d, active %d", m.TotalSessions, m.ActiveSessions)
	}
}

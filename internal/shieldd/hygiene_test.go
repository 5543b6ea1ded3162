package shieldd_test

import (
	"flag"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/securelink/sectest"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// settle polls until the process runs want goroutines and every server
// has no active session, after the ending named why. The deadline only
// bounds a failing run.
func settle(t *testing.T, why string, want int, servers ...*shieldd.Server) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		active := int64(0)
		for _, srv := range servers {
			active += srv.Metrics().ActiveSessions
		}
		n := runtime.NumGoroutine()
		if n == want && active == 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines (want %d), %d active sessions (want 0):\n%s",
				why, n, want, active, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// quietGoroutines waits until the servers have no active session and
// the goroutine count has held still for 200 ms, and returns the count.
func quietGoroutines(t *testing.T, servers ...*shieldd.Server) int {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	n, since := -1, time.Now()
	for time.Since(since) < 200*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatal("goroutine count never settled")
		}
		active := int64(0)
		for _, srv := range servers {
			active += srv.Metrics().ActiveSessions
		}
		if m := runtime.NumGoroutine(); m != n || active != 0 {
			n, since = m, time.Now()
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// rawStream opens a stream session by hand and returns its client end
// and link; its first sealed frame commits the session.
func rawStream(t *testing.T, srv *shieldd.Server) (net.Conn, func(id uint64, m wire.Message)) {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	hs, err := sectest.RunV4Handshake(cEnd, testSecret, nil, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	send := func(id uint64, m wire.Message) {
		t.Helper()
		if err := wire.WriteFrame(cEnd, hs.Link.Seal(wire.EncodeEnvelopeV3(id, 0, 0, m))); err != nil {
			t.Fatal(err)
		}
	}
	return cEnd, send
}

// hygieneChildEnv marks a child process of the test binary that runs one
// goroutine-counting test alone.
const hygieneChildEnv = "SHIELDD_HYGIENE_CHILD"

// runAlone runs the named test by itself in a child process of the test
// binary and fails t with the child's output if it fails. A test that
// compares whole-process goroutine counts runs there, so that no
// goroutine another test left behind can end during it and move its
// count. A coverage run's counters go to the same directory as the
// parent's.
func runAlone(t *testing.T, name string) {
	t.Helper()
	args := []string{"-test.run=^" + name + "$"}
	if testing.Verbose() {
		args = append(args, "-test.v")
	}
	if f := flag.Lookup("test.gocoverdir"); f != nil && f.Value.String() != "" {
		args = append(args, "-test.gocoverdir="+f.Value.String())
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), hygieneChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s alone in a child process: %v\n%s", name, err, out)
	}
	if testing.Verbose() {
		t.Logf("%s", out)
	}
}

// TestServerGoroutineHygiene ends sessions in each of four ways with
// work in flight — a BYE while an experiment streams, an idle reap, a
// stream closed mid-EXCHANGE, and a datagram newcomer taking over the
// address — and requires each to leave no goroutine behind. It also pins
// what an open session costs: one server goroutine, its reader, once it
// has only pinged. It runs alone in a child process (runAlone).
func TestServerGoroutineHygiene(t *testing.T) {
	if os.Getenv(hygieneChildEnv) == "" {
		runAlone(t, "TestServerGoroutineHygiene")
		return
	}
	srv := newServer(t, shieldd.ServerConfig{})
	idle := newServer(t, shieldd.ServerConfig{IdleTimeout: 100 * time.Millisecond})
	nw := faultnet.New(71, faultnet.Impairment{})
	defer nw.Close()
	pkt := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	servers := []*shieldd.Server{srv, idle, pkt}

	// Warm-up sessions on both transports build the lazy singletons and
	// prove every listener goroutine runs. The baseline is the goroutine
	// count once they are gone and it has held still for a while.
	warm, err := srv.Pipe(shieldd.SessionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Exchange(0, wire.CmdInterrogate); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	wp := newRawPeer(t, nw, "warm")
	link, _, _ := establish(t, wp, 9)
	if _, ok := wp.request(link, 2, &wire.Bye{}, 5*time.Second).(*wire.Bye); !ok {
		t.Fatal("warm-up BYE unanswered")
	}
	baseline := quietGoroutines(t, servers...)

	// A session that has only pinged: the client's read loop and the
	// server's reader.
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	settle(t, "a pinged session", baseline+2)
	c.Close()
	settle(t, "a pinged session's BYE", baseline, servers...)

	// A BYE while an experiment streams: answered after the experiment.
	{
		c, err := srv.Pipe(shieldd.SessionOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		streaming := make(chan struct{})
		var once sync.Once
		done := make(chan error, 1)
		go func() {
			_, err := c.ExperimentStream(wire.ExperimentReq{Name: "fig7", Seed: 1, Trials: 2 * 64, Quick: true},
				func(*wire.ExperimentProgress) { once.Do(func() { close(streaming) }) })
			done <- err
		}()
		<-streaming
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("experiment under a BYE: %v", err)
		}
		settle(t, "a BYE while an experiment streams", baseline, servers...)
	}

	// An idle reap of a session whose exchange waits above a gap.
	conn, send := rawStream(t, idle)
	send(2, &wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate})
	settle(t, "an idle reap", baseline, servers...)
	conn.Close()
	if got := idle.Metrics().ReapedSessions; got != 1 {
		t.Fatalf("reaped %d sessions, want 1", got)
	}

	// A stream closed while its exchange runs.
	conn, send = rawStream(t, srv)
	send(1, &wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate})
	conn.Close()
	settle(t, "a stream closed mid-EXCHANGE", baseline, servers...)

	// A datagram newcomer taking over the address of a session that runs
	// an experiment.
	{
		p := newRawPeer(t, nw, "owner")
		old, _, _ := establish(t, p, 1)
		p.send(dgram.KindSealed, old.Seal(wire.EncodeEnvelopeV3(2, 0, 1,
			&wire.ExperimentReq{Name: "fig7", Seed: 1, Trials: 2 * 64, Quick: true})))
		newcomer := newRawAKE(t, 2, nil, nil)
		p.cookieRound(newcomer.hello)
		ch, ack := p.retransmitUntilChallenge(newcomer.hello)
		link, _, _, _ := newcomer.finish(t, ch, ack)
		if !p.ping(link, 1, 5*time.Second) {
			t.Fatal("newcomer's session did not complete")
		}
		if _, ok := p.request(link, 2, &wire.Bye{}, 5*time.Second).(*wire.Bye); !ok {
			t.Fatal("newcomer's BYE unanswered")
		}
		p.dc.Close()
		settle(t, "a datagram newcomer", baseline, servers...)
	}
}

// clientGoroutines counts the goroutines running a Client method.
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "shieldd.(*Client).") {
			n++
		}
	}
	return n
}

// TestClientSessionGoroutines pins what an open client costs once it
// has pinged: one goroutine, its read loop, on either transport. A
// datagram client's retry timer is a time.AfterFunc, which holds no
// goroutine while it waits.
func TestClientSessionGoroutines(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	nw := faultnet.New(74, faultnet.Impairment{})
	defer nw.Close()
	startPacketServer(t, nw, "server", shieldd.ServerConfig{})

	sc, err := srv.Pipe(shieldd.SessionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for i, name := range []string{"a stream client", "and a datagram client"} {
		c := sc
		if i == 1 {
			c = dialPacket(t, nw, "pin-client", "server", shieldd.SessionOptions{Seed: 1})
			defer c.Close()
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Minute)
		for n := clientGoroutines(); n != i+1; n = clientGoroutines() {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s that pinged: %d client goroutines, want %d:\n%s",
					name, n, i+1, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
}

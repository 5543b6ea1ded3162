package shieldd

import (
	"errors"
	"sync"
	"testing"

	"heartshield/internal/wire"
)

// openSession opens an in-process session and registers its Close.
func openSession(t *testing.T, srv *Server, opt SessionOptions) *Client {
	t.Helper()
	c, err := srv.Pipe(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// A session that never runs physics never builds a world: pings, a
// metrics scrape and an experiment build none. Its first exchange builds
// the one world its later physics requests share.
func TestWorldlessSessionBuildsNoWorld(t *testing.T) {
	srv, err := NewServer(ServerConfig{Secret: []byte("world-test")})
	if err != nil {
		t.Fatal(err)
	}
	c := openSession(t, srv, SessionOptions{Seed: 40})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Metrics(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Experiment(wire.ExperimentReq{Name: "battery", Seed: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if n := srv.Metrics().TotalWorlds; n != 0 {
		t.Fatalf("%d worlds built by a session that ran no physics, want 0", n)
	}
	for _, cmd := range []uint8{wire.CmdInterrogate, wire.CmdSetTherapy} {
		if _, err := c.Exchange(0, cmd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Attack(wire.CmdSetTherapy, true); err != nil {
		t.Fatal(err)
	}
	if n := srv.Metrics().TotalWorlds; n != 1 {
		t.Fatalf("%d worlds built by a session that ran two exchanges and an attack, want 1", n)
	}
}

// The world is built inside the work budget its first physics request
// holds: with the whole budget taken by a running experiment, another
// session's first EXCHANGE is answered BUSY and builds nothing.
func TestBusyFirstExchangeBuildsNoWorld(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Secret: []byte("world-test"), MaxInFlightGlobal: 1, ExperimentWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	holder := openSession(t, srv, SessionOptions{Seed: 50})
	late := openSession(t, srv, SessionOptions{Seed: 51, Location: 2})

	// The experiment's first progress frame shows it holds the budget.
	// Its callback then stalls the holder's read loop. The server buffers
	// no outgoing frame: the experiment's goroutine writes each of its
	// requestWindow+3 progress frames itself, and a net.Pipe write returns
	// only once the client has read the frame, so the experiment blocks on
	// its second frame and cannot finish and release the budget until the
	// callback returns.
	trials := (requestWindow + 3) * progressChunk
	running, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	expDone := make(chan error, 1)
	go func() {
		_, err := holder.ExperimentStream(wire.ExperimentReq{Name: "fig7", Seed: 1, Trials: int32(trials), Workers: 2},
			func(*wire.ExperimentProgress) {
				first.Do(func() {
					close(running)
					<-release
				})
			})
		expDone <- err
	}()
	select {
	case <-running:
	case err := <-expDone:
		t.Fatalf("experiment ended before its first progress frame: %v", err)
	}
	// Go sends the request once: a BUSY answer is not retried.
	_, err = late.Go(&wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate}).Wait()
	close(release)
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("first exchange with the work budget held: err %v, want ErrServerBusy", err)
	}
	if err := <-expDone; err != nil {
		t.Fatalf("held experiment: %v", err)
	}
	if n := srv.Metrics().TotalWorlds; n != 0 {
		t.Fatalf("%d worlds built after the only exchange was shed, want 0", n)
	}
	// The experiment has released the budget, so the next exchange runs
	// and builds the session's world.
	if _, err := late.Exchange(0, wire.CmdInterrogate); err != nil {
		t.Fatalf("exchange after the budget freed: %v", err)
	}
	if n := srv.Metrics().TotalWorlds; n != 1 {
		t.Fatalf("%d worlds built after the exchange that followed the shed one, want 1", n)
	}
}

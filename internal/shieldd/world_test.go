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

// pooledAfterTeardown opens a session of a shape nothing else used, so
// it builds no world and takes nothing from the pool, and waits for its
// first reply. On a server whose every session slot but one is held,
// that reply means the session that freed the slot has finished its
// teardown, which returns a scenario to the pool before it frees the
// slot. It reports the pool depth at that point.
func pooledAfterTeardown(t *testing.T, srv *Server, location int) int {
	t.Helper()
	probe := openSession(t, srv, SessionOptions{Seed: 99, Location: location})
	if err := probe.Ping(); err != nil {
		t.Fatal(err)
	}
	return srv.Metrics().PooledScenarios
}

// A session that never runs physics never builds a world: pings, a
// metrics scrape and an experiment take no scenario, so the session's
// teardown returns none to the pool.
func TestWorldlessSessionPoolsNothing(t *testing.T) {
	srv, err := NewServer(ServerConfig{Secret: []byte("world-test"), MaxSessions: 1})
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
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := pooledAfterTeardown(t, srv, 2); n != 0 {
		t.Fatalf("%d scenarios pooled after a session that ran no physics, want 0", n)
	}
}

// The world is built inside the work budget its first physics request
// holds: with the whole budget taken by a running experiment, another
// session's first EXCHANGE is answered BUSY and builds nothing.
func TestBusyFirstExchangeBuildsNoWorld(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Secret: []byte("world-test"), MaxSessions: 2, MaxInFlightGlobal: 1, ExperimentWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	holder := openSession(t, srv, SessionOptions{Seed: 50})
	late := openSession(t, srv, SessionOptions{Seed: 51, Location: 2})

	// The experiment's first progress frame shows it holds the budget.
	// Its callback then stalls the holder's read loop, so the server's
	// writer stalls on its next frame. The experiment sends
	// requestWindow+3 progress frames: past the one the callback holds,
	// the one in the writer's hand and the requestWindow+1 its queue
	// takes, its final answer blocks, so it cannot finish and release the
	// budget until the callback returns.
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
	// The holder keeps its slot, so the probe is admitted only once the
	// shed session's teardown has run.
	if err := late.Close(); err != nil {
		t.Fatal(err)
	}
	if n := pooledAfterTeardown(t, srv, 3); n != 0 {
		t.Fatalf("%d scenarios pooled after a session whose only exchange was shed, want 0", n)
	}
}

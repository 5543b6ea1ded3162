package shieldd_test

import (
	"sync"
	"testing"

	"heartshield"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
)

// TestConcurrentSessionsAndExperiments is the -race target: 32 concurrent
// shieldd sessions (sharing one server, the slot semaphore, and the
// process-wide sample arena and modem) while an 8-worker experiment
// fan-out runs in the same process. Any scenario/channel state leaking
// across sessions or workers shows up here as a data race or as a
// per-seed result divergence.
//
// It runs (fast) under plain `go test` too; `make ci` runs it under
// -race explicitly.
func TestConcurrentSessionsAndExperiments(t *testing.T) {
	const nSessions = 32
	srv := newServer(t, shieldd.ServerConfig{MaxSessions: 8, ExperimentWorkers: 8})

	// Expected per-seed results, computed serially up front.
	want := make([]float64, nSessions)
	for i := range want {
		want[i] = localPair(int64(i + 1)).BER0
	}

	var wg sync.WaitGroup

	// The parallel experiment runner shares the process with the session
	// goroutines; its output must stay byte-identical to the serial run.
	expSerial, err := heartshield.RunExperiment("fig8", heartshield.ExperimentConfig{Seed: 42, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	var expParallel heartshield.Result
	go func() {
		defer wg.Done()
		var err error
		expParallel, err = heartshield.RunExperiment("fig8", heartshield.ExperimentConfig{Seed: 42, Trials: 2, Workers: 8})
		if err != nil {
			t.Error(err)
		}
	}()

	errs := make([]error, nSessions)
	got := make([]float64, nSessions)
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := srv.Pipe(shieldd.SessionOptions{Seed: int64(i + 1)})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			r, err := c.Exchange(0, wire.CmdInterrogate)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = r.EavesBER
		}(i)
	}
	wg.Wait()

	for i := 0; i < nSessions; i++ {
		if errs[i] != nil {
			t.Errorf("session %d: %v", i, errs[i])
			continue
		}
		if got[i] != want[i] {
			t.Errorf("session %d (seed %d): BER %v != serial %v", i, i+1, got[i], want[i])
		}
	}
	if expParallel != nil && expParallel.Render() != expSerial.Render() {
		t.Error("8-worker experiment run diverged from serial while sessions were active")
	}
}

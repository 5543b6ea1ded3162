package shieldd_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
)

// chaosExchanges is the per-session exchange count of the chaos soak.
const chaosExchanges = 4

// chaosResp is one exchange response in comparable form: the payload
// bytes as a string, the command, and the exact float64 values.
// Byte-identical means these compare equal field-for-field.
type chaosResp struct {
	Response string
	Command  string
	BER      float64
	Cancel   float64
}

// chaosReport is one session's observable result stream, in order.
type chaosReport [chaosExchanges]chaosResp

// runChaosSession drives one session's fixed exchange script (alternate
// interrogate / set-therapy) and returns its report.
func runChaosSession(c *shieldd.Client) (chaosReport, error) {
	var rep chaosReport
	for i := 0; i < chaosExchanges; i++ {
		cmd := wire.CmdInterrogate
		if i%2 == 1 {
			cmd = wire.CmdSetTherapy
		}
		r, err := c.Exchange(0, cmd)
		if err != nil {
			return rep, fmt.Errorf("exchange %d: %w", i, err)
		}
		rep[i] = chaosResp{
			Response: string(r.Response),
			Command:  r.ResponseCommand,
			BER:      r.EavesBER,
			Cancel:   r.CancellationDB,
		}
	}
	return rep, nil
}

// TestChaosUDPSessions is the chaos soak wall: 32 concurrent datagram
// sessions through a fault network that drops 10%, duplicates 5%, and
// reorders 5% of all datagrams (plus occasional corruption), asserting
//
//   - every exchange eventually completes (the retry/dedup layer hides
//     the loss),
//   - each session's report stream is byte-identical to the loss-free
//     in-process run at the same seed (exactly-once execution: a
//     retransmitted request must never re-run against the scenario),
//   - the securelink receive window finally sees real traffic: across
//     the fleet, replay drops (duplicates) and window accepts
//     (reordering) are both nonzero, server- and client-side.
//
// The impairment schedule is deterministic per (network seed, flow), so
// the same run can be replayed exactly; it also runs under -race via
// the make race leg.
func TestChaosUDPSessions(t *testing.T) {
	const nSessions = 32
	imp := faultnet.Impairment{
		Drop:    0.10,
		Dup:     0.05,
		Reorder: 0.05,
		Corrupt: 0.01,
	}
	nw := faultnet.New(424242, imp)
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{MaxSessions: nSessions})

	// Loss-free expectation per seed, via the in-process pipe path on
	// the same server.
	want := make([]chaosReport, nSessions)
	for i := range want {
		c, err := srv.Pipe(shieldd.SessionOptions{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = runChaosSession(c)
		if err != nil {
			t.Fatalf("loss-free session %d: %v", i, err)
		}
		_ = c.Close()
	}

	got := make([]chaosReport, nSessions)
	mets := make([]*wire.MetricsResp, nSessions)
	transports := make([]shieldd.TransportStats, nSessions)
	errs := make([]error, nSessions)
	var wg sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pc, err := nw.Listen(fmt.Sprintf("chaos-client-%02d", i))
			if err != nil {
				errs[i] = err
				return
			}
			c, err := shieldd.NewPacketClient(pc, faultnet.Addr("server"), testSecret, shieldd.SessionOptions{
				Seed:         int64(i + 1),
				RetryTimeout: 15 * time.Millisecond,
				MaxRetries:   12,
			})
			if err != nil {
				pc.Close()
				errs[i] = fmt.Errorf("dial: %w", err)
				return
			}
			defer c.Close()
			got[i], errs[i] = runChaosSession(c)
			if errs[i] == nil {
				mets[i], errs[i] = c.Metrics()
			}
			transports[i] = c.TransportStats()
		}(i)
	}
	wg.Wait()

	var sumReplay, sumWindow, sumSrvRetrans, sumCliRetrans uint64
	for i := 0; i < nSessions; i++ {
		if errs[i] != nil {
			t.Errorf("session %d: %v", i, errs[i])
			continue
		}
		if got[i] != want[i] {
			t.Errorf("session %d (seed %d): chaos report diverged from loss-free run\n got %+v\nwant %+v",
				i, i+1, got[i], want[i])
		}
		if mets[i].Get("exchanges") != chaosExchanges {
			t.Errorf("session %d executed %d exchanges, want exactly %d (dedup must stop re-execution)",
				i, mets[i].Get("exchanges"), chaosExchanges)
		}
		sumReplay += mets[i].Get("replayDrops")
		sumWindow += mets[i].Get("windowAccepts")
		sumSrvRetrans += mets[i].Get("retransmits")
		sumCliRetrans += transports[i].Retransmits
	}

	// The receive window must have been genuinely exercised: with 5%
	// duplication the server sees replays, and with 5% reordering it
	// accepts frames out of order. Summed over 32 sessions these are
	// never zero unless the impairment layer is disconnected.
	if sumReplay == 0 {
		t.Error("no securelink replay drops across 32 impaired sessions: duplicates never reached the window")
	}
	if sumWindow == 0 {
		t.Error("no securelink window accepts across 32 impaired sessions: reordering never reached the window")
	}
	if sumCliRetrans == 0 {
		t.Error("no client retransmits across 32 impaired sessions at 10% drop")
	}
	t.Logf("chaos fleet: server replayDrops=%d windowAccepts=%d cachedResends=%d clientRetransmits=%d",
		sumReplay, sumWindow, sumSrvRetrans, sumCliRetrans)

	// Each session's metrics were snapshotted before its BYE, so the
	// server-wide counter (which keeps counting cached resends of late
	// duplicates and of the BYE itself) is at least the per-session sum.
	snap := srv.Metrics()
	if snap.TotalRetransmits < sumSrvRetrans {
		t.Errorf("server-wide retransmits %d < per-session sum %d", snap.TotalRetransmits, sumSrvRetrans)
	}
}

// TestChaosSpuriousRetransmitsAreHarmless forces the retry timer far
// below the exchange compute time on a PERFECT network, so nearly every
// request is retransmitted while its original is still executing. The
// dedup layer must drop every duplicate: results identical to the
// in-process run and exactly chaosExchanges executions.
func TestChaosSpuriousRetransmitsAreHarmless(t *testing.T) {
	nw := faultnet.New(7, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})

	p, err := srv.Pipe(shieldd.SessionOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runChaosSession(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Close()

	c := dialPacket(t, nw, "eager-client", "server", shieldd.SessionOptions{
		Seed: 9, RetryTimeout: time.Millisecond, MaxRetries: 40,
	})
	defer c.Close()
	got, err := runChaosSession(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("spurious retransmits changed results:\n got %+v\nwant %+v", got, want)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("exchanges") != chaosExchanges {
		t.Errorf("%d exchanges executed, want %d: a duplicate was re-executed", m.Get("exchanges"), chaosExchanges)
	}
	if ts := c.TransportStats(); ts.Retransmits == 0 {
		t.Error("1ms retry timer produced zero retransmits: the retry layer is not engaged")
	}
}

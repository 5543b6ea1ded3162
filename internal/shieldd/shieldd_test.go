package shieldd_test

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"heartshield"
	"heartshield/internal/shieldd"
	"heartshield/internal/testbed"
	"heartshield/internal/wire"
)

var testSecret = []byte("provisioned-master-secret")

func newServer(t *testing.T, cfg shieldd.ServerConfig) *shieldd.Server {
	t.Helper()
	if cfg.Secret == nil {
		cfg.Secret = testSecret
	}
	srv, err := shieldd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// exchangePair is the observable result stream of a session: two
// exchanges (interrogate, then set-therapy), as the acceptance test runs
// them both locally and remotely.
type exchangePair struct {
	BER0, Cancel0 float64
	BER1, Cancel1 float64
	Payload0      string
}

// localPair computes the expected pair via the public in-process path.
func localPair(seed int64) exchangePair {
	sim := heartshield.NewSimulation(heartshield.SimOptions{Seed: seed})
	a, err := sim.ProtectedExchange(heartshield.Interrogate)
	if err != nil {
		panic(err)
	}
	b, err := sim.ProtectedExchange(heartshield.SetTherapy)
	if err != nil {
		panic(err)
	}
	return exchangePair{
		BER0: a.EavesdropperBER, Cancel0: a.CancellationDB, Payload0: string(a.Response),
		BER1: b.EavesdropperBER, Cancel1: b.CancellationDB,
	}
}

// clientPair runs the same two exchanges through a connected client.
func clientPair(t *testing.T, c *shieldd.Client) exchangePair {
	t.Helper()
	a, err := c.Exchange(0, wire.CmdInterrogate)
	if err != nil {
		t.Fatalf("interrogate: %v", err)
	}
	b, err := c.Exchange(0, wire.CmdSetTherapy)
	if err != nil {
		t.Fatalf("set-therapy: %v", err)
	}
	return exchangePair{
		BER0: a.EavesBER, Cancel0: a.CancellationDB, Payload0: string(a.Response),
		BER1: b.EavesBER, Cancel1: b.CancellationDB,
	}
}

// A shieldd session must produce, per session seed, exactly the numbers
// the public in-process Simulation produces — the wire, the sealing, the
// scenario pool, the server goroutines, and whatever the session sent
// before the first exchange that builds its world must all be
// unobservable.
func TestSessionMatchesInProcessSimulation(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	// Requests that run no physics, and a batch refused for an
	// out-of-range implant index.
	noPhysics := func(t *testing.T, c *shieldd.Client) {
		for i := 0; i < 3; i++ {
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Metrics(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.BatchExchange([]wire.ExchangeItem{{IMD: 0}, {IMD: 1}}); err == nil {
			t.Fatal("batch with an out-of-range implant index accepted")
		}
	}
	for _, tc := range []struct {
		seed   int64
		before func(*testing.T, *shieldd.Client)
	}{
		{1, nil},
		{2, nil},
		{7, nil},
		{11, noPhysics},
	} {
		want := localPair(tc.seed)
		c, err := srv.Pipe(shieldd.SessionOptions{Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if tc.before != nil {
			tc.before(t, c)
		}
		got := clientPair(t, c)
		c.Close()
		if got != want {
			t.Errorf("seed %d: remote %+v != local %+v", tc.seed, got, want)
		}
	}
}

// Recycled scenarios must be unobservable: with one session slot,
// back-to-back sessions at the same seed — each admitted only after the
// previous one returned its scenario, so it rides a recycled testbed —
// must agree with the first.
func TestPoolRecyclingIsUnobservable(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{MaxSessions: 1})
	want := localPair(5)
	for round := 0; round < 3; round++ {
		c, err := srv.Pipe(shieldd.SessionOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		got := clientPair(t, c)
		c.Close()
		if got != want {
			t.Errorf("round %d: %+v != %+v", round, got, want)
		}
	}
	// The server's scenario return runs after its side of the BYE
	// exchange; give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().PooledScenarios == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no scenarios pooled after sessions ended")
		}
		time.Sleep(time.Millisecond)
	}
}

// The acceptance criterion: a shieldd server driven over TCP by 32
// concurrent clients — each PIPELINING its requests over one v2
// connection instead of waiting request-by-request — completes every
// exchange with the same EavesdropperBER/CancellationDB per session seed
// as the in-process path. Pipelining must be unobservable in the
// results: the per-session executor runs exchanges in arrival order.
func TestTCP32ConcurrentClients(t *testing.T) {
	const nClients = 32
	want := make([]exchangePair, nClients)
	for i := range want {
		want[i] = localPair(int64(i + 1))
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer l.Close()
	// MaxSessions below the client count so slot queueing is exercised.
	srv := newServer(t, shieldd.ServerConfig{MaxSessions: 8})
	go srv.Serve(l)

	got := make([]exchangePair, nClients)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := shieldd.Dial(l.Addr().String(), testSecret, shieldd.SessionOptions{Seed: int64(i + 1)})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			// Both exchanges are submitted before either response is
			// awaited: two requests in flight on one connection.
			callA := c.Go(&wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate})
			callB := c.Go(&wire.ExchangeReq{IMD: 0, Cmd: wire.CmdSetTherapy})
			ra, err := callA.Wait()
			if err != nil {
				errs[i] = fmt.Errorf("interrogate: %w", err)
				return
			}
			rb, err := callB.Wait()
			if err != nil {
				errs[i] = fmt.Errorf("set-therapy: %w", err)
				return
			}
			a, b := ra.(*wire.ExchangeResp), rb.(*wire.ExchangeResp)
			got[i] = exchangePair{
				BER0: a.EavesBER, Cancel0: a.CancellationDB, Payload0: string(a.Response),
				BER1: b.EavesBER, Cancel1: b.CancellationDB,
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < nClients; i++ {
		if errs[i] != nil {
			t.Errorf("client %d: %v", i, errs[i])
			continue
		}
		if got[i] != want[i] {
			t.Errorf("client %d (seed %d): remote %+v != local %+v", i, i+1, got[i], want[i])
		}
	}
}

// Batched multi-IMD sessions: every implant is reachable by index, the
// streams are deterministic per seed, and out-of-range indices are
// rejected without killing the session.
func TestMultiIMDSession(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	run := func() [3]float64 {
		c, err := srv.Pipe(shieldd.SessionOptions{Seed: 9, ExtraIMDs: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var bers [3]float64
		for i := 0; i < 3; i++ {
			r, err := c.Exchange(i, wire.CmdInterrogate)
			if err != nil {
				t.Fatalf("imd %d: %v", i, err)
			}
			if len(r.Response) == 0 {
				t.Fatalf("imd %d: empty response", i)
			}
			bers[i] = r.EavesBER
		}
		if _, err := c.Exchange(7, wire.CmdInterrogate); err == nil {
			t.Fatal("out-of-range IMD index accepted")
		}
		// The session must survive the rejected request.
		if _, err := c.Exchange(0, wire.CmdInterrogate); err != nil {
			t.Fatalf("session died after rejected request: %v", err)
		}
		return bers
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("multi-IMD session not deterministic: %v vs %v", a, b)
	}
	for i, ber := range a {
		if ber < 0.35 {
			t.Errorf("imd %d: eavesdropper BER %.3f — jamming not protecting this implant", i, ber)
		}
	}

	// Retargeting lives in testbed.World: a session walking the implants
	// out of order must equal a World driven with the same calls.
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 9, ExtraIMDs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := testbed.NewWorld(testbed.NewScenario(testbed.Options{Seed: 9, ExtraIMDs: 2}))
	for step, idx := range []int{0, 2, 1, 0} {
		out, err := w.Exchange(idx, false)
		if err != nil {
			t.Fatalf("step %d: world exchange with imd %d: %v", step, idx, err)
		}
		got, err := c.Exchange(idx, wire.CmdInterrogate)
		if err != nil {
			t.Fatalf("step %d: session exchange with imd %d: %v", step, idx, err)
		}
		want := wire.ExchangeResp{
			Response:        out.Response.Payload,
			ResponseCommand: out.Response.Command.String(),
			EavesBER:        out.EavesdropperBER,
			CancellationDB:  out.CancellationDB,
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("step %d (imd %d): session %+v != world %+v", step, idx, *got, want)
		}
	}
}

// Attack trials and experiments over the wire must match their in-process
// equivalents.
func TestRemoteAttackAndExperiment(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{ExperimentWorkers: 4})
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 3, Location: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sim := heartshield.NewSimulation(heartshield.SimOptions{Seed: 3, Location: 2})
	wantAtk := sim.Attack(heartshield.Interrogate, true)
	gotAtk, err := c.Attack(wire.CmdInterrogate, true)
	if err != nil {
		t.Fatal(err)
	}
	if gotAtk.IMDResponded != wantAtk.IMDResponded ||
		gotAtk.ShieldJammed != wantAtk.ShieldJammed ||
		gotAtk.Alarmed != wantAtk.Alarmed ||
		gotAtk.AdversaryRSSIDBm != wantAtk.AdversaryRSSIDBm {
		t.Errorf("attack over wire %+v != local %+v", gotAtk, wantAtk)
	}

	wantRes, err := heartshield.RunExperiment("fig3", heartshield.ExperimentConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	gotRen, err := c.Experiment(wire.ExperimentReq{Name: "fig3", Seed: 1, Quick: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if gotRen != wantRes.Render() {
		t.Errorf("remote experiment render diverges:\n--- remote ---\n%s\n--- local ---\n%s", gotRen, wantRes.Render())
	}

	if _, err := c.Experiment(wire.ExperimentReq{Name: "no-such-figure"}); err == nil {
		t.Error("unknown experiment accepted")
	}

	st, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if st.Get("server.active") < 1 || st.Get("server.experiments") < 1 {
		t.Errorf("server counters implausible: %+v", st)
	}
}

// A client with the wrong master secret must fail the handshake: its
// HELLO is accepted (it is plaintext) but the sealed HELLO-ACK can never
// open on its mis-derived link.
func TestWrongSecretFailsHandshake(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	defer cEnd.Close()
	if _, err := shieldd.NewClient(cEnd, []byte("not-the-secret"), shieldd.SessionOptions{Seed: 1}); err == nil {
		t.Fatal("handshake succeeded with the wrong secret")
	}
}

// Out-of-range session options are refused, never mapped onto another
// world. The client refuses a Location or ExtraIMDs that does not fit
// its single HELLO byte before sending it, naming the field (a Location
// of 257 would otherwise arrive as location 1); the server refuses more
// implants than it allows before any scenario is built.
func TestHelloValidation(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{MaxExtraIMDs: 2})
	for _, tc := range []struct {
		opt  shieldd.SessionOptions
		want string
	}{
		{shieldd.SessionOptions{Seed: 1, ExtraIMDs: 5}, "exceeds server limit"},
		{shieldd.SessionOptions{Seed: 9, Location: 257}, "SessionOptions.Location"},
		{shieldd.SessionOptions{Seed: 9, Location: -255}, "SessionOptions.Location"},
		{shieldd.SessionOptions{Seed: 9, Location: 19}, "SessionOptions.Location"},
		{shieldd.SessionOptions{Seed: 9, ExtraIMDs: 264}, "SessionOptions.ExtraIMDs"},
		{shieldd.SessionOptions{Seed: 9, ExtraIMDs: -1}, "SessionOptions.ExtraIMDs"},
	} {
		c, err := srv.Pipe(tc.opt)
		if err == nil {
			c.Close()
			t.Errorf("Location %d, ExtraIMDs %d: session opened", tc.opt.Location, tc.opt.ExtraIMDs)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Location %d, ExtraIMDs %d: error %q does not contain %q",
				tc.opt.Location, tc.opt.ExtraIMDs, err, tc.want)
		}
	}
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 9, Location: len(testbed.Locations)})
	if err != nil {
		t.Fatalf("last location refused: %v", err)
	}
	c.Close()
}

// BenchmarkSessionExchange measures one protected exchange through the
// full service path (wire framing + securelink sealing + session server)
// over an in-process pipe; compare with the in-process
// BenchmarkProtectedExchange at the repo root.
func BenchmarkSessionExchange(b *testing.B) {
	srv, err := shieldd.NewServer(shieldd.ServerConfig{Secret: testSecret})
	if err != nil {
		b.Fatal(err)
	}
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exchange(0, wire.CmdInterrogate); err != nil {
			b.Fatal(err)
		}
	}
}

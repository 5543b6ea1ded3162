package heartshield_test

import (
	"net"
	"reflect"
	"strings"
	"testing"

	"heartshield"
	"heartshield/internal/wire"
)

// The public service API: Serve on a TCP listener, Dial from a client,
// and per-seed equivalence between the remote and in-process paths.
func TestServeDialRoundTrip(t *testing.T) {
	secret := []byte("public-api-secret")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer l.Close()
	go heartshield.Serve(l, heartshield.ServeOptions{Secret: secret})

	remote, err := heartshield.Dial(l.Addr().String(), secret,
		heartshield.DialOptions{SimOptions: heartshield.SimOptions{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	local := heartshield.NewSimulation(heartshield.SimOptions{Seed: 4})
	want, err := local.ProtectedExchange(heartshield.Interrogate)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.ProtectedExchange(heartshield.Interrogate)
	if err != nil {
		t.Fatal(err)
	}
	if got.EavesdropperBER != want.EavesdropperBER || got.CancellationDB != want.CancellationDB ||
		string(got.Response) != string(want.Response) {
		t.Errorf("remote exchange %+v != local %+v", got, want)
	}

	st, err := remote.SessionMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if st.Get("server.exchanges") < 1 || st.Get("server.active") < 1 {
		t.Errorf("server counters implausible: %+v", st)
	}
}

// The in-process pipe transport: for every scenario variant and command,
// a session's exchanges and attacks equal NewSimulation's field for
// field, and a remotely executed experiment renders as the local one.
func TestServerPipeExperiment(t *testing.T) {
	srv, err := heartshield.NewServer(heartshield.ServeOptions{Secret: []byte("s"), ExperimentWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	variants := []heartshield.SimOptions{
		{Seed: 9},
		{Seed: 9, Location: 7},
		{Seed: 9, HighPowerAdversary: true},
		{Seed: 9, FlatJam: true},
		{Seed: 9, DigitalCancel: true},
		{Seed: 9, Concerto: true},
	}
	for _, opt := range variants {
		for _, kind := range []heartshield.CommandKind{heartshield.Interrogate, heartshield.SetTherapy} {
			local := heartshield.NewSimulation(opt)
			remote, err := srv.Pipe(heartshield.DialOptions{SimOptions: opt})
			if err != nil {
				t.Fatalf("%+v: %v", opt, err)
			}
			for i := 0; i < 3; i++ {
				want, wantErr := local.ProtectedExchange(kind)
				got, gotErr := remote.ProtectedExchange(kind)
				if (gotErr != nil) != (wantErr != nil) {
					t.Errorf("%+v kind %d exchange %d: remote error %v, local %v", opt, kind, i, gotErr, wantErr)
				} else if wantErr == nil && !reflect.DeepEqual(got, want) {
					t.Errorf("%+v kind %d exchange %d: remote %+v != local %+v", opt, kind, i, got, want)
				}
			}
			for _, shieldOn := range []bool{false, true} {
				want := local.Attack(kind, shieldOn)
				got, err := remote.Attack(kind, shieldOn)
				if err != nil {
					t.Fatalf("%+v kind %d attack: %v", opt, kind, err)
				}
				if got != want {
					t.Errorf("%+v kind %d attack (shield %v): remote %+v != local %+v", opt, kind, shieldOn, got, want)
				}
			}
			remote.Close()
		}
	}

	remote, err := srv.Pipe(heartshield.DialOptions{SimOptions: heartshield.SimOptions{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	want, err := heartshield.RunExperiment("battery", heartshield.ExperimentConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.RunExperiment("battery", heartshield.ExperimentConfig{Seed: 1, Quick: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Render() {
		t.Errorf("remote experiment diverges from local:\n--- remote ---\n%s\n--- local ---\n%s", got, want.Render())
	}
}

// A remote experiment's trial count reaches the server as asked or not
// at all: a count outside 0..wire.MaxExperimentTrials is refused before
// it is sent, naming the field, rather than cut to the wire's int32
// (1<<32 + 12 trials would run 12).
func TestRemoteExperimentConfigRange(t *testing.T) {
	srv, err := heartshield.NewServer(heartshield.ServeOptions{Secret: []byte("s")})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := srv.Pipe(heartshield.DialOptions{SimOptions: heartshield.SimOptions{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	for _, trials := range []int{1<<32 + 12, -1, wire.MaxExperimentTrials + 1} {
		_, err := remote.RunExperiment("battery", heartshield.ExperimentConfig{Seed: 1, Quick: true, Trials: trials})
		if err == nil || !strings.Contains(err.Error(), "ExperimentConfig.Trials") {
			t.Errorf("Trials %d: err %v, want a refusal naming ExperimentConfig.Trials", trials, err)
		}
	}
	st, err := remote.SessionMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Get("experiments"); n != 0 {
		t.Errorf("%d refused experiments reached the server", n)
	}
}

// The public datagram API: ServePacket on a UDP socket, DialUDP from a
// client, per-seed equivalence with the in-process path, and the
// transport-retry observability surface (SessionMetrics/TransportStats).
func TestServePacketDialUDPRoundTrip(t *testing.T) {
	secret := []byte("public-udp-secret")
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot open UDP loopback: %v", err)
	}
	srv, err := heartshield.NewServer(heartshield.ServeOptions{Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServePacket(pc)

	remote, err := heartshield.DialUDP(pc.LocalAddr().String(), secret,
		heartshield.DialOptions{SimOptions: heartshield.SimOptions{Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	local := heartshield.NewSimulation(heartshield.SimOptions{Seed: 6})
	want, err := local.ProtectedExchange(heartshield.SetTherapy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.ProtectedExchange(heartshield.SetTherapy)
	if err != nil {
		t.Fatal(err)
	}
	if got.EavesdropperBER != want.EavesdropperBER || got.CancellationDB != want.CancellationDB ||
		string(got.Response) != string(want.Response) {
		t.Errorf("UDP exchange %+v != local %+v", got, want)
	}
	if err := remote.Ping(); err != nil {
		t.Errorf("ping over UDP: %v", err)
	}

	m, err := remote.SessionMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("exchanges") != 1 || m.Get("pings") != 1 {
		t.Errorf("session metrics %+v: want 1 exchange, 1 ping", m)
	}
	// Loopback UDP is effectively loss-free: no retries should have
	// been needed, and the counters must exist to say so.
	if ts := remote.TransportStats(); ts.Timeouts != 0 {
		t.Errorf("transport stats on loopback: %+v", ts)
	}
}

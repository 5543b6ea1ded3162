package shieldd_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/metrics"
	"heartshield/internal/securelink"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// forgedFrame is what an off-path attacker spoofing a client's address
// can send into its session: a forward sequence number and garbage
// ciphertext, which fails authentication.
func forgedFrame(seq uint64) []byte {
	return append(binary.BigEndian.AppendUint64(nil, seq), bytes.Repeat([]byte{0xA5}, 48)...)
}

// Frames that fail authentication are not activity: the client's
// address is spoofable, so forged datagrams sent from it must not keep
// an idle session (and its slot and scenario) from being reaped.
func TestForgedDatagramsDoNotHoldSession(t *testing.T) {
	nw := faultnet.New(71, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{IdleTimeout: 200 * time.Millisecond})
	p := newRawPeer(t, nw, "victim")
	establish(t, p, 1)

	deadline := time.Now().Add(1500 * time.Millisecond)
	for seq := uint64(100); srv.Metrics().ReapedSessions == 0; seq++ {
		if time.Now().After(deadline) {
			t.Fatalf("forged frames every 40 ms held an idle session open for 1.5 s: %v", srv.Metrics())
		}
		p.send(dgram.KindSealed, forgedFrame(seq))
		time.Sleep(40 * time.Millisecond)
	}
}

// Every forged frame that reaches a session is counted, once: per
// session as the authFails row of STATUS-METRICS and, when the session
// ends, server-wide.
func TestForgedDatagramsCountAuthFails(t *testing.T) {
	nw := faultnet.New(72, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	p := newRawPeer(t, nw, "victim")
	link, _, _ := establish(t, p, 1)

	const forged = 5
	for i := uint64(0); i < forged; i++ {
		p.send(dgram.KindSealed, forgedFrame(100+i))
	}
	// The session reader takes frames in order, so the STATUS-METRICS
	// answer follows the judgement of every forged frame.
	m, ok := p.request(link, 2, &wire.MetricsReq{}, 5*time.Second).(*wire.MetricsResp)
	if !ok {
		t.Fatal("STATUS-METRICS unanswered")
	}
	if got := m.Get("authFails"); got != forged {
		t.Errorf("session authFails = %d, want %d", got, forged)
	}
	if p.request(link, 3, &wire.Bye{}, 5*time.Second) == nil {
		t.Fatal("BYE unanswered")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().ActiveSessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session did not end after BYE")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Metrics().AuthFails; got != forged {
		t.Errorf("server AuthFails = %d, want %d", got, forged)
	}
}

// Every declared counter reaches every reader: the -metrics dump line,
// a session's STATUS-METRICS frame (session and link counters unscoped,
// the server's under metrics.ServerScope, no name twice), and the
// ServerMetrics JSON.
func TestEveryCounterReachesEveryReader(t *testing.T) {
	srv := newServer(t, shieldd.ServerConfig{})
	c, err := srv.Pipe(shieldd.SessionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, r := range frame.Counters {
		if rows[r.Name] {
			t.Errorf("STATUS-METRICS carries %q twice", r.Name)
		}
		rows[r.Name] = true
	}

	var want []string
	collect := func(name string, _ uint64) { want = append(want, name) }
	metrics.Each(&metrics.Session{}, "", collect)
	metrics.Each(&securelink.Stats{}, "", collect)
	snap := srv.Metrics()
	line := " " + snap.String()
	metrics.Each(&snap, "", func(name string, _ uint64) {
		if !strings.Contains(line, " "+name+"=") {
			t.Errorf("dump line lacks %q: %s", name, line)
		}
		collect(metrics.ServerScope+name, 0)
	})
	for _, name := range want {
		if !rows[name] {
			t.Errorf("STATUS-METRICS lacks %q", name)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("STATUS-METRICS carries %d rows, the declarations %d", len(rows), len(want))
	}

	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(js, &keys); err != nil {
		t.Fatal(err)
	}
	st := reflect.TypeOf(snap)
	for i := 0; i < st.NumField(); i++ {
		if _, ok := keys[st.Field(i).Name]; !ok {
			t.Errorf("ServerMetrics JSON lacks %s", st.Field(i).Name)
		}
	}
}

package metrics

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"heartshield/internal/securelink"
)

// The in-flight high-water mark must capture the true maximum depth even
// under concurrent enter/leave storms.
func TestInFlightHighWaterMark(t *testing.T) {
	var s Session
	const depth = 7
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.EnterFlight()
			<-gate // hold every request in flight simultaneously
			s.LeaveFlight()
		}()
	}
	// Wait until all have entered.
	for s.InFlight() != depth {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if s.InFlight() != 0 {
		t.Fatalf("in-flight gauge = %d after all left", s.InFlight())
	}
	if got := s.InFlightHWM(); got != depth {
		t.Fatalf("high-water mark = %d, want %d", got, depth)
	}
}

func TestServerSnapshotString(t *testing.T) {
	var m Server
	m.TotalSessions.Add(3)
	m.ActiveSessions.Add(1)
	m.TotalExchanges.Add(42)
	m.ReapedSessions.Add(2)
	snap := m.Snapshot()
	snap.LiveSessions = 4
	snap.LiveInFlight = 9
	line := snap.String()
	for _, want := range []string{"sessions=3", "active=1", "reaped=2", "exchanges=42",
		"live=4", "inflight=9"} {
		if !strings.Contains(line, want) {
			t.Errorf("snapshot line %q missing %q", line, want)
		}
	}
}

// The registry's live sweep must aggregate exactly the registered
// sessions — totals track registration and unregistration, the HWM is
// the max over live sessions, and the sweep itself allocates nothing
// (the property BenchmarkMetricsSnapshot gates at 1024 sessions).
func TestRegistryLiveAggregate(t *testing.T) {
	r := NewRegistry()
	sessions := make([]*Session, 8)
	for i := range sessions {
		sessions[i] = &Session{}
		for j := 0; j <= i; j++ {
			sessions[i].EnterFlight()
		}
		r.Register(uint64(i+1), sessions[i])
	}
	live := r.Live()
	if live.Sessions != 8 {
		t.Fatalf("live sessions = %d, want 8", live.Sessions)
	}
	if want := int64(1 + 2 + 3 + 4 + 5 + 6 + 7 + 8); live.InFlight != want {
		t.Fatalf("live in-flight = %d, want %d", live.InFlight, want)
	}
	if live.InFlightHWM != 8 {
		t.Fatalf("live in-flight HWM = %d, want 8", live.InFlightHWM)
	}

	// Unregistered sessions drop out of the aggregate entirely.
	for i := 4; i < 8; i++ {
		r.Unregister(uint64(i + 1))
	}
	live = r.Live()
	if live.Sessions != 4 || r.Len() != 4 {
		t.Fatalf("live sessions = %d (Len %d) after unregister, want 4", live.Sessions, r.Len())
	}
	if want := int64(1 + 2 + 3 + 4); live.InFlight != want {
		t.Fatalf("live in-flight = %d after unregister, want %d", live.InFlight, want)
	}
	if live.InFlightHWM != 4 {
		t.Fatalf("live in-flight HWM = %d after unregister, want 4", live.InFlightHWM)
	}

	// The sweep is allocation-free.
	if allocs := testing.AllocsPerRun(100, func() { _ = r.Live() }); allocs != 0 {
		t.Fatalf("Live() allocates %.1f objects per sweep, want 0", allocs)
	}
}

// Each counter is declared once: every Server field has the snapshot
// field that documents and names it, every snapshot field but the
// scrape-time gauges has a Server field, and names are non-empty and
// unique within their scope. Session and link counters share the
// unscoped rows of STATUS-METRICS, so they share a scope.
func TestCounterDeclarations(t *testing.T) {
	srv, snap := reflect.TypeOf(Server{}), reflect.TypeOf(ServerSnapshot{})
	for i := 0; i < srv.NumField(); i++ {
		if _, ok := snap.FieldByName(srv.Field(i).Name); !ok {
			t.Errorf("Server.%s has no ServerSnapshot field", srv.Field(i).Name)
		}
	}
	gauges := map[string]bool{"LiveSessions": true, "LiveInFlight": true, "LiveInFlightHWM": true}
	for i := 0; i < snap.NumField(); i++ {
		f := snap.Field(i)
		if _, ok := srv.FieldByName(f.Name); !ok && !gauges[f.Name] {
			t.Errorf("ServerSnapshot.%s has no Server field", f.Name)
		}
		if f.Tag.Get("metric") == "" {
			t.Errorf("ServerSnapshot.%s has no metric name", f.Name)
		}
	}
	sess := reflect.TypeOf(Session{})
	for i := 0; i < sess.NumField(); i++ {
		if sess.Field(i).Tag.Get("metric") == "" {
			t.Errorf("Session.%s has no metric name", sess.Field(i).Name)
		}
	}

	for scope, decls := range map[string][]any{
		"server":  {&ServerSnapshot{}},
		"session": {&Session{}, &securelink.Stats{}},
	} {
		seen := map[string]bool{}
		for _, d := range decls {
			Each(d, "", func(name string, _ uint64) {
				if name == "" || seen[name] {
					t.Errorf("%s scope: name %q empty or declared twice", scope, name)
				}
				seen[name] = true
			})
		}
	}
}

// Snapshot copies every Server counter into its snapshot field, and Add
// reaches a Server counter by its name and ignores names it lacks.
func TestSnapshotAndAddFollowDeclarations(t *testing.T) {
	var m Server
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch c := v.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			c.Store(uint64(i + 1))
		case *atomic.Int64:
			c.Store(int64(i + 1))
		}
	}
	snap := m.Snapshot()
	sv := reflect.ValueOf(snap)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if got := sv.FieldByName(name).Convert(reflect.TypeOf(uint64(0))).Uint(); got != uint64(i+1) {
			t.Errorf("snapshot %s = %d, want %d", name, got, i+1)
		}
	}

	m.Add("authFails", 10)
	m.Add("noSuchCounter", 10)
	if got, want := m.Snapshot().Get("authFails"), snap.AuthFails+10; got != want {
		t.Errorf("after Add: authFails = %d, want %d", got, want)
	}
	var kept ServerSnapshot
	kept.Set("sessions", 7)
	kept.Set("live", 3)
	if kept.TotalSessions != 7 || kept.LiveSessions != 3 || kept.Get("live") != 3 {
		t.Errorf("Set by name: %+v", kept)
	}
}

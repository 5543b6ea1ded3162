// Package metrics declares the counters the shieldd session server
// exports, each once, and reads them by declaration.
//
// A server counter is a field of Server plus the ServerSnapshot field
// of the same name, whose doc describes it and whose `metric` tag names
// it. A session counter is a `metric`-tagged field of Session, and a
// link counter a tagged field of securelink.Stats. Every reader loops
// over those declarations instead of naming fields: taking a snapshot,
// adding a finished session's link counters to the server's (by name),
// the cmd/shieldd -metrics dump line, and the STATUS-METRICS frame. A
// new counter is therefore a declaration here and nothing else.
//
// Names are unique within their scope. A session's STATUS-METRICS frame
// carries the session and link counters unscoped and the server's under
// ServerScope; the client appends its transport counters under
// ClientScope.
//
// Everything is lock-free atomics, so handlers on the hot path pay one
// uncontended atomic add per event and snapshots can be taken from any
// goroutine at any time.
package metrics

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Name scopes of the rows a session's metrics carry beside its own.
const (
	// ServerScope prefixes the server-wide counters, so the session's
	// "exchanges" and the server's stay apart.
	ServerScope = "server."
	// ClientScope prefixes the client's transport counters.
	ClientScope = "client."
)

// Session counts one session's served requests and tracks its pipelining
// depth. Each `metric` tag names a row of the session's STATUS-METRICS
// frame. All methods are safe for concurrent use.
type Session struct {
	Exchanges        atomic.Uint64 `metric:"exchanges"` // single EXCHANGE frames
	Batches          atomic.Uint64 `metric:"batches"`   // BATCH-EXCHANGE frames
	BatchedExchanges atomic.Uint64 `metric:"batched"`   // exchanges inside those batches
	Attacks          atomic.Uint64 `metric:"attacks"`
	Experiments      atomic.Uint64 `metric:"experiments"`
	Pings            atomic.Uint64 `metric:"pings"`
	Errors           atomic.Uint64 `metric:"errors"`         // requests answered with an Error frame
	Retransmits      atomic.Uint64 `metric:"retransmits"`    // responses re-sent from the dedup cache
	Shed             atomic.Uint64 `metric:"shed"`           // requests answered BUSY by the admission gate
	ProgressFrames   atomic.Uint64 `metric:"progressFrames"` // streamed EXPERIMENT-PROGRESS frames

	inFlight    atomic.Int64 `metric:"inflight"`
	inFlightHWM atomic.Int64 `metric:"inflightHWM"`
}

// EnterFlight records a request entering the session's in-flight window
// and updates the high-water mark.
func (s *Session) EnterFlight() {
	n := s.inFlight.Add(1)
	for {
		hwm := s.inFlightHWM.Load()
		if n <= hwm || s.inFlightHWM.CompareAndSwap(hwm, n) {
			return
		}
	}
}

// LeaveFlight records a request leaving the in-flight window.
func (s *Session) LeaveFlight() { s.inFlight.Add(-1) }

// InFlight returns the current number of in-flight requests.
func (s *Session) InFlight() int64 { return s.inFlight.Load() }

// InFlightHWM returns the in-flight high-water mark.
func (s *Session) InFlightHWM() int64 { return s.inFlightHWM.Load() }

// Registry tracks the live sessions of one server so a metrics scrape
// can aggregate their gauges (in-flight depth, live counts) without
// waiting for sessions to end. Sessions register once at admission and
// unregister at teardown — two mutex operations per session lifetime —
// while scrapes take only a read lock and perform atomic loads, so the
// scrape path allocates nothing and never blocks session traffic.
type Registry struct {
	mu       sync.RWMutex
	sessions map[uint64]*Session
}

// NewRegistry returns an empty live-session registry.
func NewRegistry() *Registry {
	return &Registry{sessions: make(map[uint64]*Session)}
}

// Register adds a session's counters under its session ID.
func (r *Registry) Register(id uint64, s *Session) {
	r.mu.Lock()
	r.sessions[id] = s
	r.mu.Unlock()
}

// Unregister removes a session at teardown.
func (r *Registry) Unregister(id uint64) {
	r.mu.Lock()
	delete(r.sessions, id)
	r.mu.Unlock()
}

// Len reports the number of registered (live) sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// LiveSnapshot aggregates the registered sessions' gauges at one instant.
type LiveSnapshot struct {
	// Sessions is the number of registered sessions.
	Sessions int
	// InFlight is the total number of requests in flight across them.
	InFlight int64
	// InFlightHWM is the largest per-session in-flight high-water mark.
	InFlightHWM int64
}

// Live sweeps the registered sessions with atomic loads under a read
// lock: zero allocations regardless of session count, so the scrape
// path stays cheap at fleet scale.
func (r *Registry) Live() LiveSnapshot {
	var ls LiveSnapshot
	r.mu.RLock()
	ls.Sessions = len(r.sessions)
	for _, s := range r.sessions {
		ls.InFlight += s.inFlight.Load()
		if hwm := s.inFlightHWM.Load(); hwm > ls.InFlightHWM {
			ls.InFlightHWM = hwm
		}
	}
	r.mu.RUnlock()
	return ls
}

// Server aggregates counters across every session a server has run.
// Each field is one counter; the ServerSnapshot field of the same name
// documents and names it.
type Server struct {
	TotalSessions       atomic.Uint64
	ActiveSessions      atomic.Int64
	ReapedSessions      atomic.Uint64
	TotalExchanges      atomic.Uint64
	TotalBatches        atomic.Uint64
	TotalAttacks        atomic.Uint64
	TotalExperiments    atomic.Uint64
	TotalPings          atomic.Uint64
	TotalRetransmits    atomic.Uint64
	TotalProgressFrames atomic.Uint64
	BytesSealed         atomic.Uint64
	BytesOpened         atomic.Uint64
	Rekeys              atomic.Uint64
	ReplayDrops         atomic.Uint64
	LateDrops           atomic.Uint64
	WindowAccepts       atomic.Uint64
	AuthFails           atomic.Uint64
	CookiesSent         atomic.Uint64
	CookieRejects       atomic.Uint64
	ShedHandshakes      atomic.Uint64
	ShedRequests        atomic.Uint64
	RateLimited         atomic.Uint64
	TotalWorlds         atomic.Uint64
}

// ServerSnapshot is a point-in-time copy of a Server's counters, and
// the declaration of each: its doc, and in the `metric` tag its name in
// the -metrics dump line and, under ServerScope, in STATUS-METRICS.
type ServerSnapshot struct {
	TotalSessions  uint64 `metric:"sessions"`
	ActiveSessions int64  `metric:"active"`
	// ReapedSessions counts sessions closed by the idle reaper.
	ReapedSessions uint64 `metric:"reaped"`
	// TotalExchanges counts single and batched exchanges.
	TotalExchanges   uint64 `metric:"exchanges"`
	TotalBatches     uint64 `metric:"batches"`
	TotalAttacks     uint64 `metric:"attacks"`
	TotalExperiments uint64 `metric:"experiments"`
	TotalPings       uint64 `metric:"pings"`
	// TotalRetransmits counts responses re-sent from session dedup
	// caches: the server-side cost of transport loss.
	TotalRetransmits uint64 `metric:"retransmits"`
	// TotalProgressFrames counts streamed EXPERIMENT-PROGRESS frames
	// written to sessions.
	TotalProgressFrames uint64 `metric:"progressFrames"`

	// Link traffic, added from each session's securelink.Stats counter
	// of the same name when the session ends. ReplayDrops counts
	// duplicates of accepted frames, LateDrops frames that fell behind
	// the receive window, WindowAccepts out-of-order frames the window
	// absorbed — together the loss story of the datagram transport.
	BytesSealed   uint64 `metric:"sealedB"`
	BytesOpened   uint64 `metric:"openedB"`
	Rekeys        uint64 `metric:"rekeys"`
	ReplayDrops   uint64 `metric:"replayDrops"`
	LateDrops     uint64 `metric:"lateDrops"`
	WindowAccepts uint64 `metric:"windowAccepts"`
	AuthFails     uint64 `metric:"authFails"` // frames that failed authentication: forged or corrupted

	// Overload/admission counters. CookiesSent and CookieRejects meter
	// the stateless-cookie gate on datagram handshakes; ShedHandshakes
	// and ShedRequests count BUSY answers at admission and inside
	// sessions; RateLimited counts handshake datagrams the per-peer
	// token bucket silently dropped.
	CookiesSent    uint64 `metric:"cookiesSent"`
	CookieRejects  uint64 `metric:"cookieRejects"`
	ShedHandshakes uint64 `metric:"shedHandshakes"`
	ShedRequests   uint64 `metric:"shedRequests"`
	RateLimited    uint64 `metric:"rateLimited"`

	// TotalWorlds counts the testbed worlds sessions built, one per
	// session on its first physics request that passes validation and
	// the work budget: a session that never runs physics, or whose
	// physics requests were all refused or shed, builds none.
	TotalWorlds uint64 `metric:"worlds"`

	// Scrape-time gauges, with no Server field: LiveSessions,
	// LiveInFlight, and LiveInFlightHWM aggregate the registered live
	// sessions' gauges (current total pipelining depth and the deepest
	// per-session high-water mark). Filled by the server's Metrics() from
	// its session registry — Snapshot() alone leaves them zero.
	LiveSessions    int   `metric:"live"`
	LiveInFlight    int64 `metric:"inflight"`
	LiveInFlightHWM int64 `metric:"inflightHWM"`
}

// Snapshot copies the server counters.
func (m *Server) Snapshot() ServerSnapshot {
	var s ServerSnapshot
	for _, c := range copies {
		c.to.store(unsafe.Pointer(&s), c.from.load(unsafe.Pointer(m)))
	}
	return s
}

// Add adds v to the server counter named name. A name with no server
// counter (a link counter reported per session only) is ignored, so
// Each(&linkStats, "", m.Add) folds a finished session's link into the
// server-wide totals.
func (m *Server) Add(name string, v uint64) {
	for _, c := range copies {
		if c.to.name == name && c.from.typ == atomicUint64 {
			(*atomic.Uint64)(unsafe.Add(unsafe.Pointer(m), c.from.off)).Add(v)
		}
	}
}

// Get returns the named counter, or 0 when the snapshot has none.
func (s ServerSnapshot) Get(name string) uint64 {
	for _, f := range fields(snapshotType) {
		if f.name == name {
			return f.load(unsafe.Pointer(&s))
		}
	}
	return 0
}

// Set stores v in the named counter; an unknown name is ignored.
func (s *ServerSnapshot) Set(name string, v uint64) {
	for _, f := range fields(snapshotType) {
		if f.name == name {
			f.store(unsafe.Pointer(s), v)
		}
	}
}

// String renders the snapshot as one line of name=value pairs, the
// format the cmd/shieldd -metrics periodic dump prints.
func (s ServerSnapshot) String() string {
	var b strings.Builder
	Each(&s, "", func(name string, v uint64) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(name + "=" + strconv.FormatUint(v, 10))
	})
	return b.String()
}

// Each calls fn with the scoped name and value of every `metric`-tagged
// field of the struct p points to, in declaration order. Signed gauges
// are never negative, so every value reads as a uint64.
func Each(p any, scope string, fn func(name string, v uint64)) {
	v := reflect.ValueOf(p)
	for _, f := range fields(v.Type().Elem()) {
		fn(scope+f.name, f.load(v.UnsafePointer()))
	}
}

// A field is one counter of a struct, located once by reflection and
// then read and written by offset: that keeps Snapshot allocation-free
// and lets Session keep its gauges unexported.
type field struct {
	name string
	off  uintptr
	typ  reflect.Type
}

var (
	atomicUint64 = reflect.TypeOf(atomic.Uint64{})
	atomicInt64  = reflect.TypeOf(atomic.Int64{})
	snapshotType = reflect.TypeOf(ServerSnapshot{})
)

// newField locates the counter sf of struct type t, refusing any type
// load and store cannot handle.
func newField(t reflect.Type, sf reflect.StructField, name string) field {
	if k := sf.Type.Kind(); sf.Type != atomicUint64 && sf.Type != atomicInt64 &&
		k != reflect.Uint64 && k != reflect.Int64 && k != reflect.Int {
		panic(fmt.Sprintf("metrics: %s.%s has type %s, not a counter", t, sf.Name, sf.Type))
	}
	return field{name: name, off: sf.Offset, typ: sf.Type}
}

// load reads the field of the struct at base.
func (f field) load(base unsafe.Pointer) uint64 {
	p := unsafe.Add(base, f.off)
	switch {
	case f.typ == atomicUint64:
		return (*atomic.Uint64)(p).Load()
	case f.typ == atomicInt64:
		return uint64((*atomic.Int64)(p).Load())
	case f.typ.Kind() == reflect.Int:
		return uint64(*(*int)(p))
	}
	return *(*uint64)(p) // uint64 and int64 share a layout
}

// store writes v into the plain-integer field of the struct at base.
func (f field) store(base unsafe.Pointer, v uint64) {
	p := unsafe.Add(base, f.off)
	if f.typ.Kind() == reflect.Int {
		*(*int)(p) = int(v)
		return
	}
	*(*uint64)(p) = v
}

var tables sync.Map // reflect.Type -> []field

// fields returns the `metric`-tagged fields of struct type t in
// declaration order.
func fields(t reflect.Type) []field {
	if fs, ok := tables.Load(t); ok {
		return fs.([]field)
	}
	var fs []field
	for i := 0; i < t.NumField(); i++ {
		if sf := t.Field(i); sf.Tag.Get("metric") != "" {
			fs = append(fs, newField(t, sf, sf.Tag.Get("metric")))
		}
	}
	tables.Store(t, fs)
	return fs
}

// copies pairs each Server field with the ServerSnapshot field of the
// same name: Snapshot's whole body, and Add's index by name.
var copies = func() (cs []struct{ from, to field }) {
	srv := reflect.TypeOf(Server{})
	for i := 0; i < srv.NumField(); i++ {
		from := srv.Field(i)
		if to, ok := snapshotType.FieldByName(from.Name); ok { // TestCounterDeclarations names a missing one
			name := to.Tag.Get("metric")
			cs = append(cs, struct{ from, to field }{newField(srv, from, name), newField(snapshotType, to, name)})
		}
	}
	return cs
}()

package shieldd

import (
	"sync"

	"heartshield/internal/wire"
)

// resequencer restores request-ID order for the scenario-ordered request
// kinds (EXCHANGE, BATCH-EXCHANGE, ATTACK-TRIAL, BYE), whatever order
// the transport delivers them in. The deterministic result contract is
// (seed, request sequence) → results, and the request sequence is
// defined by the client's ID assignment — not by arrival order. The
// reader feeds every freshly claimed ID through the resequencer:
// ordered requests are released for execution only when every lower ID
// has been accounted for (executed, or classified as a non-ordered
// request the reader answers directly), and an ordered request that
// arrives above a gap waits in the buffer until the gap's retransmit
// lands. Together with the dedup ledger — which remembers
// what was answered so retransmits never re-execute — this makes the
// pipeline exactly-once AND in-order: ops complete losslessly out of
// order on the wire while the scenario still executes them in ID order.
//
// Only the session's reader goroutine calls submit/skip, so envelopes
// released across calls are naturally handed to the executor in ID
// order.
type resequencer struct {
	mu       sync.Mutex
	next     uint64              // lowest request ID not yet accounted for
	buffered map[uint64]envelope // ordered arrivals waiting on a lower gap
	skips    map[uint64]struct{} // non-ordered IDs seen above the cursor
}

func newResequencer() *resequencer {
	return &resequencer{
		next:     1, // client request IDs start at 1 on every session
		buffered: make(map[uint64]envelope),
		skips:    make(map[uint64]struct{}),
	}
}

// orderedKind reports whether a request kind executes against the
// scenario in ID order. Everything else (PING, STATUS-METRICS,
// EXPERIMENT, and reader-answered errors/BUSY) is answered as it
// arrives and only moves the cursor.
func orderedKind(kind byte) bool {
	switch kind {
	case wire.KindExchangeReq, wire.KindBatchReq, wire.KindAttackReq, wire.KindBye:
		return true
	}
	return false
}

// submit accounts for a freshly claimed ordered request and returns the
// envelopes now released for execution, in ID order: nothing if the
// request is above a gap (it is buffered), or the request itself plus
// any directly following buffered run once the cursor reaches it. ok is
// false for an ID below the cursor: it was accounted for already, and
// the dedup ledger lets one through only once its cache entry has been
// evicted. The caller drops it (and frees its window slot); the peer's
// call times out.
func (rs *resequencer) submit(e envelope) (released []envelope, ok bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if e.id < rs.next {
		return nil, false
	}
	rs.buffered[e.id] = e
	return rs.advance(), true
}

// skip accounts for a freshly claimed ID that will never reach the
// executor (non-ordered request, or one the reader answered with
// BUSY/Error) and returns any buffered ordered run the moved cursor
// releases.
func (rs *resequencer) skip(id uint64) []envelope {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if id < rs.next {
		return nil
	}
	rs.skips[id] = struct{}{}
	return rs.advance()
}

// advance walks the cursor over every accounted-for ID and collects the
// ordered envelopes it releases. Callers hold rs.mu.
func (rs *resequencer) advance() []envelope {
	var released []envelope
	for {
		if _, ok := rs.skips[rs.next]; ok {
			delete(rs.skips, rs.next)
			rs.next++
			continue
		}
		if e, ok := rs.buffered[rs.next]; ok {
			delete(rs.buffered, rs.next)
			released = append(released, e)
			rs.next++
			continue
		}
		return released
	}
}

// cum is the server's cumulative-progress report: the highest request ID
// through which every request has been received and sequenced.
func (rs *resequencer) cum() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.next - 1
}

// pending is the number of ordered requests waiting on a gap. The
// session reaper subtracts it from the in-flight count: a client that
// died with a gap outstanding leaves its buffered requests holding
// window slots forever, and they must not count as liveness.
func (rs *resequencer) pending() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.buffered)
}

// discard empties the reorder buffer at session teardown and returns
// what it held, so shutdown can release the window slots of requests
// that will never execute.
func (rs *resequencer) discard() []envelope {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]envelope, 0, len(rs.buffered))
	for _, e := range rs.buffered {
		out = append(out, e)
	}
	rs.buffered = make(map[uint64]envelope)
	return out
}

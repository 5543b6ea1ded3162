package shieldd

import "heartshield/internal/wire"

// ledger is a session's one record of its request IDs. It makes
// execution exactly-once and in request-ID order over a transport that
// loses, duplicates and reorders requests: a retransmitted request is
// answered from the record instead of re-executing against the
// scenario, and the scenario-ordered kinds (EXCHANGE, BATCH-EXCHANGE,
// ATTACK-TRIAL, BYE) execute in ID order whatever order they arrive in.
// The deterministic result contract is (seed, request sequence) →
// results, and the request sequence is the client's ID assignment, not
// arrival order.
//
// The ledger is one map keyed by request ID and one cursor, the lowest
// ID not yet sequenced (client IDs start at 1 on every session). An ID
// is fresh exactly when it is at or above the cursor and has no entry.
// Any other ID is a duplicate: re-answered from its entry's response
// once there is one, dropped while it still runs. Below the cursor an ID
// is never executed again; one without an entry there is dropped.
//
// The session machine gives a fresh ID its entry before anything can
// answer it. An ordered request keeps its message in the entry while it
// waits above a gap; every other request is sequenced on arrival. Moving
// the cursor releases the waiting requests it passes, in ID order. The
// machine records each final response in its ID's entry as it sends it,
// so a lost answer can be sent again, from above a gap as well as below
// the cursor. An entry above the cursor lives until the
// cursor passes it. Below the cursor the answered entries are the
// response cache: at most dedupCacheCap of them, oldest evicted first,
// and pruned by the client's cumulative-delivery report.
//
// The ledger belongs to one session machine and takes no lock.
type ledger struct {
	next    uint64 // the cursor
	entries map[uint64]*ledgerEntry
	cached  []uint64 // answered IDs below the cursor, oldest first
	// nwaiting counts the entries holding an ordered request above a gap.
	nwaiting int
}

// ledgerEntry is one request ID's record.
type ledgerEntry struct {
	// req is an ordered request waiting above a gap: nil once released,
	// and for requests sequenced on arrival.
	req wire.Message
	// resp is the final response, once the machine has sent it.
	resp wire.Message
}

func newLedger() *ledger {
	return &ledger{next: 1, entries: make(map[uint64]*ledgerEntry)}
}

// orderedKind reports whether a request kind executes against the
// scenario in ID order. Everything else (PING, STATUS-METRICS,
// EXPERIMENT, and errors/BUSY answered on arrival) is answered as it
// arrives and only moves the cursor.
func orderedKind(kind byte) bool {
	switch kind {
	case wire.KindExchangeReq, wire.KindBatchReq, wire.KindAttackReq, wire.KindBye:
		return true
	}
	return false
}

// admit classifies an arriving request ID: fresh means take it in with
// submit or skip; a non-nil cached means send that response again;
// neither means drop the duplicate.
func (l *ledger) admit(id uint64) (fresh bool, cached wire.Message) {
	if e, ok := l.entries[id]; ok {
		return false, e.resp
	}
	return id >= l.next, nil
}

// submit takes in a fresh ordered request and returns the requests now
// released for execution, in ID order: none while it waits above a gap,
// else it and the waiting run that directly follows it.
func (l *ledger) submit(id uint64, req wire.Message) []envelope {
	l.entries[id] = &ledgerEntry{req: req}
	l.nwaiting++
	return l.advance()
}

// skip takes in a fresh request that is sequenced on arrival (answered
// at once, or run as an experiment) and returns the waiting run its ID
// releases.
func (l *ledger) skip(id uint64) []envelope {
	l.entries[id] = &ledgerEntry{}
	return l.advance()
}

// advance moves the cursor over every ID with an entry and returns the
// waiting requests it passes.
func (l *ledger) advance() []envelope {
	var released []envelope
	for {
		e, ok := l.entries[l.next]
		if !ok {
			return released
		}
		if e.req != nil {
			released = append(released, envelope{id: l.next, msg: e.req})
			e.req = nil
			l.nwaiting--
		}
		if e.resp != nil {
			l.cache(l.next)
		}
		l.next++
	}
}

// complete records the final response the machine is sending for id.
// The first response recorded for an ID is the one every duplicate gets.
func (l *ledger) complete(id uint64, resp wire.Message) {
	e, ok := l.entries[id]
	if !ok {
		// ID 0: a malformed envelope, answered outside the ledger's
		// checks.
		e = &ledgerEntry{}
		l.entries[id] = e
	}
	if e.resp != nil {
		return
	}
	e.resp = resp
	if id < l.next {
		l.cache(id)
	}
}

// cache files an answered ID below the cursor into the response cache,
// evicting the oldest beyond dedupCacheCap.
func (l *ledger) cache(id uint64) {
	l.cached = append(l.cached, id)
	if len(l.cached) > dedupCacheCap {
		delete(l.entries, l.cached[0])
		l.cached = l.cached[1:]
	}
}

// prune forgets the cached responses at or below the client's
// cumulative-delivery report: the client holds every one of them, so it
// will never ask again. This keeps the cache to the window's worth of
// answers a live pipeline can still retransmit into. Entries above the
// cursor are not in the cache and outlive any report.
func (l *ledger) prune(cum uint64) {
	keep := l.cached[:0]
	for _, id := range l.cached {
		if id <= cum {
			delete(l.entries, id)
		} else {
			keep = append(keep, id)
		}
	}
	l.cached = keep
}

// cum is the server's cumulative-progress report: every request ID at or
// below it has been sequenced.
func (l *ledger) cum() uint64 {
	return l.next - 1
}

// waiting is the number of ordered requests held above a gap. The idle
// rule does not count their window slots as live work: a client that
// died with a gap outstanding leaves them held forever, and the session
// must still be reapable.
func (l *ledger) waiting() int { return l.nwaiting }

// discard forgets every request waiting above a gap and returns them, so
// the machine can free the window slots of requests that will never
// execute (at the BYE, and when the session ends).
func (l *ledger) discard() []envelope {
	var out []envelope
	for id, e := range l.entries {
		if e.req != nil {
			out = append(out, envelope{id: id, msg: e.req})
			delete(l.entries, id)
		}
	}
	l.nwaiting = 0
	return out
}

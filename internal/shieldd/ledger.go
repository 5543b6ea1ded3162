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
// The ledger is one cursor, the lowest ID not yet sequenced (client IDs
// start at 1 on every session), and a ring of ledgerSlots entries: ID
// id lives in slot id%ledgerSlots, tagged with its ID. An ID is fresh
// exactly when it lies in the request window, cursor ≤ id ≤
// cursor+requestWindow, and its slot does not hold it; a fresh ID takes
// its slot over from the older ID it held. Any other ID is not fresh.
// One its slot holds is a duplicate: re-answered from the entry's
// response once there is one, dropped while it still runs. Any other is
// dropped: below the cursor an ID is never executed again, and above the
// window it is dropped unrecorded, so its retransmit is fresh once the
// cursor has come within a window of it. ID 0 never has an entry.
//
// The session machine gives a fresh ID its entry before anything can
// answer it. An ordered request keeps its message in the entry while it
// waits above a gap; every other request is sequenced on arrival. Moving
// the cursor releases the waiting requests it passes, in ID order. The
// machine records each final response in its ID's entry as it sends it,
// so a lost answer can be sent again, from above a gap as well as below
// the cursor, until a later ID takes the slot.
//
// The ledger belongs to one session machine and takes no lock.
type ledger struct {
	next  uint64 // the cursor
	slots [ledgerSlots]ledgerEntry
}

// ledgerSlots is the ring's size: one slot per ID of the client's
// window, and one for its BYE. The server admits a fresh ID only in
// cursor ≤ id ≤ cursor+requestWindow and drops a fresh request other
// than the BYE that finds requestWindow requests in flight; a client
// that keeps the window gives a request ID n only when n ≤
// report+requestWindow, and its BYE at most one above that. Every ID at
// or below the report has been sequenced, so the report is below the
// cursor, and every ID such a client may still send, and every ID the
// server still holds work for, lies in the client's current window
// [report+1, report+requestWindow+1]. Those are requestWindow+1
// consecutive IDs, so no two share a slot: an ID takes over a slot only
// from one whose answer the client already holds, and no peer can evict
// an entry waiting above a gap, since every ID the server's window
// admits shares no slot with another ID at or above the cursor.
const ledgerSlots = requestWindow + 1

// ledgerEntry is one request ID's record.
type ledgerEntry struct {
	id uint64
	// req is an ordered request waiting above a gap: nil once released,
	// and for requests sequenced on arrival.
	req wire.Message
	// resp is the final response, once the machine has sent it.
	resp wire.Message
}

func newLedger() *ledger {
	return &ledger{next: 1}
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

// slot returns the ring entry of id.
func (l *ledger) slot(id uint64) *ledgerEntry { return &l.slots[id%ledgerSlots] }

// admit classifies an arriving request ID: fresh means take it in with
// submit or skip; a non-nil cached means send that response again;
// neither means drop it.
func (l *ledger) admit(id uint64) (fresh bool, cached wire.Message) {
	if e := l.slot(id); e.id == id {
		return false, e.resp
	}
	return id >= l.next && id-l.next <= requestWindow, nil
}

// submit takes in a fresh ordered request and returns the requests now
// released for execution, in ID order: none while it waits above a gap,
// else it and the waiting run that directly follows it.
func (l *ledger) submit(id uint64, req wire.Message) []envelope {
	*l.slot(id) = ledgerEntry{id: id, req: req}
	return l.advance()
}

// skip takes in a fresh request that is sequenced on arrival (answered
// at once, or run as an experiment) and returns the waiting run its ID
// releases.
func (l *ledger) skip(id uint64) []envelope {
	*l.slot(id) = ledgerEntry{id: id}
	return l.advance()
}

// advance moves the cursor over every ID with an entry and returns the
// waiting requests it passes.
func (l *ledger) advance() []envelope {
	var released []envelope
	for e := l.slot(l.next); e.id == l.next; e = l.slot(l.next) {
		if e.req != nil {
			released = append(released, envelope{id: l.next, msg: e.req})
			e.req = nil
		}
		l.next++
	}
	return released
}

// complete records the final response the machine is sending for id, if
// its slot still holds it: a peer that breaks the window may have given
// the slot to a later ID while the request ran.
func (l *ledger) complete(id uint64, resp wire.Message) {
	if e := l.slot(id); e.id == id && id != 0 {
		e.resp = resp
	}
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
func (l *ledger) waiting() int {
	n := 0
	for i := range l.slots {
		if l.slots[i].req != nil {
			n++
		}
	}
	return n
}

// discard drops every request waiting above a gap and returns how many
// there were, so the machine can free the window slots of requests that
// will never execute (at the BYE, and when the session ends).
func (l *ledger) discard() int {
	n := l.waiting()
	for i := range l.slots {
		l.slots[i].req = nil
	}
	return n
}

package shieldd

import (
	"fmt"
	"testing"

	"heartshield/internal/wire"
)

// ledgerOp is one call on a session ledger and the result it must give,
// as text: admit gives "fresh", "cached" or "drop"; submit and skip give
// the released request IDs; discard gives how many it dropped; complete
// gives "".
type ledgerOp struct {
	call string
	id   uint64
	want string
}

// answered takes in IDs from..to as requests answered on arrival.
func answered(from, to uint64) []ledgerOp {
	var ops []ledgerOp
	for id := from; id <= to; id++ {
		ops = append(ops, ledgerOp{"skip", id, "[]"}, ledgerOp{"complete", id, ""})
	}
	return ops
}

// runLedgerOp applies op to l and renders its result.
func runLedgerOp(l *ledger, op ledgerOp) string {
	ids := func(es []envelope) []uint64 {
		out := []uint64{}
		for _, e := range es {
			out = append(out, e.id)
		}
		return out
	}
	switch op.call {
	case "admit":
		fresh, cached := l.admit(op.id)
		switch {
		case fresh:
			return "fresh"
		case cached != nil:
			return "cached"
		}
		return "drop"
	case "submit":
		return fmt.Sprint(ids(l.submit(op.id, &wire.ExchangeReq{})))
	case "skip":
		return fmt.Sprint(ids(l.skip(op.id)))
	case "complete":
		l.complete(op.id, &wire.Pong{Token: op.id})
	case "discard":
		return fmt.Sprint(l.discard())
	default:
		panic("unknown ledger call " + op.call)
	}
	return ""
}

// TestLedgerRules drives the session ledger directly through its rules:
// which IDs are fresh, what happens to duplicates, release order above
// a gap, and which records a later ID takes over.
func TestLedgerRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []ledgerOp
	}{
		{"fresh only at or above the cursor and unseen", []ledgerOp{
			{"admit", 1, "fresh"}, {"admit", 9, "fresh"}, {"admit", 0, "drop"},
			{"skip", 1, "[]"}, {"admit", 1, "drop"}, {"admit", 2, "fresh"},
		}},
		{"a duplicate of a running ID is dropped", []ledgerOp{
			{"submit", 1, "[1]"}, {"admit", 1, "drop"}, // executing
			{"skip", 3, "[]"}, {"admit", 3, "drop"}, // running above a gap
			{"submit", 5, "[]"}, {"admit", 5, "drop"}, // waiting above a gap
		}},
		{"an answered ID is re-answered", []ledgerOp{
			{"submit", 1, "[1]"}, {"complete", 1, ""}, {"admit", 1, "cached"},
			{"skip", 3, "[]"}, {"complete", 3, ""}, {"admit", 3, "cached"}, // above a gap
		}},
		{"an unseen ID below the cursor is dropped", append(append([]ledgerOp{{"admit", 0, "drop"}},
			answered(1, 1+ledgerSlots)...),
			ledgerOp{"admit", 1, "drop"}, // below the cursor: 1+ledgerSlots took its slot
			ledgerOp{"admit", 2, "cached"},
			ledgerOp{"admit", 2 + ledgerSlots, "fresh"},
			ledgerOp{"complete", 0, ""}, ledgerOp{"admit", 0, "drop"}, // ID 0 has no entry
		)},
		{"ordered IDs above a gap are released in ID order when it fills", []ledgerOp{
			{"submit", 3, "[]"}, {"submit", 2, "[]"}, {"skip", 4, "[]"}, {"submit", 5, "[]"},
			{"submit", 1, "[1 2 3 5]"}, {"submit", 7, "[]"}, {"skip", 6, "[7]"},
		}},
		{"an ID above cursor+requestWindow is not fresh", append(answered(2, requestWindow),
			ledgerOp{"submit", 1 + requestWindow, "[]"}, // the BYE's slot, at the window's top
			ledgerOp{"admit", 2 + requestWindow, "drop"},
			ledgerOp{"admit", 1_000_000, "drop"},
			ledgerOp{"admit", 2, "cached"}, // above the cursor: its slot is its own
			ledgerOp{"admit", 1, "fresh"},
			ledgerOp{"submit", 1, fmt.Sprintf("[1 %d]", 1+requestWindow)},
			ledgerOp{"admit", 2 + requestWindow, "fresh"},
			ledgerOp{"admit", 2 + 2*requestWindow, "fresh"},
			ledgerOp{"admit", 3 + 2*requestWindow, "drop"},
		)},
		{"a completion after a later ID took the slot is not recorded", []ledgerOp{
			{"skip", 1, "[]"}, {"skip", 1 + ledgerSlots, "[]"},
			{"complete", 1, ""}, {"admit", 1, "drop"}, {"admit", 1 + ledgerSlots, "drop"},
		}},
		{"discard returns every waiting request", []ledgerOp{
			{"submit", 2, "[]"}, {"skip", 3, "[]"}, {"submit", 5, "[]"}, {"submit", 4, "[]"},
			{"discard", 0, "3"}, {"discard", 0, "0"}, {"admit", 3, "drop"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger()
			for i, op := range tc.ops {
				if got := runLedgerOp(l, op); got != op.want {
					t.Fatalf("op %d: %s(%d) = %q, want %q", i, op.call, op.id, got, op.want)
				}
			}
		})
	}
}

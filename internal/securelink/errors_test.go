package securelink_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"heartshield/internal/securelink"
	"heartshield/internal/wire"
)

// wireKindMessages returns one encoded message of every wire frame kind —
// the payloads the error-path table drives through the link, so every
// frame the shieldd protocol can carry is covered.
func wireKindMessages() map[string][]byte {
	hello := &wire.Hello{Version: wire.Version, Seed: 1}
	return map[string][]byte{
		"hello":           hello.Encode(),
		"challenge":       (&wire.Challenge2{KeyShare: make([]byte, 32)}).Encode(),
		"hello-ack":       (&wire.HelloAck{Version: wire.Version, SessionID: 7}).Encode(),
		"exchange-req":    (&wire.ExchangeReq{IMD: 1, Cmd: wire.CmdSetTherapy}).Encode(),
		"exchange-resp":   (&wire.ExchangeResp{Response: []byte("data"), ResponseCommand: "data-response", EavesBER: 0.5, CancellationDB: 32}).Encode(),
		"attack-req":      (&wire.AttackReq{Cmd: wire.CmdInterrogate, ShieldOn: true}).Encode(),
		"attack-resp":     (&wire.AttackResp{ShieldJammed: true, AdversaryRSSIDBm: -30}).Encode(),
		"experiment-req":  (&wire.ExperimentReq{Name: "fig7", Seed: 1, Quick: true}).Encode(),
		"experiment-resp": (&wire.ExperimentResp{Rendered: "rows\n"}).Encode(),
		"metrics-req":     (&wire.MetricsReq{}).Encode(),
		"metrics-resp":    (&wire.MetricsResp{SessionID: 1, Counters: wire.Counters{{Name: "server.active", Value: 1}}}).Encode(),
		"bye":             (&wire.Bye{}).Encode(),
		"error":           (&wire.Error{Code: wire.CodeBadRequest, Msg: "no"}).Encode(),
	}
}

func newPair(t testing.TB) (*securelink.Link, *securelink.Link) {
	t.Helper()
	shield, prog, err := securelink.Pair([]byte("table-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	return shield, prog
}

// Every frame kind must round-trip sealed, and must surface exactly
// ErrShort on truncation below the header, ErrAuth on any bit flip, and
// ErrReplay on a second delivery.
func TestErrorPathsEveryFrameKind(t *testing.T) {
	for kind, payload := range wireKindMessages() {
		kind, payload := kind, payload
		t.Run(kind, func(t *testing.T) {
			shield, prog := newPair(t)

			sealed := prog.Seal(payload)

			// Truncation below the 8-byte sequence header: ErrShort.
			for _, n := range []int{0, 1, 7} {
				if _, err := shield.Open(sealed[:n]); !errors.Is(err, securelink.ErrShort) {
					t.Fatalf("truncated to %d bytes: err = %v, want ErrShort", n, err)
				}
			}

			// Any single bit flip — header, body, or tag: ErrAuth.
			for _, pos := range []int{0, 8, len(sealed) - 1} {
				tampered := append([]byte(nil), sealed...)
				tampered[pos] ^= 0x80
				if _, err := shield.Open(tampered); !errors.Is(err, securelink.ErrAuth) {
					t.Fatalf("bit flip at %d: err = %v, want ErrAuth", pos, err)
				}
			}

			// Failed opens must not have consumed the sequence number.
			pt, err := shield.Open(sealed)
			if err != nil {
				t.Fatalf("open after failed attempts: %v", err)
			}
			if !bytes.Equal(pt, payload) {
				t.Fatalf("round trip = %x, want %x", pt, payload)
			}

			// Exact replay: ErrReplay.
			if _, err := shield.Open(sealed); !errors.Is(err, securelink.ErrReplay) {
				t.Fatalf("replay err = %v, want ErrReplay", err)
			}
		})
	}
}

// With the default strict ordering, delivering frames out of order is a
// replay error; with a window, bounded reordering is accepted exactly
// once and replays inside the window are still rejected.
func TestSequenceWindow(t *testing.T) {
	t.Run("strict-rejects-reorder", func(t *testing.T) {
		shield, prog := newPair(t)
		m0 := prog.Seal([]byte("m0"))
		m1 := prog.Seal([]byte("m1"))
		if _, err := shield.Open(m1); err != nil {
			t.Fatal(err)
		}
		if _, err := shield.Open(m0); !errors.Is(err, securelink.ErrReplay) {
			t.Fatalf("reordered open err = %v, want ErrReplay", err)
		}
	})

	t.Run("window-accepts-bounded-reorder", func(t *testing.T) {
		shield, prog := newPair(t)
		shield.SetWindow(4)
		prog.SetWindow(4)
		var sealed [][]byte
		for i := 0; i < 6; i++ {
			sealed = append(sealed, prog.Seal([]byte{byte(i)}))
		}
		// Deliver 0, 3, 1, 2 — all within the window of 4.
		for _, i := range []int{0, 3, 1, 2} {
			if _, err := shield.Open(sealed[i]); err != nil {
				t.Fatalf("windowed open of seq %d: %v", i, err)
			}
		}
		// Each is still rejected on second delivery.
		for _, i := range []int{0, 1, 2, 3} {
			if _, err := shield.Open(sealed[i]); !errors.Is(err, securelink.ErrReplay) {
				t.Fatalf("windowed replay of seq %d: err = %v, want ErrReplay", i, err)
			}
		}
		// Jump ahead to 5; 0 is now 5 behind — outside the window.
		if _, err := shield.Open(sealed[5]); err != nil {
			t.Fatal(err)
		}
		old := prog.Seal([]byte("past")) // seq 6, fresh — sanity that link still works
		if _, err := shield.Open(old); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("window-rejects-too-old", func(t *testing.T) {
		shield, prog := newPair(t)
		shield.SetWindow(2)
		var sealed [][]byte
		for i := 0; i < 5; i++ {
			sealed = append(sealed, prog.Seal([]byte{byte(i)}))
		}
		if _, err := shield.Open(sealed[4]); err != nil {
			t.Fatal(err)
		}
		// seq 1 is 3 behind the highest (4): outside window 2.
		if _, err := shield.Open(sealed[1]); !errors.Is(err, securelink.ErrReplay) {
			t.Fatalf("too-old open err = %v, want ErrReplay", err)
		}
		// seq 2 is exactly window positions behind: inclusive, accepted.
		if _, err := shield.Open(sealed[2]); err != nil {
			t.Fatalf("boundary open err = %v", err)
		}
		// seq 3 is 1 behind: inside.
		if _, err := shield.Open(sealed[3]); err != nil {
			t.Fatalf("in-window open err = %v", err)
		}
	})

	t.Run("window-of-one-tolerates-swap", func(t *testing.T) {
		// The minimal window must actually buy something: two adjacent
		// frames delivered swapped both arrive.
		shield, prog := newPair(t)
		shield.SetWindow(1)
		m0 := prog.Seal([]byte("m0"))
		m1 := prog.Seal([]byte("m1"))
		if _, err := shield.Open(m1); err != nil {
			t.Fatal(err)
		}
		if _, err := shield.Open(m0); err != nil {
			t.Fatalf("swapped open with window 1: %v", err)
		}
		if _, err := shield.Open(m0); !errors.Is(err, securelink.ErrReplay) {
			t.Fatalf("replay after swap err = %v, want ErrReplay", err)
		}
	})
}

// The rekey ratchet: messages across an epoch boundary keep flowing with
// no extra handshake, old-epoch frames die as replays, tampering at the
// boundary does not advance receiver state, and the two ends stay in sync
// over many epochs.
func TestRekey(t *testing.T) {
	const every = 4

	t.Run("across-epochs", func(t *testing.T) {
		shield, prog := newPair(t)
		shield.EnableRekey(every)
		prog.EnableRekey(every)
		for i := 0; i < 3*every+1; i++ {
			msg := []byte{byte(i)}
			pt, err := shield.Open(prog.Seal(msg))
			if err != nil {
				t.Fatalf("msg %d (epoch %d): %v", i, i/every, err)
			}
			if !bytes.Equal(pt, msg) {
				t.Fatalf("msg %d corrupted", i)
			}
		}
	})

	t.Run("old-epoch-replay-rejected", func(t *testing.T) {
		shield, prog := newPair(t)
		shield.EnableRekey(every)
		shield.SetWindow(16) // window must not resurrect an old epoch
		prog.EnableRekey(every)
		var sealed [][]byte
		for i := 0; i < every+1; i++ {
			sealed = append(sealed, prog.Seal([]byte{byte(i)}))
		}
		for _, s := range sealed {
			if _, err := shield.Open(s); err != nil {
				t.Fatal(err)
			}
		}
		// Epoch 0 frames are gone forever, window notwithstanding.
		if _, err := shield.Open(sealed[1]); !errors.Is(err, securelink.ErrReplay) {
			t.Fatalf("old-epoch replay err = %v, want ErrReplay", err)
		}
	})

	t.Run("tamper-does-not-advance-epoch", func(t *testing.T) {
		shield, prog := newPair(t)
		shield.EnableRekey(every)
		prog.EnableRekey(every)
		var sealed [][]byte
		for i := 0; i < every+2; i++ {
			sealed = append(sealed, prog.Seal([]byte{byte(i)}))
		}
		// Tampered next-epoch frame: ErrAuth, and the receiver must still
		// accept the current epoch afterwards.
		bad := append([]byte(nil), sealed[every]...)
		bad[len(bad)-1] ^= 1
		if _, err := shield.Open(bad); !errors.Is(err, securelink.ErrAuth) {
			t.Fatalf("tampered epoch-crossing err = %v, want ErrAuth", err)
		}
		for i := 0; i < every+2; i++ {
			if _, err := shield.Open(sealed[i]); err != nil {
				t.Fatalf("msg %d after failed epoch probe: %v", i, err)
			}
		}
	})

	t.Run("absurd-epoch-jump-rejected", func(t *testing.T) {
		shield, prog := newPair(t)
		shield.EnableRekey(every)
		prog.EnableRekey(every)
		// Forge a far-future sequence number; the receiver must refuse to
		// ratchet that far on an unverified frame.
		forged := make([]byte, 8+16)
		binary.BigEndian.PutUint64(forged, uint64(every)*(1<<13))
		if _, err := shield.Open(forged); !errors.Is(err, securelink.ErrAuth) {
			t.Fatalf("absurd epoch jump err = %v, want ErrAuth", err)
		}
		if _, err := shield.Open(prog.Seal([]byte("still fine"))); err != nil {
			t.Fatalf("link broken after forged jump: %v", err)
		}
	})

	t.Run("rekeyed-links-do-not-reuse-old-keys", func(t *testing.T) {
		// A frame sealed for epoch 1 must not open under the epoch-0 key:
		// pair two identical links, rekey only the sender side past the
		// boundary, and check a receiver frozen at epoch 0 rejects it.
		shield, prog := newPair(t)
		prog.EnableRekey(every)
		var last []byte
		for i := 0; i < every+1; i++ {
			last = prog.Seal([]byte{byte(i)})
		}
		// shield never enabled rekeying: for it, the epoch-1 frame is
		// sealed under a key it does not know.
		if _, err := shield.Open(last); !errors.Is(err, securelink.ErrAuth) {
			t.Fatalf("epoch-1 frame under epoch-0 key err = %v, want ErrAuth", err)
		}
	})
}

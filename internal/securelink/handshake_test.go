package securelink

import (
	"bytes"
	"testing"
	"time"
)

// Both ends running the same key schedule over the same transcript and
// secrets must derive identical session and resumption secrets, and the
// two secrets must differ from each other.
func TestHandshakeScheduleAgreement(t *testing.T) {
	ca, err := NewEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	master := []byte("provisioned-master-secret")

	run := func(eph *Ephemeral, peerShare []byte) (session, resumption []byte) {
		hs := NewHandshake(HandshakeLabelV4)
		hs.MixHash([]byte("hello-transcript-bytes"))
		hs.MixHash([]byte("challenge2-transcript-bytes"))
		hs.MixKey(master)
		dh, err := eph.Shared(peerShare)
		if err != nil {
			t.Fatal(err)
		}
		hs.MixKey(dh)
		return hs.SessionSecret(), hs.ResumptionSecret()
	}

	cs, cr := run(ca, sa.Public())
	ss, sr := run(sa, ca.Public())
	if !bytes.Equal(cs, ss) {
		t.Fatal("the two ends derived different session secrets")
	}
	if !bytes.Equal(cr, sr) {
		t.Fatal("the two ends derived different resumption secrets")
	}
	if bytes.Equal(cs, cr) {
		t.Fatal("session and resumption secrets are identical")
	}
	if len(cs) != 32 || len(cr) != 32 {
		t.Fatalf("secret lengths %d/%d, want 32", len(cs), len(cr))
	}
}

// Any divergence — transcript bytes, mixed keys, or the DH pairing —
// must change the derived session secret.
func TestHandshakeScheduleSensitivity(t *testing.T) {
	derive := func(msgs [][]byte, keys [][]byte) []byte {
		hs := NewHandshake(HandshakeLabelV4)
		for _, m := range msgs {
			hs.MixHash(m)
		}
		for _, k := range keys {
			hs.MixKey(k)
		}
		return hs.SessionSecret()
	}
	base := derive([][]byte{[]byte("hello"), []byte("challenge")}, [][]byte{[]byte("psk"), []byte("dh")})
	variants := map[string][]byte{
		"tampered message":  derive([][]byte{[]byte("hellx"), []byte("challenge")}, [][]byte{[]byte("psk"), []byte("dh")}),
		"reordered mixes":   derive([][]byte{[]byte("challenge"), []byte("hello")}, [][]byte{[]byte("psk"), []byte("dh")}),
		"different psk":     derive([][]byte{[]byte("hello"), []byte("challenge")}, [][]byte{[]byte("psq"), []byte("dh")}),
		"different dh":      derive([][]byte{[]byte("hello"), []byte("challenge")}, [][]byte{[]byte("psk"), []byte("dj")}),
		"shifted boundary":  derive([][]byte{[]byte("helloch"), []byte("allenge")}, [][]byte{[]byte("psk"), []byte("dh")}),
		"different label":   nil,
		"repeatable (same)": derive([][]byte{[]byte("hello"), []byte("challenge")}, [][]byte{[]byte("psk"), []byte("dh")}),
	}
	other := NewHandshake("some other label")
	other.MixHash([]byte("hello"))
	other.MixHash([]byte("challenge"))
	other.MixKey([]byte("psk"))
	other.MixKey([]byte("dh"))
	variants["different label"] = other.SessionSecret()

	for name, got := range variants {
		same := bytes.Equal(got, base)
		if name == "repeatable (same)" {
			if !same {
				t.Error("identical schedule did not reproduce the secret")
			}
			continue
		}
		if same {
			t.Errorf("%s left the session secret unchanged", name)
		}
	}
}

func TestEphemeralRejectsBadShares(t *testing.T) {
	e, err := NewEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Public()) != KeyShareLen {
		t.Fatalf("key share length %d, want %d", len(e.Public()), KeyShareLen)
	}
	if _, err := e.Shared(make([]byte, 7)); err == nil {
		t.Fatal("short key share accepted")
	}
	// The all-zero share is a low-order point; X25519 must reject the
	// all-zero shared secret it would produce.
	if _, err := e.Shared(make([]byte, KeyShareLen)); err == nil {
		t.Fatal("low-order key share accepted")
	}
}

func newTestTicketSource(t *testing.T, interval, lifetime time.Duration) (*TicketSource, *time.Time) {
	t.Helper()
	ts, err := NewTicketSource(interval, lifetime)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1_700_000_000, 0)
	ts.keys.now = func() time.Time { return clock }
	if interval > 0 {
		ts.keys.nextRot = clock.Add(interval)
	}
	return ts, &clock
}

func TestTicketMintRedeem(t *testing.T) {
	ts, _ := newTestTicketSource(t, 0, time.Hour)
	rms := bytes.Repeat([]byte{0x42}, 32)
	tk, err := ts.Mint(rms, "10.0.0.1:9999")
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Peek(tk, "10.0.0.1:9999") {
		t.Fatal("fresh ticket does not peek at its issuing address")
	}
	if ts.Peek(tk, "10.0.0.2:9999") {
		t.Fatal("ticket peeked at a different address")
	}
	got, ok := ts.Redeem(tk)
	if !ok || !bytes.Equal(got, rms) {
		t.Fatalf("redeem = (%x, %v), want original secret", got, ok)
	}
	// Single use: a second redeem (or peek) of the same bytes fails.
	if _, ok := ts.Redeem(tk); ok {
		t.Fatal("ticket redeemed twice")
	}
	if ts.Peek(tk, "10.0.0.1:9999") {
		t.Fatal("redeemed ticket still peeks")
	}
}

func TestTicketRejectsGarbage(t *testing.T) {
	ts, _ := newTestTicketSource(t, 0, time.Hour)
	rms := bytes.Repeat([]byte{0x42}, 32)
	if _, err := ts.Mint(rms[:16], "addr"); err == nil {
		t.Fatal("short resumption secret minted")
	}
	tk, err := ts.Mint(rms, "addr")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), tk...)
	corrupt[len(corrupt)-1] ^= 0x01
	if _, ok := ts.Redeem(corrupt); ok {
		t.Fatal("corrupted ticket redeemed")
	}
	wrongEpoch := append([]byte(nil), tk...)
	wrongEpoch[0] += 3
	if _, ok := ts.Redeem(wrongEpoch); ok {
		t.Fatal("retired-epoch ticket redeemed")
	}
	if _, ok := ts.Redeem(tk[:8]); ok {
		t.Fatal("truncated ticket redeemed")
	}
	if _, ok := ts.Redeem(nil); ok {
		t.Fatal("empty ticket redeemed")
	}
	// The corruption attempts must not have consumed the real ticket.
	if _, ok := ts.Redeem(tk); !ok {
		t.Fatal("intact ticket no longer redeems")
	}
}

func TestTicketExpiry(t *testing.T) {
	ts, clock := newTestTicketSource(t, 0, time.Hour)
	rms := bytes.Repeat([]byte{0x42}, 32)
	tk, err := ts.Mint(rms, "addr")
	if err != nil {
		t.Fatal(err)
	}
	*clock = clock.Add(59 * time.Minute)
	if !ts.Peek(tk, "addr") {
		t.Fatal("unexpired ticket refused")
	}
	*clock = clock.Add(2 * time.Minute)
	if ts.Peek(tk, "addr") {
		t.Fatal("expired ticket peeked")
	}
	if _, ok := ts.Redeem(tk); ok {
		t.Fatal("expired ticket redeemed")
	}
}

// Key rotation mirrors CookieSource: a ticket survives one interval of
// silence (previous key still opens it) but not a multi-interval quiet
// period, even though its own lifetime has not elapsed.
func TestTicketQuietPeriodRetiresOldKeys(t *testing.T) {
	ts, clock := newTestTicketSource(t, time.Hour, 24*time.Hour)
	rms := bytes.Repeat([]byte{0x42}, 32)
	tk, err := ts.Mint(rms, "addr")
	if err != nil {
		t.Fatal(err)
	}
	*clock = clock.Add(90 * time.Minute)
	if !ts.Peek(tk, "addr") {
		t.Fatal("ticket one interval old refused")
	}
	tk2, err := ts.Mint(rms, "addr")
	if err != nil {
		t.Fatal(err)
	}
	*clock = clock.Add(150 * time.Minute)
	if ts.Peek(tk2, "addr") {
		t.Fatal("ticket survived a two-interval quiet period")
	}
}

func TestTicketUsedSetBounded(t *testing.T) {
	ts, _ := newTestTicketSource(t, 0, time.Hour)
	rms := bytes.Repeat([]byte{0x42}, 32)
	first, err := ts.Mint(rms, "addr")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.Redeem(first); !ok {
		t.Fatal("first ticket did not redeem")
	}
	// Overflow the replay filter; the first ticket's entry is evicted.
	for i := 0; i < maxUsedTickets; i++ {
		tk, err := ts.Mint(rms, "addr")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ts.Redeem(tk); !ok {
			t.Fatalf("ticket %d did not redeem", i)
		}
	}
	if len(ts.used) > maxUsedTickets || len(ts.usedOrder) > maxUsedTickets {
		t.Fatalf("replay filter grew to %d/%d entries", len(ts.used), len(ts.usedOrder))
	}
}

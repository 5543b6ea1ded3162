package securelink

import (
	"bytes"
	"testing"
	"time"
)

func TestCookieMintVerify(t *testing.T) {
	s, err := NewCookieSource(0)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("hello-nonce-0123")
	c := s.Mint("10.0.0.1:4040", nonce)
	if len(c) != CookieLen {
		t.Fatalf("cookie length %d, want %d", len(c), CookieLen)
	}
	if !s.Verify("10.0.0.1:4040", nonce, c) {
		t.Fatal("freshly minted cookie does not verify")
	}
	// A cookie is bound to both the address and the nonce.
	if s.Verify("10.0.0.2:4040", nonce, c) {
		t.Fatal("cookie verified for a different address")
	}
	if s.Verify("10.0.0.1:4040", []byte("other-nonce-0123"), c) {
		t.Fatal("cookie verified for a different nonce")
	}
	// Bit-flips and wrong lengths are refused.
	bad := append([]byte(nil), c...)
	bad[0] ^= 0x01
	if s.Verify("10.0.0.1:4040", nonce, bad) {
		t.Fatal("corrupted cookie verified")
	}
	if s.Verify("10.0.0.1:4040", nonce, c[:CookieLen-1]) {
		t.Fatal("short cookie verified")
	}
	if s.Verify("10.0.0.1:4040", nonce, nil) {
		t.Fatal("empty cookie verified")
	}
}

// A cookie survives exactly one rotation: the previous secret still
// verifies, two rotations back does not.
func TestCookieSurvivesOneRotation(t *testing.T) {
	s, err := NewCookieSource(0)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("rotation-nonce-1")
	c := s.Mint("addr", nonce)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if !s.Verify("addr", nonce, c) {
		t.Fatal("cookie minted one rotation ago does not verify")
	}
	fresh := s.Mint("addr", nonce)
	if bytes.Equal(fresh, c) {
		t.Fatal("rotation did not change the minting secret")
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if s.Verify("addr", nonce, c) {
		t.Fatal("cookie minted two rotations ago still verifies")
	}
	if !s.Verify("addr", nonce, fresh) {
		t.Fatal("previous-epoch cookie does not verify")
	}
}

// Time-based rotation happens lazily on use once the interval elapses.
func TestCookieTimedRotation(t *testing.T) {
	s, err := NewCookieSource(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1_700_000_000, 0)
	s.keys.now = func() time.Time { return clock }
	s.keys.nextRot = clock.Add(time.Hour)

	nonce := []byte("timed-nonce-0123")
	c := s.Mint("addr", nonce)

	clock = clock.Add(61 * time.Minute) // one rotation due
	if !s.Verify("addr", nonce, c) {
		t.Fatal("cookie did not survive its first timed rotation")
	}
	c2 := s.Mint("addr", nonce)

	clock = clock.Add(61 * time.Minute) // second rotation due
	if s.Verify("addr", nonce, c) {
		t.Fatal("cookie survived two timed rotations")
	}
	if !s.Verify("addr", nonce, c2) {
		t.Fatal("one-interval-old cookie refused")
	}
}

// Regression: a quiet period spanning several rotation intervals must
// retire a pre-gap cookie. An earlier lazy rotation performed at most
// one rotation per use regardless of elapsed time, so the ancient
// secret landed in the previous slot and the cookie still verified.
func TestCookieQuietPeriodRetiresOldSecrets(t *testing.T) {
	s, err := NewCookieSource(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1_700_000_000, 0)
	s.keys.now = func() time.Time { return clock }
	s.keys.nextRot = clock.Add(time.Hour)

	nonce := []byte("quiet-nonce-0123")
	c := s.Mint("addr", nonce)

	// 2.5 intervals of silence: two rotations are due, so both secret
	// slots postdate the mint and the cookie must be dead.
	clock = clock.Add(150 * time.Minute)
	if s.Verify("addr", nonce, c) {
		t.Fatal("cookie minted before a two-interval quiet period still verifies")
	}

	// 1.5 intervals of silence: only one rotation due, the mint-time
	// secret sits in the previous slot, the cookie must still verify.
	c2 := s.Mint("addr", nonce)
	clock = clock.Add(90 * time.Minute)
	if !s.Verify("addr", nonce, c2) {
		t.Fatal("cookie minted within one interval of the quiet period was retired")
	}
}

func TestRotationsDue(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	next := base.Add(time.Hour)
	cases := []struct {
		elapsed time.Duration
		want    int
	}{
		{0, 0},
		{59 * time.Minute, 0},
		{60 * time.Minute, 1},
		{90 * time.Minute, 1},
		{120 * time.Minute, 2},
		{150 * time.Minute, 2},
		{24 * time.Hour, 2},
	}
	for _, c := range cases {
		if got := rotationsDue(base.Add(c.elapsed), next, time.Hour); got != c.want {
			t.Errorf("rotationsDue(+%v) = %d, want %d", c.elapsed, got, c.want)
		}
	}
	if got := rotationsDue(base.Add(time.Hour), next, 0); got != 0 {
		t.Errorf("rotationsDue with disabled interval = %d, want 0", got)
	}
}

// Distinct sources never accept each other's cookies (independent
// random secrets).
func TestCookieSourcesAreIndependent(t *testing.T) {
	a, err := NewCookieSource(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCookieSource(0)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("cross-nonce-0123")
	if b.Verify("addr", nonce, a.Mint("addr", nonce)) {
		t.Fatal("cookie from one source verified by another")
	}
}

package securelink

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"time"
)

// CookieLen is the length of a minted handshake cookie: a truncated
// HMAC-SHA256. 16 bytes (128 bits) keeps forgery negligible while
// keeping the HELLO retry small.
const CookieLen = 16

// keyPair is the lazily rotated (current, previous) key pair behind
// CookieSource and TicketSource. Keys rotate on a fixed interval, on use,
// and a credential minted under the previous key still verifies, so an
// honest client's echo never races a rotation and two intervals bound a
// credential's life. Both slots start keyed: a previous key nobody
// minted under verifies nothing, so the slot needs no validity flag. Its
// owner's mutex guards it.
type keyPair[K any] struct {
	cur, prev K
	// epoch counts rotations, naming the current key; the previous key
	// is epoch-1.
	epoch    uint8
	interval time.Duration
	nextRot  time.Time
	newKey   func() (K, error)
	now      func() time.Time // test hook; time.Now outside tests
}

// newKeyPair keys both slots from newKey; interval 0 or negative
// disables time-based rotation (rotate still works).
func newKeyPair[K any](interval time.Duration, newKey func() (K, error)) (keyPair[K], error) {
	p := keyPair[K]{interval: interval, newKey: newKey, now: time.Now}
	var err error
	if p.prev, err = newKey(); err != nil {
		return p, err
	}
	if p.cur, err = newKey(); err != nil {
		return p, err
	}
	if interval > 0 {
		p.nextRot = p.now().Add(interval)
	}
	return p, nil
}

// rotate retires the current key to the previous slot and installs a
// fresh one. A key failure (exhausted entropy source) changes nothing.
func (p *keyPair[K]) rotate() error {
	k, err := p.newKey()
	if err != nil {
		return err
	}
	p.prev, p.cur = p.cur, k
	p.epoch++
	if p.interval > 0 {
		p.nextRot = p.now().Add(p.interval)
	}
	return nil
}

// rotateDue applies every time-based rotation that has come due since
// the last use, not just one: after a quiet period spanning two or more
// intervals, a single rotation would park the pre-gap key in the
// previous slot and an arbitrarily old credential would still verify,
// breaking the "two intervals bound a credential's life" contract. A
// rotation failure keeps the old key — stale credentials are a smaller
// hazard than an unkeyed source.
func (p *keyPair[K]) rotateDue() {
	due := rotationsDue(p.now(), p.nextRot, p.interval)
	for i := 0; i < due; i++ {
		if p.rotate() != nil {
			return
		}
	}
}

// rotationsDue returns how many rotations a lazily-rotated secret pair
// owes at time now, given the next scheduled rotation and the interval:
// zero before the deadline, otherwise one per elapsed interval since it,
// capped at two — both slots hold fresh secrets after two, so older
// epochs are unrepresentable and further rotations would only burn
// entropy.
func rotationsDue(now, nextRot time.Time, interval time.Duration) int {
	if interval <= 0 || now.Before(nextRot) {
		return 0
	}
	due := 1 + int(now.Sub(nextRot)/interval)
	if due > 2 {
		due = 2
	}
	return due
}

// CookieSource mints and verifies stateless handshake cookies: a keyed
// MAC over the client's transport address and HELLO nonce under a
// rotating server secret. The server keeps no per-client state — a valid
// cookie proves only that the sender can receive datagrams at the source
// address it claims, which is exactly the property a spoofed-source
// flood lacks. A cookie verifies under the current or previous secret
// (keyPair), so two rotation intervals bound its life.
type CookieSource struct {
	mu   sync.Mutex
	keys keyPair[[32]byte]
}

// NewCookieSource creates a source whose secret rotates every interval
// (0 or negative disables time-based rotation; Rotate still works).
func NewCookieSource(interval time.Duration) (*CookieSource, error) {
	keys, err := newKeyPair(interval, func() (k [32]byte, err error) {
		_, err = rand.Read(k[:])
		return k, err
	})
	if err != nil {
		return nil, err
	}
	return &CookieSource{keys: keys}, nil
}

// Rotate retires the current secret to the previous slot and installs a
// fresh one. Cookies minted under the retired secret keep verifying
// until the next rotation.
func (s *CookieSource) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys.rotate()
}

// cookieMAC computes the truncated cookie MAC for (addr, nonce) under
// key. The address is length-prefixed so (addr, nonce) pairs cannot
// collide across a boundary shift.
func cookieMAC(key [32]byte, addr string, nonce []byte) []byte {
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte("securelink cookie v1"))
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(addr)))
	mac.Write(n[:])
	mac.Write([]byte(addr))
	mac.Write(nonce)
	return mac.Sum(nil)[:CookieLen]
}

// Mint returns the cookie for a HELLO from addr carrying nonce.
func (s *CookieSource) Mint(addr string, nonce []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys.rotateDue()
	return cookieMAC(s.keys.cur, addr, nonce)
}

// Verify reports whether cookie is valid for (addr, nonce) under the
// current or previous secret. Constant-time per comparison.
func (s *CookieSource) Verify(addr string, nonce, cookie []byte) bool {
	if len(cookie) != CookieLen {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys.rotateDue()
	return hmac.Equal(cookie, cookieMAC(s.keys.cur, addr, nonce)) ||
		hmac.Equal(cookie, cookieMAC(s.keys.prev, addr, nonce))
}

// Handshake key schedule: the Noise-style AKE primitives behind the
// wire protocol (shieldd HELLO → CHALLENGE2 → sealed HELLO-ACK).
//
// The schedule is a chaining-key/transcript-hash pair in the style of
// the Noise framework: every handshake message's bytes are mixed into
// the transcript hash, and every secret input — the provisioned master
// PSK, the X25519 ephemeral-ephemeral shared secret, or a resumption
// secret — is mixed into the chaining key with an HKDF extract step.
// The final session secret binds both, so:
//
//   - Forward secrecy: a later compromise of the master PSK cannot
//     reconstruct the session secret of a recorded full handshake (the
//     ephemeral DH private keys are gone), unlike a PSK-only derivation,
//     which is a pure function of the master and two public nonces
//     (sectest keeps one as its attack target).
//   - Transcript binding: an active attacker who rewrites any handshake
//     field (key share, nonce, announced version, scenario options)
//     desynchronizes the two ends' transcripts, so the sealed HELLO-ACK
//     fails to open and the handshake dies instead of completing with
//     attacker-chosen parameters.
//   - PSK authentication: without the master, an active
//     man-in-the-middle cannot compute the chaining key even though it
//     can substitute its own ephemerals.
//
// Resumption: SessionSecret/ResumptionSecret are both expanded from the
// final (ck, h) under distinct labels. The resumption secret seeds the
// next handshake's key schedule in place of a fresh DH — it was derived
// from a DH-bearing session, so resumed sessions inherit forward
// secrecy against master compromise. TicketSource wraps resumption
// secrets into single-use sealed tickets so the server stays stateless
// about them. HKDF is implemented directly on HMAC-SHA256 (RFC 5869,
// single-block output) — this repo takes no dependencies.
package securelink

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"time"
)

// HandshakeLabelV4 is the domain-separation label of the wire protocol
// handshake (wire.Version 4); both ends must start their key schedule
// from it.
const HandshakeLabelV4 = "heartshield handshake v4"

// KeyShareLen is the length of an X25519 key share on the wire.
const KeyShareLen = 32

// hkdfExtract is RFC 5869 extract: PRK = HMAC-SHA256(salt, ikm).
func hkdfExtract(salt, ikm []byte) [32]byte {
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// hkdfExpand32 is RFC 5869 expand truncated to one block:
// T(1) = HMAC-SHA256(prk, info || 0x01).
func hkdfExpand32(prk [32]byte, info string) []byte {
	mac := hmac.New(sha256.New, prk[:])
	mac.Write([]byte(info))
	mac.Write([]byte{1})
	return mac.Sum(nil)
}

// Handshake is the v4 key schedule state: a chaining key ck absorbing
// every secret input and a transcript hash h absorbing every handshake
// message. It is not safe for concurrent use; each handshake owns one.
type Handshake struct {
	ck [32]byte
	h  [32]byte
}

// NewHandshake starts a key schedule under a protocol label. Both ends
// must mix the same messages and keys in the same order.
func NewHandshake(label string) *Handshake {
	hs := &Handshake{}
	hs.h = sha256.Sum256([]byte(label))
	hs.ck = hs.h
	return hs
}

// MixHash absorbs one handshake message's bytes into the transcript:
// h = SHA-256(h || data).
func (hs *Handshake) MixHash(data []byte) {
	d := sha256.New()
	d.Write(hs.h[:])
	d.Write(data)
	copy(hs.h[:], d.Sum(nil))
}

// MixKey absorbs one secret input (PSK, DH shared secret, resumption
// secret) into the chaining key: ck = HKDF-Extract(ck, ikm).
func (hs *Handshake) MixKey(ikm []byte) {
	hs.ck = hkdfExtract(hs.ck[:], ikm)
}

// SessionSecret derives the session pairing secret from the final
// schedule state; feed it to Pair. The transcript hash is extracted into
// the derivation, so any message tampering yields disagreeing keys.
func (hs *Handshake) SessionSecret() []byte {
	return hkdfExpand32(hkdfExtract(hs.ck[:], hs.h[:]), "session")
}

// ResumptionSecret derives the secret a resumed handshake mixes in place
// of a fresh DH. Distinct label, so it never equals the session secret.
func (hs *Handshake) ResumptionSecret() []byte {
	return hkdfExpand32(hkdfExtract(hs.ck[:], hs.h[:]), "resumption")
}

// KeySchedule runs the wire protocol's v4 key schedule, which both ends
// must run identically: the HELLO transcript bytes and the encoded
// CHALLENGE2 into the transcript hash under HandshakeLabelV4, then the
// master psk and the handshake's second secret — the X25519 shared
// secret of a full handshake, or the resumption secret a resumed one
// redeems — into the chaining key. It returns the session secret (for
// Pair) and the resumption secret the next handshake may resume with.
func KeySchedule(psk, hello, challenge, secret []byte) (session, resumption []byte) {
	hs := NewHandshake(HandshakeLabelV4)
	hs.MixHash(hello)
	hs.MixHash(challenge)
	hs.MixKey(psk)
	hs.MixKey(secret)
	return hs.SessionSecret(), hs.ResumptionSecret()
}

// Ephemeral is one handshake's X25519 ephemeral key pair.
type Ephemeral struct {
	priv *ecdh.PrivateKey
}

// NewEphemeral generates a fresh X25519 key pair.
func NewEphemeral() (*Ephemeral, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Ephemeral{priv: priv}, nil
}

// Public returns the 32-byte public key share for the wire.
func (e *Ephemeral) Public() []byte {
	return e.priv.PublicKey().Bytes()
}

// Shared computes the X25519 shared secret with the peer's key share.
// Malformed shares and low-order points (all-zero shared secrets) are
// rejected by crypto/ecdh.
func (e *Ephemeral) Shared(peerShare []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerShare)
	if err != nil {
		return nil, err
	}
	return e.priv.ECDH(pub)
}

// --- resumption tickets -------------------------------------------------

// Ticket layout: epoch(1) || nonce(12) || AES-256-GCM(rms(32) ||
// expiryUnixNano(8) || addr) with the epoch byte as AAD. The ticket is
// opaque to the client; only the issuing server can open it.
const (
	ticketNonceLen = 12
	ticketRMSLen   = 32
	// maxUsedTickets bounds the single-use replay filter; beyond it the
	// oldest entries are evicted (tickets also expire on their own, so
	// the filter only has to span a lifetime of mints).
	maxUsedTickets = 8192
)

// ErrTicket reports a resumption ticket that failed to mint or parse.
var ErrTicket = errors.New("securelink: invalid resumption ticket")

// TicketSource mints and redeems single-use session-resumption tickets:
// a resumption secret sealed under a rotating server key, carrying its
// expiry and the transport address it was issued to. Like CookieSource,
// secrets rotate lazily on use and the previous epoch's tickets keep
// verifying, so a ticket's life is bounded by min(lifetime, two
// rotation intervals). Redeem is single-use (a bounded replay filter),
// so an eavesdropper replaying a harvested ticket cannot even start a
// second resumed handshake — and could not finish one regardless,
// because the resumption secret inside never travels in plaintext.
type TicketSource struct {
	mu        sync.Mutex
	keys      keyPair[cipher.AEAD]
	lifetime  time.Duration
	used      map[string]struct{}
	usedOrder []string
}

// NewTicketSource creates a source whose sealing key rotates every
// interval (0 or negative disables time-based rotation) and whose
// tickets expire after lifetime.
func NewTicketSource(interval, lifetime time.Duration) (*TicketSource, error) {
	keys, err := newKeyPair(interval, func() (cipher.AEAD, error) {
		var key [32]byte
		if _, err := rand.Read(key[:]); err != nil {
			return nil, err
		}
		return newAEAD(key[:])
	})
	if err != nil {
		return nil, err
	}
	return &TicketSource{keys: keys, lifetime: lifetime, used: make(map[string]struct{})}, nil
}

// Mint seals a resumption secret into a ticket bound to the issuing
// transport address addr, expiring after the source's lifetime.
func (t *TicketSource) Mint(rms []byte, addr string) ([]byte, error) {
	if len(rms) != ticketRMSLen {
		return nil, ErrTicket
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keys.rotateDue()
	ticket := make([]byte, 1+ticketNonceLen, 1+ticketNonceLen+ticketRMSLen+8+len(addr)+16)
	ticket[0] = t.keys.epoch
	if _, err := rand.Read(ticket[1 : 1+ticketNonceLen]); err != nil {
		return nil, err
	}
	pt := make([]byte, 0, ticketRMSLen+8+len(addr))
	pt = append(pt, rms...)
	pt = binary.BigEndian.AppendUint64(pt, uint64(t.keys.now().Add(t.lifetime).UnixNano()))
	pt = append(pt, addr...)
	return t.keys.cur.Seal(ticket, ticket[1:1+ticketNonceLen], pt, ticket[:1]), nil
}

// openLocked decrypts a ticket under whichever epoch key its epoch byte
// names, returning the resumption secret and the issuing address.
// Expired tickets and tickets from retired epochs fail.
func (t *TicketSource) openLocked(ticket []byte) (rms []byte, addr string, ok bool) {
	if len(ticket) < 1+ticketNonceLen+ticketRMSLen+8+16 {
		return nil, "", false
	}
	var aead cipher.AEAD
	switch ticket[0] {
	case t.keys.epoch:
		aead = t.keys.cur
	case t.keys.epoch - 1:
		aead = t.keys.prev
	default:
		return nil, "", false
	}
	pt, err := aead.Open(nil, ticket[1:1+ticketNonceLen], ticket[1+ticketNonceLen:], ticket[:1])
	if err != nil {
		return nil, "", false
	}
	if len(pt) < ticketRMSLen+8 {
		return nil, "", false
	}
	expiry := int64(binary.BigEndian.Uint64(pt[ticketRMSLen:]))
	if t.keys.now().UnixNano() >= expiry {
		return nil, "", false
	}
	return pt[:ticketRMSLen], string(pt[ticketRMSLen+8:]), true
}

// Peek reports whether a ticket would redeem for a handshake from addr:
// valid, unexpired, not yet used, and issued to exactly that transport
// address. It consumes nothing — the datagram admission gate uses it as
// a stateless cookie substitute (the ticket proves a prior completed
// handshake from the same address), and the later Redeem still decides.
func (t *TicketSource) Peek(ticket []byte, addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keys.rotateDue()
	if _, used := t.used[string(ticket)]; used {
		return false
	}
	rms, issued, ok := t.openLocked(ticket)
	if ok {
		wipe(rms)
	}
	return ok && issued == addr
}

// Redeem opens a ticket and consumes it: a second Redeem of the same
// bytes fails. Returns the resumption secret the next key schedule
// should mix.
func (t *TicketSource) Redeem(ticket []byte) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keys.rotateDue()
	if _, used := t.used[string(ticket)]; used {
		return nil, false
	}
	rms, _, ok := t.openLocked(ticket)
	if !ok {
		return nil, false
	}
	key := string(ticket)
	t.used[key] = struct{}{}
	t.usedOrder = append(t.usedOrder, key)
	if len(t.usedOrder) > maxUsedTickets {
		delete(t.used, t.usedOrder[0])
		t.usedOrder = t.usedOrder[1:]
	}
	return rms, true
}

func wipe(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Package securelink implements the authenticated encrypted channel
// between the shield and authorized programmers (§4 of the paper assumes
// such a channel exists; the pairing itself can be in-band or out-of-band).
// It provides AES-256-GCM sealing with directional keys derived from a
// shared pairing secret and sequence numbers for replay protection.
//
// Two extensions support long-lived links (the shieldd session server):
//
//   - A receive window (SetWindow) tolerates bounded reordering instead of
//     requiring strictly increasing sequence numbers, while still rejecting
//     every replay. The default window of 0 keeps the strict behaviour.
//   - A deterministic rekey ratchet (EnableRekey) advances each direction's
//     key every N messages; both ends ratchet from the message sequence
//     number alone, so no extra handshake traffic is needed and a link can
//     outlive the safe lifetime of a single AES-GCM key.
//
// Concurrency: Seal is safe for concurrent use — sequence assignment,
// the send-side rekey ratchet, and encryption happen atomically under an
// internal mutex, so pipelined senders never reuse a nonce or observe a
// torn key state. Open must still be driven by a single goroutine per
// link (the receive window state is not locked); the shieldd mux gives
// each connection exactly one reader. Stats may be read from any
// goroutine at any time.
package securelink

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
)

// Errors returned by Open.
var (
	ErrAuth   = errors.New("securelink: authentication failed")
	ErrReplay = errors.New("securelink: replayed or reordered message")
	ErrShort  = errors.New("securelink: ciphertext too short")
)

// maxWindow bounds the receive window to the bitmask representation:
// winMask bit j tracks the sequence j positions behind the highest
// accepted one, and bit 0 is the highest itself, leaving 63 usable
// look-behind positions.
const maxWindow = 63

// maxEpochSkip bounds how many rekey epochs Open will ratchet forward for
// a single message; a forged far-future sequence number must not buy the
// attacker an unbounded chain of HMAC work.
const maxEpochSkip = 1 << 12

// Link is one directional pair of AEAD states: messages sealed by one end
// open only at the peer, and each direction enforces replay-free sequence
// numbers (strictly increasing by default, or within a bounded reordering
// window when SetWindow is used).
type Link struct {
	// sendMu serializes Seal: sequence assignment, send-side rekeying,
	// and encryption are one atomic step under it.
	sendMu sync.Mutex

	send cipher.AEAD
	recv cipher.AEAD
	// sendKey/recvKey are the current epoch keys, retained so the rekey
	// ratchet can derive the next epoch.
	sendKey []byte
	recvKey []byte

	// stats counters (atomic so Stats can snapshot from any goroutine).
	stMsgsSealed    atomic.Uint64
	stBytesSealed   atomic.Uint64
	stMsgsOpened    atomic.Uint64
	stBytesOpened   atomic.Uint64
	stRekeys        atomic.Uint64
	stReplayDrops   atomic.Uint64
	stLateDrops     atomic.Uint64
	stWindowAccepts atomic.Uint64
	stAuthFails     atomic.Uint64

	sendSeq uint64
	recvSeq uint64 // highest sequence accepted so far + 1

	// window (0 = strict ordering) admits out-of-order sequence numbers up
	// to window positions behind the highest accepted one; winMask bit j
	// records that sequence recvSeq-1-j was already accepted.
	window  uint64
	winMask uint64

	// rekeyEvery (0 = never) rekeys each direction every rekeyEvery
	// messages: epoch(seq) = seq / rekeyEvery.
	rekeyEvery uint64
	sendEpoch  uint64
	recvEpoch  uint64
}

// deriveKey expands the pairing secret into a directional 32-byte key.
func deriveKey(secret []byte, label string) []byte {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(label))
	return mac.Sum(nil)
}

// ratchetKey derives the next epoch's key from the current one.
func ratchetKey(key []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("securelink rekey v1"))
	return mac.Sum(nil)
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Pair derives the two ends of a shield↔programmer link from a shared
// pairing secret. The first return value belongs to the shield, the second
// to the programmer.
func Pair(secret []byte) (*Link, *Link, error) {
	s2pKey := deriveKey(secret, "shield->programmer")
	p2sKey := deriveKey(secret, "programmer->shield")
	s2p, err := newAEAD(s2pKey)
	if err != nil {
		return nil, nil, err
	}
	p2s, err := newAEAD(p2sKey)
	if err != nil {
		return nil, nil, err
	}
	shield := &Link{send: s2p, recv: p2s, sendKey: s2pKey, recvKey: p2sKey}
	prog := &Link{send: p2s, recv: s2p, sendKey: p2sKey, recvKey: s2pKey}
	return shield, prog, nil
}

// SetWindow sets the receive reordering window: a message whose sequence
// number is up to n positions behind the highest accepted one is still
// accepted if it was never seen before. n is clamped to 63. Call it on
// both ends before any traffic; 0 restores strict ordering.
func (l *Link) SetWindow(n int) {
	if n < 0 {
		n = 0
	}
	if n > maxWindow {
		n = maxWindow
	}
	l.window = uint64(n)
}

// EnableRekey makes both directions of this end ratchet their keys every
// `every` messages. Both ends of the link must enable the same interval
// before any traffic; 0 disables rekeying. The receive window never spans
// a rekey boundary: once a direction advances to a new epoch, messages
// from older epochs are rejected as replays.
func (l *Link) EnableRekey(every uint64) {
	l.rekeyEvery = every
}

// epoch returns the rekey epoch a sequence number belongs to.
func (l *Link) epoch(seq uint64) uint64 {
	if l.rekeyEvery == 0 {
		return 0
	}
	return seq / l.rekeyEvery
}

// Seal encrypts and authenticates plaintext, framing it with the sequence
// number used as the GCM nonce. The output is seq(8) || ciphertext. Seal
// is safe for concurrent use; each call atomically claims the next
// sequence number.
func (l *Link) Seal(plaintext []byte) []byte {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	if e := l.epoch(l.sendSeq); e > l.sendEpoch {
		for l.sendEpoch < e {
			l.sendKey = ratchetKey(l.sendKey)
			l.sendEpoch++
			l.stRekeys.Add(1)
		}
		aead, err := newAEAD(l.sendKey)
		if err != nil {
			panic("securelink: rekey failed: " + err.Error())
		}
		l.send = aead
	}
	var nonce [12]byte
	binary.BigEndian.PutUint64(nonce[4:], l.sendSeq)
	out := make([]byte, 8, 8+len(plaintext)+l.send.Overhead())
	binary.BigEndian.PutUint64(out, l.sendSeq)
	l.sendSeq++
	sealed := l.send.Seal(out, nonce[:], plaintext, out[:8])
	l.stMsgsSealed.Add(1)
	l.stBytesSealed.Add(uint64(len(sealed)))
	return sealed
}

// Open authenticates and decrypts a message sealed by the peer, rejecting
// replays. With the default window of 0, sequence numbers must strictly
// increase; with SetWindow(n), bounded reordering is tolerated. Failed
// messages never advance any receive state.
func (l *Link) Open(msg []byte) ([]byte, error) {
	if len(msg) < 8 {
		return nil, ErrShort
	}
	seq := binary.BigEndian.Uint64(msg[:8])

	// Replay/window admission check (no state change yet).
	behind := uint64(0) // how far behind the highest accepted seq, 0 = forward
	if l.recvSeq > 0 && seq < l.recvSeq {
		behind = (l.recvSeq - 1) - seq
		if behind > l.window {
			// Too far behind to ever have been tracked: a late arrival
			// (or, with window == 0, any out-of-order delivery).
			l.stLateDrops.Add(1)
			return nil, ErrReplay
		}
		if behind == 0 {
			// seq == highest accepted: always a replay.
			l.stReplayDrops.Add(1)
			return nil, ErrReplay
		}
		if l.winMask>>behind&1 == 1 {
			l.stReplayDrops.Add(1)
			return nil, ErrReplay
		}
	}

	// Resolve the epoch key without committing state.
	aead := l.recv
	e := l.epoch(seq)
	newKey := l.recvKey
	if e != l.recvEpoch {
		if e < l.recvEpoch {
			l.stReplayDrops.Add(1)
			return nil, ErrReplay
		}
		if e-l.recvEpoch > maxEpochSkip {
			l.stAuthFails.Add(1)
			return nil, ErrAuth
		}
		for k := l.recvEpoch; k < e; k++ {
			newKey = ratchetKey(newKey)
		}
		var err error
		aead, err = newAEAD(newKey)
		if err != nil {
			l.stAuthFails.Add(1)
			return nil, ErrAuth
		}
	}

	var nonce [12]byte
	binary.BigEndian.PutUint64(nonce[4:], seq)
	pt, err := aead.Open(nil, nonce[:], msg[8:], msg[:8])
	if err != nil {
		l.stAuthFails.Add(1)
		return nil, ErrAuth
	}
	l.stMsgsOpened.Add(1)
	l.stBytesOpened.Add(uint64(len(msg)))

	// Commit: epoch advance wipes the window (it never spans epochs).
	if e > l.recvEpoch {
		l.stRekeys.Add(e - l.recvEpoch)
		l.recvKey = newKey
		l.recvEpoch = e
		l.recv = aead
		l.recvSeq = seq + 1
		l.winMask = 1
		return pt, nil
	}
	if behind > 0 {
		l.winMask |= 1 << behind
		l.stWindowAccepts.Add(1)
		return pt, nil
	}
	shift := seq + 1 - l.recvSeq // ≥ 1: new highest sequence
	if l.recvSeq == 0 || shift >= 64 {
		l.winMask = 1
	} else {
		l.winMask = l.winMask<<shift | 1
	}
	l.recvSeq = seq + 1
	return pt, nil
}

// Stats is a point-in-time snapshot of a link's traffic counters. Bytes
// are wire bytes (sealed frames including the sequence prefix and GCM
// tag); Rekeys counts epoch advances in both directions of this end.
//
// The three receive-window counters tell the loss story of an unreliable
// transport apart: WindowAccepts counts messages that arrived out of
// order but inside the window (reordering the window absorbed),
// ReplayDrops counts duplicates of messages already accepted (network
// dups and replays, including old-epoch arrivals), and LateDrops counts
// messages that fell behind the window entirely before arriving.
type Stats struct {
	MsgsSealed    uint64
	BytesSealed   uint64
	MsgsOpened    uint64
	BytesOpened   uint64
	Rekeys        uint64
	ReplayDrops   uint64
	LateDrops     uint64
	WindowAccepts uint64
	AuthFails     uint64
}

// Stats snapshots the link's counters. Safe to call from any goroutine.
func (l *Link) Stats() Stats {
	return Stats{
		MsgsSealed:    l.stMsgsSealed.Load(),
		BytesSealed:   l.stBytesSealed.Load(),
		MsgsOpened:    l.stMsgsOpened.Load(),
		BytesOpened:   l.stBytesOpened.Load(),
		Rekeys:        l.stRekeys.Load(),
		ReplayDrops:   l.stReplayDrops.Load(),
		LateDrops:     l.stLateDrops.Load(),
		WindowAccepts: l.stWindowAccepts.Load(),
		AuthFails:     l.stAuthFails.Load(),
	}
}

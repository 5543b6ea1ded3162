// Package sectest is the adversarial harness behind the handshake
// security wall (`make seccheck`): a transcript recorder, an offline
// attacker that tries to recover session keys from a recording plus the
// long-term master secret, a hand-rolled handshake the tests can drive
// with stolen or replayed credentials, and a frame-rewriting MITM relay
// for version-rewrite and key-substitution attacks.
//
// The attacker here is deliberately strong: it knows the protocol, the
// key schedule, and the provisioned master secret. What it never holds
// is an ephemeral private key or a resumption secret — exactly the
// material the handshake puts between a recorded session and a later
// key compromise. No production peer speaks a PSK-only handshake any
// more, so the harness keeps one (pskOnlySecret) as the target that
// proves the attacker still works.
package sectest

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync"

	"heartshield/internal/securelink"
	"heartshield/internal/wire"
)

// Recording is one session's transcript, split by direction, as transport
// frames in send order.
type Recording struct {
	ClientFrames [][]byte // frames the client wrote
	ServerFrames [][]byte // frames the server wrote
}

// TapConn wraps a stream transport and records both directions. Safe for
// the one-reader/any-writers discipline shieldd clients follow.
type TapConn struct {
	net.Conn
	mu   sync.Mutex
	sent bytes.Buffer
	rcvd bytes.Buffer
}

// NewTapConn wraps conn with a transcript recorder.
func NewTapConn(conn net.Conn) *TapConn { return &TapConn{Conn: conn} }

func (t *TapConn) Write(b []byte) (int, error) {
	t.mu.Lock()
	t.sent.Write(b)
	t.mu.Unlock()
	return t.Conn.Write(b)
}

func (t *TapConn) Read(b []byte) (int, error) {
	n, err := t.Conn.Read(b)
	if n > 0 {
		t.mu.Lock()
		t.rcvd.Write(b[:n])
		t.mu.Unlock()
	}
	return n, err
}

// Recording re-frames the captured byte streams into the transport
// frames they carried.
func (t *TapConn) Recording() (*Recording, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sent, err := reframe(t.sent.Bytes())
	if err != nil {
		return nil, fmt.Errorf("sectest: client stream: %w", err)
	}
	rcvd, err := reframe(t.rcvd.Bytes())
	if err != nil {
		return nil, fmt.Errorf("sectest: server stream: %w", err)
	}
	return &Recording{ClientFrames: sent, ServerFrames: rcvd}, nil
}

func reframe(stream []byte) ([][]byte, error) {
	var frames [][]byte
	r := bytes.NewReader(stream)
	for r.Len() > 0 {
		f, err := wire.ReadFrame(r)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// ErrNotRecovered reports that the offline attack failed: no recorded
// sealed frame opened under any key the attacker could derive.
var ErrNotRecovered = errors.New("sectest: no recorded frame decrypted")

// RecoverSession mounts the retroactive-compromise attack: given a full
// session transcript and the long-term master secret (leaked AFTER the
// recording was made), derive the session keys and decrypt the traffic.
//
// Against a PSK-only handshake this attack succeeds: both handshake
// nonces travel in plaintext, and pskOnlySecret(master, nonces) is all
// there is. Against the AKE the schedule also mixes an X25519
// ephemeral-ephemeral secret (or a prior session's resumption secret),
// neither of which the transcript or the master reveals — the attacker
// runs its best derivations and every frame stays sealed.
func RecoverSession(master []byte, rec *Recording) ([][]byte, error) {
	hello, ch, err := handshakeFrames(rec)
	if err != nil {
		return nil, err
	}
	// The real schedule with every input the attacker holds (transcript
	// + master); the same with the all-zero block a broken
	// implementation would mix for the missing DH/resumption input; and
	// the PSK-only derivation, in case the session secret ever regresses
	// to nonce-only.
	schedule := func(extra ...[]byte) []byte {
		sched := securelink.NewHandshake(securelink.HandshakeLabelV4)
		sched.MixHash(hello.TranscriptBytes())
		sched.MixHash(ch.Encode())
		sched.MixKey(master)
		for _, k := range extra {
			sched.MixKey(k)
		}
		return sched.SessionSecret()
	}
	for _, secret := range [][]byte{schedule(), schedule(make([]byte, 32)), pskOnlySecret(master, hello, ch)} {
		if plain, err := openAll(secret, rec); err == nil {
			return plain, nil
		}
	}
	return nil, ErrNotRecovered
}

// PSKOnlyRecording builds the transcript a session with rec's handshake
// would have left behind under a PSK-only key derivation: rec's
// plaintext HELLO and CHALLENGE2, then a sealed HELLO-ACK and one sealed
// request envelope under pskOnlySecret. It is the recording the
// forward-secrecy leg must keep breaking — if RecoverSession ever fails
// on it, the attacker model broke, not the handshake.
func PSKOnlyRecording(master []byte, rec *Recording) (*Recording, error) {
	hello, ch, err := handshakeFrames(rec)
	if err != nil {
		return nil, err
	}
	shield, prog, err := securelink.Pair(pskOnlySecret(master, hello, ch))
	if err != nil {
		return nil, err
	}
	ack := &wire.HelloAck{Version: wire.Version, SessionID: 1}
	req := &wire.ExchangeReq{IMD: 0, Cmd: wire.CmdInterrogate}
	return &Recording{
		ClientFrames: [][]byte{rec.ClientFrames[0], prog.Seal(wire.EncodeEnvelopeV3(1, 0, 0, req))},
		ServerFrames: [][]byte{rec.ServerFrames[0], shield.Seal(ack.Encode())},
	}, nil
}

// pskOnlySecret is the nonce-only session derivation the handshake
// replaced: HMAC under the master over both public nonces, with nothing
// ephemeral mixed in, so it falls to anyone who later learns the master.
func pskOnlySecret(master []byte, hello *wire.Hello, ch *wire.Challenge2) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte("securelink session v1"))
	mac.Write(hello.Nonce[:])
	mac.Write(ch.ServerNonce[:])
	return mac.Sum(nil)
}

// handshakeFrames decodes a recording's plaintext HELLO and CHALLENGE2.
func handshakeFrames(rec *Recording) (*wire.Hello, *wire.Challenge2, error) {
	if len(rec.ClientFrames) == 0 || len(rec.ServerFrames) == 0 {
		return nil, nil, errors.New("sectest: transcript too short to attack")
	}
	hm, _ := wire.Decode(rec.ClientFrames[0])
	hello, ok := hm.(*wire.Hello)
	if !ok {
		return nil, nil, fmt.Errorf("sectest: first client frame is %T, want HELLO", hm)
	}
	cm, _ := wire.Decode(rec.ServerFrames[0])
	ch, ok := cm.(*wire.Challenge2)
	if !ok {
		return nil, nil, fmt.Errorf("sectest: first server frame is %T, want CHALLENGE2", cm)
	}
	return hello, ch, nil
}

// openAll rebuilds both link directions from a candidate session secret
// and tries every recorded sealed frame, in recorded order (so sequence
// numbers line up if the key is right). Frame 0 of each direction is the
// plaintext handshake and is skipped.
func openAll(sessionSecret []byte, rec *Recording) ([][]byte, error) {
	shield, prog, err := securelink.Pair(sessionSecret)
	if err != nil {
		return nil, err
	}
	var plain [][]byte
	for _, f := range rec.ServerFrames[1:] {
		if p, err := prog.Open(f); err == nil {
			plain = append(plain, p)
		}
	}
	for _, f := range rec.ClientFrames[1:] {
		if p, err := shield.Open(f); err == nil {
			plain = append(plain, p)
		}
	}
	if len(plain) == 0 {
		return nil, ErrNotRecovered
	}
	return plain, nil
}

// V4Handshake is the outcome of one hand-driven handshake.
type V4Handshake struct {
	Link      *securelink.Link
	Version   uint8
	SessionID uint64
	Ticket    []byte // fresh single-use resumption ticket from the ack
	RMS       []byte // the resumption secret that ticket will resume with
	Resumed   bool   // the server resumed from the ticket we presented
}

// RunV4Handshake drives the client side of the stream handshake by hand
// — the attacker-steerable twin of the production client. ticket
// and rms optionally present resumption state; rms == nil models a thief
// holding only the ticket bytes, who must guess the resumption secret
// (the guess is the all-zero block). Returns an error whenever the
// handshake cannot complete — in particular when the sealed HELLO-ACK
// does not open under the keys this end derived.
func RunV4Handshake(conn net.Conn, master []byte, ticket, rms []byte, seed int64) (*V4Handshake, error) {
	eph, err := securelink.NewEphemeral()
	if err != nil {
		return nil, err
	}
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, err
	}
	hello := &wire.Hello{Version: wire.Version, Nonce: nonce, Seed: seed, KeyShare: eph.Public(), Ticket: ticket}
	if err := wire.WriteFrame(conn, hello.Encode()); err != nil {
		return nil, err
	}
	transcript := hello.TranscriptBytes()

	raw, err := wire.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	m, err := wire.Decode(raw)
	if err != nil {
		return nil, err
	}
	ch, ok := m.(*wire.Challenge2)
	if !ok {
		if e, isErr := m.(*wire.Error); isErr {
			return nil, fmt.Errorf("sectest: server refused: %s", e.Msg)
		}
		return nil, fmt.Errorf("sectest: server answered %T, want CHALLENGE2", m)
	}

	sched := securelink.NewHandshake(securelink.HandshakeLabelV4)
	sched.MixHash(transcript)
	sched.MixHash(ch.Encode())
	sched.MixKey(master)
	if ch.Resumed {
		if rms == nil {
			rms = make([]byte, 32) // the thief's best guess
		}
		sched.MixKey(rms)
	} else {
		dh, err := eph.Shared(ch.KeyShare)
		if err != nil {
			return nil, fmt.Errorf("sectest: server key share: %w", err)
		}
		sched.MixKey(dh)
	}
	_, link, err := securelink.Pair(sched.SessionSecret())
	if err != nil {
		return nil, err
	}

	raw, err = wire.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	plain, err := link.Open(raw)
	if err != nil {
		return nil, fmt.Errorf("sectest: sealed ack did not open: %w", err)
	}
	am, err := wire.Decode(plain)
	if err != nil {
		return nil, err
	}
	ack, ok := am.(*wire.HelloAck)
	if !ok {
		return nil, fmt.Errorf("sectest: sealed ack decoded to %T", am)
	}
	return &V4Handshake{
		Link:      link,
		Version:   ack.Version,
		SessionID: ack.SessionID,
		Ticket:    ack.Ticket,
		RMS:       sched.ResumptionSecret(),
		Resumed:   ch.Resumed,
	}, nil
}

// Rewrite inspects one decoded frame in flight and returns the frame to
// forward instead (return the input unchanged to pass it through).
type Rewrite func(wire.Message, []byte) []byte

// RelayFrames is a man-in-the-middle relay between two stream ends: it
// re-frames each direction and passes every frame through the matching
// rewrite hook. Sealed frames do not decode; they are forwarded as-is
// with a nil Message. The relay runs until either side closes.
func RelayFrames(clientSide, serverSide net.Conn, c2s, s2c Rewrite) {
	pump := func(src, dst net.Conn, rw Rewrite) {
		defer dst.Close()
		for {
			f, err := wire.ReadFrame(src)
			if err != nil {
				return
			}
			if rw != nil {
				m, _ := wire.Decode(f) // nil for sealed frames
				f = rw(m, f)
			}
			if err := wire.WriteFrame(dst, f); err != nil {
				return
			}
		}
	}
	go pump(clientSide, serverSide, c2s)
	go pump(serverSide, clientSide, s2c)
}

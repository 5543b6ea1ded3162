package shieldd

import (
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"heartshield/internal/securelink"
	"heartshield/internal/testbed"
	"heartshield/internal/wire"
)

// The handshake machines: one per end of a transport, in the style of
// the session machines, whose action kinds they share. Each event — a
// frame read, plaintext handshake or sealed, or on the client the
// transport's end (frame); the timer firing at now (timeout) — returns
// the actions it causes, in order: send a handshake frame, send a sealed
// frame, arm the timer, commit the session (on the server: hand the
// session a request that opened), or fail with a typed error and close
// the transport. Neither machine imports net, calls time.Now, sleeps or
// starts a goroutine (the server's cookie and ticket sources still read
// the clock inside securelink); each shell keeps one read loop that
// feeds its handshake machine and, after the commit, its session
// machine, and FuzzSessionSchedule opens every session through both.

// clientHandshake is the client's end of one handshake, shared by both
// transports: HELLO → CHALLENGE2 → sealed HELLO-ACK, offering the last
// session's ticket when it has one. On datagrams the first HELLO
// carries no cookie, so the server's stateless gate answers it with one;
// echoing it proves this client receives at its claimed address, and
// only then does the server commit any handshake state. Its actions are
// the client machine's kinds: caHello, caArm, caCommit, and caClose for
// a failure, which err holds.
//
// The rules it keeps:
//
//   - One wait schedule on both transports: step k waits
//     RetryTimeout<<min(k,3) for MaxRetries+1 steps, then the handshake
//     fails with ErrHandshakeTimeout. A datagram client re-sends its
//     HELLO at every step; a stream sends it once.
//   - A COOKIE is echoed at once, at no step's cost: the gate answers
//     every cookie-less HELLO, so the reply races only loss. The cookie
//     is outside the transcript, so the AKE already offered stands.
//   - A BUSY waits out a jittered backoff (busyDelay, from the client's
//     seed-keyed jitter source) on the timer, then re-sends the HELLO
//     and restarts the current step; the MaxRetries+1-th BUSY fails with
//     ErrServerBusy.
//   - Every CHALLENGE2 derives the keys again: a duplicate is
//     byte-identical and derives the same ones, and a server that started
//     over answers with its latest. The session commits on the first
//     sealed HELLO-ACK that opens under them.
//   - On a datagram anything undecodable, unopenable or out of place is
//     dropped; on a stream it fails the handshake, as the transport's end
//     does on both. A refusal (Error) fails it on both, as ErrVersion
//     when the version was refused.
type clientHandshake struct {
	cfg   clientConfig
	hello *wire.Hello
	eph   *securelink.Ephemeral
	// psk is the master secret, transcript the HELLO's transcript bytes,
	// offered the resumption secret of the ticket the HELLO offers.
	psk, transcript, offered []byte
	// step is the schedule's step, busies the BUSY answers so far; busy
	// is set while the timer, due to fire at due, waits out a BUSY.
	step, busies int
	busy         bool
	due          time.Time
	// The keys of the latest CHALLENGE2: the session link, the next
	// resumption secret, and whether the server resumed.
	link    *securelink.Link
	rms     []byte
	resumed bool
	// ack is the HELLO-ACK once committed, err the failure.
	ack  *wire.HelloAck
	err  error
	acts []clientAction
}

// newClientHandshake builds the HELLO for opt with a fresh nonce and key
// share, offering ticket when it and its resumption secret rms are set.
func newClientHandshake(psk []byte, opt SessionOptions, cfg clientConfig, ticket, rms []byte) (*clientHandshake, error) {
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("shieldd: nonce: %w", err)
	}
	hello, err := opt.hello(nonce)
	if err != nil {
		return nil, err
	}
	eph, err := securelink.NewEphemeral()
	if err != nil {
		return nil, fmt.Errorf("shieldd: ephemeral key: %w", err)
	}
	hello.KeyShare = eph.Public()
	h := &clientHandshake{cfg: cfg, hello: hello, eph: eph, psk: psk}
	if len(ticket) > 0 && len(rms) > 0 {
		hello.Ticket, h.offered = ticket, rms
	}
	h.transcript = hello.TranscriptBytes()
	return h, nil
}

// over reports whether the handshake committed or failed.
func (h *clientHandshake) over() bool { return h.ack != nil || h.err != nil }

// start sends the first HELLO and arms step 0.
func (h *clientHandshake) start(now time.Time) []clientAction {
	h.acts = h.acts[:0]
	h.next(now, true)
	return h.acts
}

// frame takes one read: a plaintext handshake frame (hs), a sealed
// frame, or the transport's end (err).
func (h *clientHandshake) frame(p []byte, hs bool, err error, now time.Time) []clientAction {
	h.acts = h.acts[:0]
	switch {
	case h.over():
	case err != nil:
		h.fail(fmt.Errorf("shieldd: handshake read: %w", err))
	case !hs:
		var ack *wire.HelloAck
		if h.link != nil {
			if plain, err := h.link.Open(p); err == nil {
				m, _ := wire.Decode(plain)
				ack, _ = m.(*wire.HelloAck)
			}
		}
		switch {
		case ack == nil && h.cfg.lossy:
		case ack == nil:
			h.fail(errors.New("shieldd: handshake: no valid sealed HELLO-ACK"))
		case ack.Version != wire.Version:
			h.fail(fmt.Errorf("%w: server acked v%d", ErrVersion, ack.Version))
		default:
			h.ack = ack
			h.acts = append(h.acts, clientAction{kind: caArm}, clientAction{kind: caCommit})
		}
	default:
		h.handshakeFrame(p, now)
	}
	return h.acts
}

// handshakeFrame takes a plaintext handshake frame.
func (h *clientHandshake) handshakeFrame(p []byte, now time.Time) {
	msg, err := wire.Decode(p)
	switch m := msg.(type) {
	case *wire.Error:
		if m.Code == wire.CodeVersion {
			h.fail(fmt.Errorf("%w: %s", ErrVersion, m.Msg))
		} else {
			h.fail(m)
		}
	case *wire.Cookie:
		h.hello.Cookie = m.Cookie
		h.acts = append(h.acts, clientAction{kind: caHello, frame: h.hello.Encode()})
	case *wire.Busy:
		if h.busies++; h.busies > h.cfg.maxTries {
			h.fail(fmt.Errorf("%w: handshake refused %d times", ErrServerBusy, h.busies))
			break
		}
		h.busy, h.due = true, now.Add(busyDelay(time.Duration(m.RetryAfterMillis)*time.Millisecond, h.cfg.rto, h.busies-1, h.cfg.backoff))
		h.acts = append(h.acts, clientAction{kind: caArm, at: h.due})
	case *wire.Challenge2:
		if err := h.derive(m); err != nil {
			h.fail(err)
		}
	default:
		if !h.cfg.lossy {
			h.fail(fmt.Errorf("shieldd: unexpected handshake reply %T (%v)", msg, err))
		}
	}
}

// derive mirrors the server's key schedule against ch. Any tampering
// with the handshake messages desynchronizes the transcript here, so
// the sealed HELLO-ACK that follows fails to open.
func (h *clientHandshake) derive(ch *wire.Challenge2) (err error) {
	secret := h.offered
	if ch.Resumed && h.offered == nil {
		return errors.New("shieldd: server resumed a session this client did not offer")
	} else if !ch.Resumed {
		if secret, err = h.eph.Shared(ch.KeyShare); err != nil {
			return fmt.Errorf("shieldd: server key share: %w", err)
		}
	}
	session, rms := securelink.KeySchedule(h.psk, h.transcript, ch.Encode(), secret)
	_, link, err := securelink.Pair(session)
	if err == nil {
		h.link, h.rms, h.resumed = armLink(link), rms, ch.Resumed
	}
	return err
}

// timeout takes the timer firing at now; an early firing, from a timer
// re-armed while it fired, changes nothing. After a BUSY backoff the
// HELLO goes again and the step restarts; otherwise the next step
// begins, or the schedule is out.
func (h *clientHandshake) timeout(now time.Time) []clientAction {
	h.acts = h.acts[:0]
	switch {
	case h.over() || now.Before(h.due):
	case h.busy:
		h.busy = false
		h.next(now, true)
	case h.step >= h.cfg.maxTries:
		h.fail(fmt.Errorf("%w after %d attempts", ErrHandshakeTimeout, h.cfg.maxTries+1))
	default:
		h.step++
		h.next(now, h.cfg.lossy)
	}
	return h.acts
}

// next arms the current step, sending the HELLO first if send is set.
// The wait escalates per step, capped at 8× the base timeout: handshake
// datagrams are tiny and a pending server handshake answers every
// retransmit at once, so steeper escalation would only turn an unlucky
// loss stretch into seconds of stall.
func (h *clientHandshake) next(now time.Time, send bool) {
	if send {
		h.acts = append(h.acts, clientAction{kind: caHello, frame: h.hello.Encode()})
	}
	h.due = now.Add(h.cfg.rto << min(h.step, 3))
	h.acts = append(h.acts, clientAction{kind: caArm, at: h.due})
}

// fail ends the handshake for err.
func (h *clientHandshake) fail(err error) {
	h.err = err
	h.acts = append(h.acts, clientAction{kind: caArm}, clientAction{kind: caClose})
}

// serverHandshake is the server's end of one transport: the handshake
// that admits a client instance, then the rules for every frame that
// reaches its session. The listener only hands a datagram transport
// over after its first HELLO passed Server.gate. Its actions are the
// session machine's kinds: actHandshake, actSealed, actArm, actOpen,
// and actClose when it ends the transport, for the reason err holds.
//
// The rules it keeps:
//
//   - The first handshake frame must be a HELLO of wire.Version with
//     valid options and key share, or it is refused in plaintext and the
//     transport ends. A valid one derives the keys once and is answered
//     with a CHALLENGE2 and a sealed HELLO-ACK.
//   - A HELLO with the same nonce is the instance's own retransmit:
//     before the commit it is answered again, with the byte-identical
//     CHALLENGE2 (it entered the transcript) and a freshly sealed ack,
//     whose first copy to land the client's window accepts; after the
//     commit it is ignored.
//   - A HELLO with a foreign nonce is a new client instance at the
//     address: it ends the handshake or the session only when it proves
//     the address (Server.proveAddress); an unproven one is answered with
//     a cookie. The newcomer's next retransmit then reaches the gate.
//   - The first sealed frame that opens commits the session; it and
//     every later one that opens go to the session machine. One that
//     fails to open is a dropped datagram, or on a stream the
//     transport's end.
//   - The pre-authentication limit: a transport that has not committed
//     handshakeTimeout after it started ends with ErrHandshakeTimeout.
//     Retransmits do not extend it.
type serverHandshake struct {
	s        *Server
	addr     string
	reliable bool
	// hello is the client instance's HELLO once taken; opt, id, link,
	// challenge and ack are what it derived.
	hello          *wire.Hello
	opt            testbed.Options
	id             uint64
	link           *securelink.Link
	challenge, ack []byte
	// limit is the pre-authentication limit.
	limit     time.Time
	committed bool
	// err is why the transport ended, once it has.
	err  error
	acts []action
}

// start arms the pre-authentication limit at now.
func (h *serverHandshake) start(now time.Time) []action {
	h.limit = now.Add(handshakeTimeout)
	h.acts = append(h.acts[:0], action{kind: actArm, at: h.limit})
	return h.acts
}

// frame takes one frame read: a plaintext handshake frame (hs) or a
// sealed one.
func (h *serverHandshake) frame(p []byte, hs bool) []action {
	h.acts = h.acts[:0]
	switch {
	case h.err != nil:
	case !hs:
		var plain []byte
		err := errors.New("shieldd: a sealed frame before the HELLO")
		if h.link != nil {
			plain, err = h.link.Open(p)
		}
		switch {
		case err == nil && !h.committed:
			h.committed = true
			h.acts = append(h.acts, action{kind: actArm}, action{kind: actOpen, frame: plain})
		case err == nil:
			h.acts = append(h.acts, action{kind: actOpen, frame: plain})
		case h.reliable:
			h.end(err)
		}
	case h.hello == nil:
		h.take(decodeHello(p))
	default:
		switch m := decodeHello(p); {
		case m == nil || m.Nonce == h.hello.Nonce && h.committed:
		case m.Nonce == h.hello.Nonce:
			h.answer()
		default:
			if proven, cookie := h.s.proveAddress(h.addr, m); proven {
				h.end(errors.New("shieldd: a new client instance proved the address"))
			} else {
				h.acts = append(h.acts, action{kind: actHandshake, frame: cookie})
			}
		}
	}
	return h.acts
}

// timeout applies the pre-authentication limit at now.
func (h *serverHandshake) timeout(now time.Time) []action {
	h.acts = h.acts[:0]
	if h.err == nil && !h.committed && !now.Before(h.limit) {
		h.end(ErrHandshakeTimeout)
	}
	return h.acts
}

// take takes the first HELLO and runs the key agreement: a
// transcript-bound HKDF schedule over the HELLO and CHALLENGE2 bytes,
// mixing the master PSK with either the X25519 ephemeral-ephemeral
// shared secret or, when the HELLO carries a redeemable ticket, the
// previous session's resumption secret (no DH: a one-round-trip
// reconnect). The fresh server nonce and key share mean a recorded
// session's frames never open in a new one. A fresh single-use ticket
// bound to the address rides in every ack.
func (h *serverHandshake) take(hello *wire.Hello) {
	var ch wire.Challenge2
	var secret []byte
	switch {
	case hello == nil && h.reliable:
		h.end(errors.New("shieldd: handshake: the first frame is not a HELLO"))
		return
	case hello == nil:
		return
	case hello.Version != wire.Version:
		h.refuse(wire.CodeVersion, fmt.Sprintf("wire protocol v%d not supported (server speaks v%d)", hello.Version, wire.Version))
		return
	}
	opt, err := h.s.scenarioOptions(hello)
	if err != nil {
		h.refuse(wire.CodeBadRequest, err.Error())
		return
	}
	// A presented ticket is redeemed (consumed) even when the handshake
	// later fails: single use means single attempt. An expired or
	// replayed one falls back to the full AKE; the client learns which
	// path ran from Challenge2.Resumed.
	if len(hello.Ticket) > 0 {
		secret, ch.Resumed = h.s.tickets.Redeem(hello.Ticket)
	}
	if !ch.Resumed {
		eph, err := securelink.NewEphemeral()
		if err != nil {
			h.end(err)
			return
		}
		ch.KeyShare = eph.Public()
		if len(hello.KeyShare) != securelink.KeyShareLen {
			h.refuse(wire.CodeBadRequest, "HELLO requires an X25519 key share")
			return
		} else if secret, err = eph.Shared(hello.KeyShare); err != nil {
			h.refuse(wire.CodeBadRequest, "invalid X25519 key share")
			return
		}
	}
	_, err = rand.Read(ch.ServerNonce[:])
	h.challenge = ch.Encode()
	session, resumption := securelink.KeySchedule(h.s.cfg.Secret, hello.TranscriptBytes(), h.challenge, secret)
	link, _, perr := securelink.Pair(session)
	if err = errors.Join(err, perr); err != nil {
		h.end(err)
		return
	}
	// A mint failure only costs the client its next resumption.
	ticket, _ := h.s.tickets.Mint(resumption, h.addr)
	h.hello, h.opt, h.link, h.id = hello, opt, armLink(link), h.s.nextSession.Add(1)
	h.ack = (&wire.HelloAck{Version: wire.Version, SessionID: h.id, Ticket: ticket}).Encode()
	h.answer()
}

// answer sends the CHALLENGE2 and a freshly sealed ack.
func (h *serverHandshake) answer() {
	h.acts = append(h.acts, action{kind: actHandshake, frame: h.challenge}, action{kind: actSealed, frame: h.link.Seal(h.ack)})
}

// refuse answers the HELLO with a plaintext error and ends.
func (h *serverHandshake) refuse(code uint8, msg string) {
	e := &wire.Error{Code: code, Msg: msg}
	h.acts = append(h.acts, action{kind: actHandshake, frame: e.Encode()})
	h.end(e)
}

// end ends the transport for err.
func (h *serverHandshake) end(err error) {
	if h.err = err; !h.committed {
		h.acts = append(h.acts, action{kind: actArm})
	}
	h.acts = append(h.acts, action{kind: actClose})
}

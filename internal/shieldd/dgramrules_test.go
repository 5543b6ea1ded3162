package shieldd_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/securelink"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// The datagram handshake rules, pinned with raw handshake datagrams
// below the client library (the way floodHello drives the gate): what
// the server does with a retransmitted HELLO, with a different-nonce
// HELLO during a pending handshake, and with a HELLO that reaches an
// established session.

// rawPeer speaks the datagram handshake by hand from one faultnet
// address to "server".
type rawPeer struct {
	t  *testing.T
	ep net.PacketConn
	dc *dgram.Conn
	// skipped collects the handshake messages request read past while
	// it waited for its response.
	skipped []wire.Message
}

func newRawPeer(t *testing.T, nw *faultnet.Network, addr string) *rawPeer {
	t.Helper()
	ep, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return &rawPeer{t: t, ep: ep, dc: dgram.NewConn(ep, faultnet.Addr("server"))}
}

// read returns the next frame, or ok=false when none arrives within d.
func (p *rawPeer) read(d time.Duration) (kind byte, payload []byte, ok bool) {
	_ = p.ep.SetReadDeadline(time.Now().Add(d))
	kind, payload, err := p.dc.ReadFrame()
	return kind, payload, err == nil
}

func (p *rawPeer) send(kind byte, payload []byte) {
	p.t.Helper()
	if err := p.dc.WriteFrame(kind, payload); err != nil {
		p.t.Fatal(err)
	}
}

// readHandshake waits for the next plaintext handshake message.
func (p *rawPeer) readHandshake() (wire.Message, []byte) {
	p.t.Helper()
	for {
		kind, payload, ok := p.read(5 * time.Second)
		if !ok {
			p.t.Fatal("no handshake reply")
		}
		if kind != dgram.KindHandshake {
			continue
		}
		m, err := wire.Decode(payload)
		if err != nil {
			p.t.Fatalf("handshake reply does not decode: %v", err)
		}
		return m, payload
	}
}

// cookieRound sends h without a cookie and attaches the cookie the
// server answers with.
func (p *rawPeer) cookieRound(h *wire.Hello) {
	p.t.Helper()
	h.Cookie = nil
	p.send(dgram.KindHandshake, h.Encode())
	m, _ := p.readHandshake()
	ck, ok := m.(*wire.Cookie)
	if !ok {
		p.t.Fatalf("cookie-less HELLO answered with %T, want a cookie", m)
	}
	h.Cookie = ck.Cookie
}

// challenge sends h and returns the encoded CHALLENGE2 and the sealed
// HELLO-ACK that follows it.
func (p *rawPeer) challenge(h *wire.Hello) (ch, sealedAck []byte) {
	p.t.Helper()
	p.send(dgram.KindHandshake, h.Encode())
	m, raw := p.readHandshake()
	if _, ok := m.(*wire.Challenge2); !ok {
		p.t.Fatalf("HELLO answered with %T, want CHALLENGE2", m)
	}
	kind, ack, ok := p.read(5 * time.Second)
	if !ok || kind != dgram.KindSealed {
		p.t.Fatal("CHALLENGE2 not followed by a sealed ack")
	}
	return raw, ack
}

// retransmitUntilChallenge re-sends h (as a client's retry timer would)
// until the server answers it with a CHALLENGE2.
func (p *rawPeer) retransmitUntilChallenge(h *wire.Hello) (ch, sealedAck []byte) {
	p.t.Helper()
	for try := 0; try < 50; try++ {
		p.send(dgram.KindHandshake, h.Encode())
		kind, payload, ok := p.read(50 * time.Millisecond)
		if !ok || kind != dgram.KindHandshake {
			continue
		}
		m, err := wire.Decode(payload)
		if err != nil {
			continue
		}
		if _, ok := m.(*wire.Challenge2); !ok {
			p.t.Fatalf("retransmitted HELLO answered with %T, want CHALLENGE2", m)
		}
		kind, ack, ok := p.read(5 * time.Second)
		if !ok || kind != dgram.KindSealed {
			p.t.Fatal("CHALLENGE2 not followed by a sealed ack")
		}
		return payload, ack
	}
	p.t.Fatal("retransmitted HELLO never answered with a CHALLENGE2")
	return nil, nil
}

// request sends msg in a sealed envelope with request ID id and returns
// the response to that ID, or nil when none comes back within wait.
func (p *rawPeer) request(link *securelink.Link, id uint64, msg wire.Message, wait time.Duration) wire.Message {
	p.t.Helper()
	p.send(dgram.KindSealed, link.Seal(wire.EncodeEnvelopeV3(id, 0, id-1, msg)))
	for {
		kind, payload, ok := p.read(wait)
		if !ok {
			return nil
		}
		if kind != dgram.KindSealed {
			if m, err := wire.Decode(payload); err == nil {
				p.skipped = append(p.skipped, m)
			}
			continue
		}
		plain, err := link.Open(payload)
		if err != nil {
			continue
		}
		if rid, _, _, m, err := wire.DecodeEnvelopeV3(plain); err == nil && rid == id {
			return m
		}
	}
}

// ping sends a PING with request ID id and reports whether its PONG
// came back within wait.
func (p *rawPeer) ping(link *securelink.Link, id uint64, wait time.Duration) bool {
	pong, ok := p.request(link, id, &wire.Ping{Token: id}, wait).(*wire.Pong)
	return ok && pong.Token == id
}

// rawAKE is the client half of one hand-driven handshake.
type rawAKE struct {
	hello *wire.Hello
	eph   *securelink.Ephemeral
	rms   []byte // the resumption secret the offered ticket resumes with
}

func newRawAKE(t *testing.T, tag byte, ticket, rms []byte) *rawAKE {
	t.Helper()
	eph, err := securelink.NewEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	h := &wire.Hello{Version: wire.Version, Seed: int64(tag), KeyShare: eph.Public(), Ticket: ticket}
	h.Nonce[0] = tag
	return &rawAKE{hello: h, eph: eph, rms: rms}
}

// finish derives the session link from the CHALLENGE2 and opens the
// sealed ack, returning the link plus the minted ticket and the
// resumption secret it carries.
func (a *rawAKE) finish(t *testing.T, ch, sealedAck []byte) (link *securelink.Link, ticket, rms []byte, resumed bool) {
	t.Helper()
	m, err := wire.Decode(ch)
	if err != nil {
		t.Fatal(err)
	}
	c2 := m.(*wire.Challenge2)
	sched := securelink.NewHandshake(securelink.HandshakeLabelV4)
	sched.MixHash(a.hello.TranscriptBytes())
	sched.MixHash(ch)
	sched.MixKey(testSecret)
	if c2.Resumed {
		sched.MixKey(a.rms)
	} else {
		dh, err := a.eph.Shared(c2.KeyShare)
		if err != nil {
			t.Fatal(err)
		}
		sched.MixKey(dh)
	}
	_, link, err = securelink.Pair(sched.SessionSecret())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := link.Open(sealedAck)
	if err != nil {
		t.Fatalf("sealed ack does not open: %v", err)
	}
	am, err := wire.Decode(plain)
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := am.(*wire.HelloAck)
	if !ok {
		t.Fatalf("sealed ack decoded to %T", am)
	}
	return link, ack.Ticket, sched.ResumptionSecret(), c2.Resumed
}

// establish runs a full cookie + AKE handshake from p and commits the
// session with a first PING (request ID 1).
func establish(t *testing.T, p *rawPeer, tag byte) (link *securelink.Link, ticket, rms []byte) {
	t.Helper()
	a := newRawAKE(t, tag, nil, nil)
	p.cookieRound(a.hello)
	ch, ack := p.challenge(a.hello)
	link, ticket, rms, _ = a.finish(t, ch, ack)
	if !p.ping(link, 1, 5*time.Second) {
		t.Fatal("first PING of an established session unanswered")
	}
	return link, ticket, rms
}

// TestDatagramHelloRetransmit: a duplicate same-nonce HELLO (the client
// missed the CHALLENGE2) is answered with the byte-identical CHALLENGE2
// — it entered the handshake transcript — and the session completes on
// the keys it derives.
func TestDatagramHelloRetransmit(t *testing.T) {
	nw := faultnet.New(61, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	p := newRawPeer(t, nw, "dup-client")

	a := newRawAKE(t, 1, nil, nil)
	p.cookieRound(a.hello)
	ch1, ack1 := p.challenge(a.hello)
	ch2, _ := p.challenge(a.hello)
	if !bytes.Equal(ch1, ch2) {
		t.Fatalf("retransmitted HELLO got a different CHALLENGE2:\n%x\n%x", ch1, ch2)
	}
	link, _, _, _ := a.finish(t, ch1, ack1)
	if !p.ping(link, 1, 5*time.Second) {
		t.Fatal("session after a retransmitted HELLO did not complete")
	}
	if m := srv.Metrics(); m.TotalSessions != 1 || m.ActiveSessions != 1 {
		t.Fatalf("sessions total=%d active=%d, want 1/1", m.TotalSessions, m.ActiveSessions)
	}
}

// TestDatagramHelloNewNonce: a different-nonce HELLO from the address of
// a pending handshake is a new client instance (the old one died with
// its handshake in flight). The server abandons the pending handshake,
// and the newcomer completes on its next retransmit.
func TestDatagramHelloNewNonce(t *testing.T) {
	nw := faultnet.New(62, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
	p := newRawPeer(t, nw, "renew-client")

	// The newcomer already holds a cookie for its own nonce.
	newcomer := newRawAKE(t, 2, nil, nil)
	p.cookieRound(newcomer.hello)

	old := newRawAKE(t, 1, nil, nil)
	p.cookieRound(old.hello)
	oldCh, oldAck := p.challenge(old.hello)
	oldLink, _, _, _ := old.finish(t, oldCh, oldAck)

	ch, ack := p.retransmitUntilChallenge(newcomer.hello)
	if bytes.Equal(ch, oldCh) {
		t.Fatal("newcomer was answered with the abandoned handshake's CHALLENGE2")
	}
	link, _, _, _ := newcomer.finish(t, ch, ack)
	if !p.ping(link, 1, 5*time.Second) {
		t.Fatal("newcomer's session did not complete")
	}
	if p.ping(oldLink, 1, 300*time.Millisecond) {
		t.Fatal("the abandoned handshake's keys still reach a session")
	}
	if m := srv.Metrics(); m.TotalSessions != 1 {
		t.Fatalf("sessions total=%d, want 1 (the abandoned handshake must not commit)", m.TotalSessions)
	}
}

// TestDatagramTakeover: a HELLO with a new nonce that reaches an
// established session hands the address over only on the same proof
// the admission gate demands — a verified cookie, or a resumption ticket
// issued to this address. A forged cookie changes nothing.
func TestDatagramTakeover(t *testing.T) {
	setup := func(t *testing.T, seed int64) (*shieldd.Server, *rawPeer) {
		nw := faultnet.New(seed, faultnet.Impairment{})
		t.Cleanup(func() { nw.Close() })
		return startPacketServer(t, nw, "server", shieldd.ServerConfig{}), newRawPeer(t, nw, "owner")
	}
	// handedOver checks the old session ended and the newcomer's is the
	// only live one.
	handedOver := func(t *testing.T, srv *shieldd.Server, oldLink *securelink.Link, p *rawPeer) {
		t.Helper()
		if m := srv.Metrics(); m.TotalSessions != 2 || m.ActiveSessions != 1 {
			t.Fatalf("sessions total=%d active=%d, want 2/1", m.TotalSessions, m.ActiveSessions)
		}
		if p.ping(oldLink, 2, 300*time.Millisecond) {
			t.Fatal("the replaced session still answers")
		}
	}

	t.Run("cookie-verified new nonce", func(t *testing.T) {
		srv, p := setup(t, 63)
		oldLink, _, _ := establish(t, p, 1)

		newcomer := newRawAKE(t, 2, nil, nil)
		p.cookieRound(newcomer.hello) // answered by the established session
		ch, ack := p.retransmitUntilChallenge(newcomer.hello)
		link, _, _, _ := newcomer.finish(t, ch, ack)
		if !p.ping(link, 1, 5*time.Second) {
			t.Fatal("newcomer's session did not complete")
		}
		handedOver(t, srv, oldLink, p)
	})

	t.Run("address-bound ticket", func(t *testing.T) {
		srv, p := setup(t, 64)
		oldLink, ticket, rms := establish(t, p, 1)
		cookies := srv.Metrics().CookiesSent

		newcomer := newRawAKE(t, 2, ticket, rms)
		ch, ack := p.retransmitUntilChallenge(newcomer.hello)
		link, _, _, resumed := newcomer.finish(t, ch, ack)
		if !resumed {
			t.Error("ticket holder was not resumed")
		}
		if !p.ping(link, 1, 5*time.Second) {
			t.Fatal("newcomer's session did not complete")
		}
		if got := srv.Metrics().CookiesSent; got != cookies {
			t.Errorf("ticket handover cost %d cookie rounds, want 0", got-cookies)
		}
		handedOver(t, srv, oldLink, p)
	})

	t.Run("bad cookie", func(t *testing.T) {
		srv, p := setup(t, 65)
		oldLink, _, _ := establish(t, p, 1)

		forged := newRawAKE(t, 2, nil, nil)
		forged.hello.Cookie = bytes.Repeat([]byte{0xAA}, 16)
		p.send(dgram.KindHandshake, forged.hello.Encode())
		// The session reader handles frames in order: once this PING is
		// answered, the forged HELLO has been judged.
		if !p.ping(oldLink, 2, 5*time.Second) {
			t.Fatal("a forged-cookie HELLO ended the established session")
		}
		m := srv.Metrics()
		if m.CookieRejects != 1 {
			t.Errorf("cookie rejects = %d, want 1", m.CookieRejects)
		}
		if m.TotalSessions != 1 || m.ActiveSessions != 1 {
			t.Errorf("sessions total=%d active=%d, want 1/1", m.TotalSessions, m.ActiveSessions)
		}
	})
}

// TestForeignHelloNeedsProof: a foreign-nonce HELLO that reaches a
// registered peer — a pending handshake (CHALLENGE2 received, no sealed
// frame sent yet) or an established session — ends it only on the proof
// the admission gate demands: a verified cookie, or a resumption ticket
// issued to this address. An unproven HELLO (no cookie, a forged one)
// leaves the handshake or session alive and is answered with a cookie.
func TestForeignHelloNeedsProof(t *testing.T) {
	type proof int
	const (
		noCookie proof = iota
		forgedCookie
		verifiedCookie
		addressTicket
	)
	rows := []struct {
		name        string
		established bool
		proof       proof
	}{
		{"pending no cookie", false, noCookie},
		{"pending forged cookie", false, forgedCookie},
		{"pending verified cookie", false, verifiedCookie},
		{"pending address-bound ticket", false, addressTicket},
		{"established no cookie", true, noCookie},
		{"established forged cookie", true, forgedCookie},
		{"established verified cookie", true, verifiedCookie},
		{"established address-bound ticket", true, addressTicket},
	}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			nw := faultnet.New(int64(70+i), faultnet.Impairment{})
			t.Cleanup(func() { nw.Close() })
			srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})
			p := newRawPeer(t, nw, "owner")

			newcomer := newRawAKE(t, 2, nil, nil)
			if row.proof == verifiedCookie {
				// Earned at the gate, before the address is registered.
				p.cookieRound(newcomer.hello)
			}
			owner := newRawAKE(t, 1, nil, nil)
			p.cookieRound(owner.hello)
			ch, ack := p.challenge(owner.hello)
			link, ticket, rms, _ := owner.finish(t, ch, ack)
			nextID := uint64(1)
			if row.established {
				if !p.ping(link, nextID, 5*time.Second) {
					t.Fatal("first PING of the established session unanswered")
				}
				nextID++
			}
			switch row.proof {
			case forgedCookie:
				newcomer.hello.Cookie = bytes.Repeat([]byte{0xAA}, securelink.CookieLen)
			case addressTicket:
				newcomer = newRawAKE(t, 2, ticket, rms)
			}
			before := srv.Metrics()

			if row.proof == verifiedCookie || row.proof == addressTicket {
				// The first send ends the owner's handshake or session; a
				// retransmit then reaches the gate.
				ch, ack := p.retransmitUntilChallenge(newcomer.hello)
				nlink, _, _, resumed := newcomer.finish(t, ch, ack)
				if resumed != (row.proof == addressTicket) {
					t.Errorf("newcomer resumed = %v", resumed)
				}
				if !p.ping(nlink, 1, 5*time.Second) {
					t.Fatal("newcomer's session did not complete")
				}
				m := srv.Metrics()
				if m.TotalSessions != before.TotalSessions+1 || m.ActiveSessions != 1 {
					t.Errorf("sessions total=%d active=%d, want %d/1 (the owner's must have ended)",
						m.TotalSessions, m.ActiveSessions, before.TotalSessions+1)
				}
				if m.CookiesSent != before.CookiesSent {
					t.Errorf("a proven HELLO cost %d cookie rounds, want 0", m.CookiesSent-before.CookiesSent)
				}
				return
			}

			p.skipped = nil
			p.send(dgram.KindHandshake, newcomer.hello.Encode())
			// The server judges frames from one address in order: once
			// this PING is answered, the HELLO has been judged, and any
			// reply to it has arrived ahead of the PONG.
			if !p.ping(link, nextID, 5*time.Second) {
				t.Error("an unproven HELLO ended the owner's handshake or session")
			}
			if len(p.skipped) != 1 {
				t.Errorf("unproven HELLO answered with %d handshake messages, want one COOKIE", len(p.skipped))
			} else if _, ok := p.skipped[0].(*wire.Cookie); !ok {
				t.Errorf("unproven HELLO answered with %T, want a COOKIE", p.skipped[0])
			}
			wantRejects := before.CookieRejects
			if row.proof == forgedCookie {
				wantRejects++
			}
			m := srv.Metrics()
			if m.CookiesSent != before.CookiesSent+1 || m.CookieRejects != wantRejects {
				t.Errorf("cookies sent=%d rejects=%d, want %d/%d",
					m.CookiesSent, m.CookieRejects, before.CookiesSent+1, wantRejects)
			}
			if m.TotalSessions != 1 || m.ActiveSessions != 1 {
				t.Errorf("sessions total=%d active=%d, want 1/1", m.TotalSessions, m.ActiveSessions)
			}
		})
	}
}

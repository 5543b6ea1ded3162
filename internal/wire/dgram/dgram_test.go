package dgram_test

import (
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/wire/dgram"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		kind    byte
		payload []byte
	}{
		{dgram.KindHandshake, []byte("hello-bytes")},
		{dgram.KindSealed, bytes.Repeat([]byte{0xA5}, 2000)},
		{dgram.KindSealed, nil},
	} {
		enc, err := dgram.Encode(tc.kind, tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		kind, payload, err := dgram.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if kind != tc.kind || !bytes.Equal(payload, tc.payload) {
			t.Fatalf("round trip: kind %d payload %d bytes", kind, len(payload))
		}
	}
}

func TestDecodeRejections(t *testing.T) {
	good, _ := dgram.Encode(dgram.KindSealed, []byte("x"))
	for name, tc := range map[string]struct {
		b    []byte
		want error
	}{
		"empty":       {nil, dgram.ErrShort},
		"short":       {good[:2], dgram.ErrShort},
		"bad-magic":   {[]byte{0x00, dgram.Version, dgram.KindSealed}, dgram.ErrMagic},
		"bad-version": {[]byte{dgram.Magic, 99, dgram.KindSealed}, dgram.ErrVersion},
		"bad-kind":    {[]byte{dgram.Magic, dgram.Version, 0x7F}, dgram.ErrKind},
		"oversize":    {append([]byte{dgram.Magic, dgram.Version, dgram.KindSealed}, make([]byte, dgram.MaxDatagram)...), dgram.ErrTooBig},
	} {
		if _, _, err := dgram.Decode(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
	if _, err := dgram.Encode(0x7F, nil); !errors.Is(err, dgram.ErrKind) {
		t.Errorf("encode bad kind err = %v", err)
	}
	if _, err := dgram.Encode(dgram.KindSealed, make([]byte, dgram.MaxPayload+1)); !errors.Is(err, dgram.ErrTooBig) {
		t.Errorf("encode oversize err = %v", err)
	}
}

// One listener socket must demux two client sockets into independent
// peer connections, starting each only from a handshake frame, and a
// client Conn must filter traffic from other peers.
func TestListenerDemuxAndConnFiltering(t *testing.T) {
	nw := faultnet.New(1, faultnet.Impairment{})
	defer nw.Close()
	spc, err := nw.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	l := dgram.Listen(spc)
	defer l.Close()

	accepted := make(chan *dgram.PeerConn, 2)
	go func() {
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- p
		}
	}()

	apc, _ := nw.Listen("client-a")
	bpc, _ := nw.Listen("client-b")
	a := dgram.NewConn(apc, faultnet.Addr("server"))
	b := dgram.NewConn(bpc, faultnet.Addr("server"))
	defer a.Close()
	defer b.Close()

	// A sealed frame from an unknown peer must NOT create a session.
	if err := a.WriteFrame(dgram.KindSealed, []byte("stray")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-accepted:
		t.Fatal("sealed frame from unknown peer accepted as a session")
	case <-time.After(20 * time.Millisecond):
	}

	if err := a.WriteFrame(dgram.KindHandshake, []byte("hello-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFrame(dgram.KindHandshake, []byte("hello-b")); err != nil {
		t.Fatal(err)
	}

	peers := map[string][]byte{}
	for i := 0; i < 2; i++ {
		select {
		case p := <-accepted:
			_ = p.SetReadDeadline(time.Now().Add(time.Second))
			kind, payload, err := p.ReadFrame()
			if err != nil || kind != dgram.KindHandshake {
				t.Fatalf("peer read: kind %d err %v", kind, err)
			}
			peers[p.RemoteAddr().String()] = payload
			// Echo a sealed reply.
			if err := p.WriteFrame(dgram.KindSealed, append([]byte("ack-"), payload...)); err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second):
			t.Fatal("handshake not accepted")
		}
	}
	if string(peers["client-a"]) != "hello-a" || string(peers["client-b"]) != "hello-b" {
		t.Fatalf("demux mixed peers up: %q", peers)
	}

	_ = a.SetReadDeadline(time.Now().Add(time.Second))
	kind, payload, err := a.ReadFrame()
	if err != nil || kind != dgram.KindSealed || string(payload) != "ack-hello-a" {
		t.Fatalf("client a read: kind %d payload %q err %v", kind, payload, err)
	}
	_ = b.SetReadDeadline(time.Now().Add(time.Second))
	_, payload, err = b.ReadFrame()
	if err != nil || string(payload) != "ack-hello-b" {
		t.Fatalf("client b read: payload %q err %v", payload, err)
	}
}

// Closing a peer connection must let the same address handshake again as
// a brand-new session. A server closes a finished peer twice (when the
// BYE response is flushed, and in its deferred cleanup), so a late second
// Close of the old peer must not unregister the newer one.
func TestPeerCloseAllowsRehandshake(t *testing.T) {
	nw := faultnet.New(2, faultnet.Impairment{})
	defer nw.Close()
	spc, _ := nw.Listen("server")
	l := dgram.Listen(spc)
	defer l.Close()
	cpc, _ := nw.Listen("client")
	c := dgram.NewConn(cpc, faultnet.Addr("client-server-view"))
	_ = c // silence: the raw endpoint writes below exercise re-accept
	var prev *dgram.PeerConn
	for i := 0; i < 3; i++ {
		enc, _ := dgram.Encode(dgram.KindHandshake, []byte{byte(i)})
		if _, err := cpc.WriteTo(enc, faultnet.Addr("server")); err != nil {
			t.Fatal(err)
		}
		p, err := l.Accept()
		if err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
		_ = p.SetReadDeadline(time.Now().Add(time.Second))
		if _, payload, err := p.ReadFrame(); err != nil || payload[0] != byte(i) {
			t.Fatalf("accept %d read: %v", i, err)
		}
		if prev != nil {
			_ = prev.Close()
			if n := l.PeerCount(); n != 1 {
				t.Fatalf("accept %d: %d registered peers after a stale close of the old one, want 1", i, n)
			}
		}
		_ = p.Close()
		prev = p
	}
}

// Deadlines must interrupt blocked peer reads, and a closed listener
// must fail Accept and peer reads.
func TestDeadlineAndClose(t *testing.T) {
	nw := faultnet.New(3, faultnet.Impairment{})
	defer nw.Close()
	spc, _ := nw.Listen("server")
	l := dgram.Listen(spc)
	cpc, _ := nw.Listen("client")
	enc, _ := dgram.Encode(dgram.KindHandshake, []byte("hs"))
	if _, err := cpc.WriteTo(enc, faultnet.Addr("server")); err != nil {
		t.Fatal(err)
	}
	p, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = p.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := p.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	_ = p.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
	if _, _, err := p.ReadFrame(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("deadline err = %v", err)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.ReadFrame(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read after listener close err = %v", err)
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("accept after close succeeded")
	}
}

// A gated listener consults the gate before allocating ANY per-peer
// state: refused handshakes leave PeerCount at zero and never reach
// Accept, a refusal reply comes back as a stateless handshake datagram,
// and an accepted handshake is delivered to its new PeerConn as usual.
func TestListenerGate(t *testing.T) {
	nw := faultnet.New(4, faultnet.Impairment{})
	defer nw.Close()
	spc, err := nw.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	gated := 0
	l := dgram.ListenGated(spc, func(addr net.Addr, payload []byte) (bool, []byte) {
		gated++
		if bytes.Equal(payload, []byte("open-sesame")) {
			return true, nil
		}
		return false, []byte("denied")
	})
	defer l.Close()

	cpc, err := nw.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	c := dgram.NewConn(cpc, faultnet.Addr("server"))

	// Refused handshakes: no peer state, reply delivered statelessly.
	for i := 0; i < 3; i++ {
		if err := c.WriteFrame(dgram.KindHandshake, []byte("flood")); err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(time.Second))
		kind, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("refusal reply %d: %v", i, err)
		}
		if kind != dgram.KindHandshake || !bytes.Equal(payload, []byte("denied")) {
			t.Fatalf("refusal reply %d: kind %d payload %q", i, kind, payload)
		}
	}
	if n := l.PeerCount(); n != 0 {
		t.Fatalf("refused handshakes left %d peers registered", n)
	}

	// An accepted handshake creates the peer and delivers the frame.
	if err := c.WriteFrame(dgram.KindHandshake, []byte("open-sesame")); err != nil {
		t.Fatal(err)
	}
	p, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = p.SetReadDeadline(time.Now().Add(time.Second))
	if _, payload, err := p.ReadFrame(); err != nil || !bytes.Equal(payload, []byte("open-sesame")) {
		t.Fatalf("accepted frame: %q, %v", payload, err)
	}
	if n := l.PeerCount(); n != 1 {
		t.Fatalf("accepted handshake registered %d peers, want 1", n)
	}
	// Later datagrams from a registered peer bypass the gate.
	before := gated
	if err := c.WriteFrame(dgram.KindHandshake, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if _, payload, err := p.ReadFrame(); err != nil || !bytes.Equal(payload, []byte("again")) {
		t.Fatalf("second frame: %q, %v", payload, err)
	}
	if gated != before {
		t.Fatal("gate consulted for a datagram from a registered peer")
	}
}

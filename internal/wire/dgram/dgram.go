// Package dgram frames the shieldd wire protocol over datagram
// transports (UDP, or the in-process faultnet): one frame per datagram,
// no length prefix — the datagram boundary is the frame boundary, and
// the securelink sequence number inside sealed frames is the only
// ordering/reliability state the protocol carries.
//
// A 3-byte header prefixes every datagram:
//
//	magic(0xD5) || version(1) || kind(1)
//
// kind distinguishes the two payload classes a session socket carries:
//
//   - KindHandshake: a plaintext wire message (HELLO, COOKIE,
//     CHALLENGE2, BUSY, or a pre-session Error refusal). Handshake
//     datagrams are the only plaintext the transport ever carries, and
//     marking them explicitly is what lets a lossy handshake retry
//     safely: a retransmitted HELLO arriving after the server moved on
//     is recognizable without trial decryption.
//   - KindSealed: a securelink-sealed frame (seq(8) || AES-GCM
//     ciphertext), exactly the payload the stream transport carries
//     behind its length prefix.
//
// Decode is total in the same sense as wire.Decode: no input panics, no
// input over-allocates, and every accepted (kind, payload) re-encodes to
// exactly the accepted bytes — the FuzzDgramDecode invariant. The cheap
// header check also means a corrupted datagram is usually rejected for
// one branch instead of a GCM tag verification.
//
// The package deliberately knows nothing about wire messages or
// securelink: it moves opaque payloads, which keeps the layering
// identical to the stream transport (frame → seal → message).
package dgram

import (
	"errors"
	"net"
	"sync"
)

// Magic is the first byte of every dgram datagram; anything else is not
// ours and is dropped before further parsing.
const Magic byte = 0xD5

// Version is the dgram framing version this package speaks.
const Version byte = 1

// Frame kinds.
const (
	// KindHandshake marks a plaintext handshake message (HELLO, COOKIE,
	// CHALLENGE2, BUSY, pre-session Error).
	KindHandshake byte = 0x01
	// KindSealed marks a securelink-sealed session frame.
	KindSealed byte = 0x02
)

// HeaderLen is the fixed datagram header size.
const HeaderLen = 3

// MaxDatagram bounds the encoded datagram (header + payload): the
// practical UDP payload limit. BATCH-EXCHANGE responses at wire.MaxBatch
// fit; anything larger must use the stream transport.
const MaxDatagram = 65507

// MaxPayload is the largest frame payload one datagram can carry.
const MaxPayload = MaxDatagram - HeaderLen

// Framing errors.
var (
	ErrShort   = errors.New("dgram: datagram shorter than header")
	ErrMagic   = errors.New("dgram: bad magic byte")
	ErrVersion = errors.New("dgram: unsupported framing version")
	ErrKind    = errors.New("dgram: unknown frame kind")
	ErrTooBig  = errors.New("dgram: payload exceeds MaxPayload")
)

// Encode frames one payload as a datagram: header || payload.
func Encode(kind byte, payload []byte) ([]byte, error) {
	if kind != KindHandshake && kind != KindSealed {
		return nil, ErrKind
	}
	if len(payload) > MaxPayload {
		return nil, ErrTooBig
	}
	b := make([]byte, HeaderLen+len(payload))
	b[0], b[1], b[2] = Magic, Version, kind
	copy(b[HeaderLen:], payload)
	return b, nil
}

// Decode parses one datagram. It accepts exactly the byte strings Encode
// produces; the returned payload aliases b.
func Decode(b []byte) (kind byte, payload []byte, err error) {
	if len(b) < HeaderLen {
		return 0, nil, ErrShort
	}
	if b[0] != Magic {
		return 0, nil, ErrMagic
	}
	if b[1] != Version {
		return 0, nil, ErrVersion
	}
	kind = b[2]
	if kind != KindHandshake && kind != KindSealed {
		return 0, nil, ErrKind
	}
	if len(b) > MaxDatagram {
		return 0, nil, ErrTooBig
	}
	return kind, b[HeaderLen:], nil
}

// FrameConn is the frame-oriented surface both dgram connection types
// (client Conn, server-side PeerConn) expose; the shieldd transport
// adapters are written against it.
type FrameConn interface {
	// ReadFrame returns the next valid frame from the peer. Datagrams
	// from other sources or failing Decode are skipped, not errors.
	ReadFrame() (kind byte, payload []byte, err error)
	// WriteFrame sends one frame to the peer.
	WriteFrame(kind byte, payload []byte) error
	// Close releases the connection; blocked reads unblock.
	Close() error
}

// Conn is the client side of a datagram session: a dedicated packet
// socket exchanging frames with one fixed peer address. It filters
// inbound traffic to that peer and silently skips datagrams that fail
// Decode (noise on an unreliable transport, not a session error).
type Conn struct {
	pc      net.PacketConn
	peer    net.Addr
	peerKey string
	buf     []byte // reused by the single reader
}

var _ FrameConn = (*Conn)(nil)

// NewConn wraps a dedicated packet socket into a frame connection with
// the given peer. The caller must be the socket's only reader.
func NewConn(pc net.PacketConn, peer net.Addr) *Conn {
	return &Conn{pc: pc, peer: peer, peerKey: peer.String(), buf: make([]byte, MaxDatagram)}
}

// ReadFrame returns the next valid frame from the peer. The payload is
// copied out of the read buffer, so callers may retain it.
func (c *Conn) ReadFrame() (byte, []byte, error) {
	for {
		n, addr, err := c.pc.ReadFrom(c.buf)
		if err != nil {
			return 0, nil, err
		}
		if addr.String() != c.peerKey {
			continue
		}
		kind, payload, err := Decode(c.buf[:n])
		if err != nil {
			continue
		}
		return kind, append([]byte(nil), payload...), nil
	}
}

// WriteFrame sends one frame to the peer.
func (c *Conn) WriteFrame(kind byte, payload []byte) error {
	b, err := Encode(kind, payload)
	if err != nil {
		return err
	}
	_, err = c.pc.WriteTo(b, c.peer)
	return err
}

// Close closes the underlying socket.
func (c *Conn) Close() error { return c.pc.Close() }

// peerInboxCap bounds each peer's queued inbound frames on a listener;
// overflow drops the frame (unreliable transport semantics — the peer
// retransmits).
const peerInboxCap = 64

// acceptBacklog bounds handshakes waiting in Accept.
const acceptBacklog = 64

// frame is one decoded inbound datagram queued for a peer.
type frame struct {
	kind    byte
	payload []byte
}

// Listener demultiplexes one server packet socket into per-peer frame
// connections: the first handshake datagram from an unknown address
// creates a PeerConn and delivers it to Accept, and every later datagram
// from that address is routed to the same PeerConn until it closes.
// Sealed datagrams from unknown addresses are dropped — a session can
// only begin with a handshake frame.
type Listener struct {
	pc   net.PacketConn
	gate Gate

	mu     sync.Mutex
	peers  map[string]*PeerConn
	closed bool
	err    error

	acceptCh chan *PeerConn
	done     chan struct{}
}

// Gate vets the first handshake datagram from an unknown address before
// ANY per-peer state exists — no PeerConn, no inbox, no map entry. It
// returns accept=true to admit the peer (the triggering frame is then
// delivered to the new PeerConn as usual), or accept=false to refuse it;
// a non-nil reply is then sent back as a single stateless KindHandshake
// datagram (a cookie challenge or BUSY refusal). The gate runs on the
// listener's read loop, so it must be cheap — one MAC, no blocking.
type Gate func(addr net.Addr, payload []byte) (accept bool, reply []byte)

// Listen starts demultiplexing the packet socket, consulting gate
// before any per-peer state is allocated for a new address. The
// listener owns the socket's read side from here on.
func Listen(pc net.PacketConn, gate Gate) *Listener {
	l := &Listener{
		pc:       pc,
		gate:     gate,
		peers:    make(map[string]*PeerConn),
		acceptCh: make(chan *PeerConn, acceptBacklog),
		done:     make(chan struct{}),
	}
	go l.readLoop()
	return l
}

// PeerCount returns the number of peer connections currently registered
// — the listener's entire per-peer memory footprint, which overload
// tests pin to prove flood HELLOs allocate nothing.
func (l *Listener) PeerCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.peers)
}

// readLoop is the socket's sole reader: decode, gate, route, create
// peers. It is also the only goroutine that ever inserts into l.peers,
// so checking the map and calling the gate without holding the lock
// cannot race another insertion.
func (l *Listener) readLoop() {
	buf := make([]byte, MaxDatagram)
	for {
		n, addr, err := l.pc.ReadFrom(buf)
		if err != nil {
			l.fail(err)
			return
		}
		kind, payload, derr := Decode(buf[:n])
		if derr != nil {
			continue // noise
		}
		key := addr.String()
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		peer, ok := l.peers[key]
		l.mu.Unlock()
		if !ok {
			if kind != KindHandshake {
				continue // sessions begin with a handshake frame
			}
			if accept, reply := l.gate(addr, payload); !accept {
				if reply != nil {
					if b, err := Encode(KindHandshake, reply); err == nil {
						_, _ = l.pc.WriteTo(b, addr)
					}
				}
				continue
			}
			peer = &PeerConn{
				l:      l,
				addr:   addr,
				key:    key,
				inbox:  make(chan frame, peerInboxCap),
				closed: make(chan struct{}),
			}
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return
			}
			select {
			case l.acceptCh <- peer:
				l.peers[key] = peer
				l.mu.Unlock()
			default:
				// Accept backlog full: refuse the handshake by forgetting
				// the peer; its retransmit tries again later.
				l.mu.Unlock()
				continue
			}
		}
		select {
		case peer.inbox <- frame{kind: kind, payload: append([]byte(nil), payload...)}:
		default:
			// Peer inbox full: drop (the sender retransmits).
		}
	}
}

// fail closes the listener for err: it wakes Accept and closes every
// peer. It reports whether the listener was still open.
func (l *Listener) fail(err error) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.closed, l.err = true, err
	close(l.done)
	for _, p := range l.peers {
		p.closeLocal()
	}
	clear(l.peers)
	return true
}

// Accept blocks for the next new peer handshake.
func (l *Listener) Accept() (*PeerConn, error) {
	select {
	case p := <-l.acceptCh:
		return p, nil
	case <-l.done:
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return nil, err
	}
}

// Close shuts the listener and every peer connection down.
func (l *Listener) Close() error {
	if !l.fail(nil) {
		return nil
	}
	return l.pc.Close()
}

// unregister removes a peer that closed itself, unless a newer peer
// has since taken over its address: a session's deferred Close can run
// after its client has already handshaken again from the same address.
func (l *Listener) unregister(p *PeerConn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.peers[p.key] == p {
		delete(l.peers, p.key)
	}
}

// PeerConn is the server side of one datagram session: the frames one
// remote address sent through the listener, plus writes back to it.
type PeerConn struct {
	l     *Listener
	addr  net.Addr
	key   string
	inbox chan frame

	once   sync.Once
	closed chan struct{}
}

var _ FrameConn = (*PeerConn)(nil)

// ReadFrame returns the next frame this peer sent, or net.ErrClosed
// once the peer is closed, even with frames still queued.
func (p *PeerConn) ReadFrame() (byte, []byte, error) {
	select {
	case <-p.closed:
	default:
		select {
		case f := <-p.inbox:
			return f.kind, f.payload, nil
		case <-p.closed:
		}
	}
	return 0, nil, net.ErrClosed
}

// WriteFrame sends one frame back to the peer through the listener's
// socket.
func (p *PeerConn) WriteFrame(kind byte, payload []byte) error {
	select {
	case <-p.closed:
		return net.ErrClosed
	default:
	}
	b, err := Encode(kind, payload)
	if err != nil {
		return err
	}
	_, err = p.l.pc.WriteTo(b, p.addr)
	return err
}

// Close detaches the peer from the listener; a fresh handshake from the
// same address creates a new PeerConn.
func (p *PeerConn) Close() error {
	p.closeLocal()
	p.l.unregister(p)
	return nil
}

// closeLocal closes without touching the listener map (used by
// Listener.fail, which holds the listener's lock).
func (p *PeerConn) closeLocal() { p.once.Do(func() { close(p.closed) }) }

// RemoteAddr returns the peer's address.
func (p *PeerConn) RemoteAddr() net.Addr { return p.addr }

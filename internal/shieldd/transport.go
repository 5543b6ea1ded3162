package shieldd

import (
	"net"
	"time"

	"heartshield/internal/securelink"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// transportConn is the frame transport the read loops of both ends are
// written against. The transport decides two things
// and nothing else:
//
//   - framing: how a plaintext handshake frame is marked — by position
//     on a stream (its first inbound frame), by kind byte on a datagram;
//   - retry: whether it is unreliable (loss, duplication, and reordering
//     are normal, so the client re-sends its HELLO, the server answers a
//     duplicate HELLO again, and a failed securelink Open means "drop the
//     datagram", not "tear the session down").
type transportConn interface {
	// readFrame returns the next inbound frame; handshake reports a
	// plaintext handshake frame.
	readFrame() (payload []byte, handshake bool, err error)
	// writeHandshake sends one plaintext handshake frame.
	writeHandshake(payload []byte) error
	// writeFrame sends one sealed session frame.
	writeFrame(payload []byte) error
	close() error
	unreliable() bool
}

// streamConn adapts a net.Conn with the wire length-prefixed framing —
// the TCP / net.Pipe transport.
type streamConn struct {
	c net.Conn
	// sealed is set once the first inbound frame, the peer's plaintext
	// handshake frame, has been read: every later frame is sealed.
	sealed bool
}

func (s *streamConn) readFrame() ([]byte, bool, error) {
	if s.sealed {
		p, err := wire.ReadFrame(s.c)
		return p, false, err
	}
	// The peer has proven nothing yet: a plaintext frame gets a tiny
	// budget, so it cannot make this end allocate a MaxFrame buffer.
	s.sealed = true
	p, err := wire.ReadFrameLimit(s.c, maxHelloFrame)
	return p, true, err
}

func (s *streamConn) writeHandshake(p []byte) error { return wire.WriteFrame(s.c, p) }
func (s *streamConn) writeFrame(p []byte) error     { return wire.WriteFrame(s.c, p) }
func (s *streamConn) close() error                  { return s.c.Close() }
func (s *streamConn) unreliable() bool              { return false }

// packetTC adapts a dgram frame connection (client Conn or server
// PeerConn): one datagram per frame, kind byte distinguishing plaintext
// handshake frames from sealed session frames.
type packetTC struct {
	fc dgram.FrameConn
}

func (p *packetTC) readFrame() ([]byte, bool, error) {
	kind, payload, err := p.fc.ReadFrame()
	if err != nil {
		return nil, false, err
	}
	return payload, kind == dgram.KindHandshake, nil
}

func (p *packetTC) writeHandshake(b []byte) error { return p.fc.WriteFrame(dgram.KindHandshake, b) }
func (p *packetTC) writeFrame(b []byte) error     { return p.fc.WriteFrame(dgram.KindSealed, b) }
func (p *packetTC) close() error                  { return p.fc.Close() }
func (p *packetTC) unreliable() bool              { return true }

// armLink applies the session-link hardening both ends agree on to a
// freshly derived link: the receive window and the rekey ratchet.
func armLink(link *securelink.Link) *securelink.Link {
	link.SetWindow(sessionWindow)
	link.EnableRekey(sessionRekeyEvery)
	return link
}

// Session transport parameters: the datagram retry schedule, and the
// request window of every session.
const (
	// defaultRetryTimeout is the client's initial retransmit timeout.
	defaultRetryTimeout = 250 * time.Millisecond
	// defaultMaxRetries bounds retransmissions per request before the
	// call fails with ErrRequestTimeout and its session ends.
	defaultMaxRetries = 8
	// maxRetryBackoff caps the exponential retransmit backoff.
	maxRetryBackoff = 4 * time.Second
	// requestWindow is the per-session request window, one constant for
	// both ends: how far above its delivery report a client may give a
	// fresh request its ID (selective repeat's ID distance: ID n only
	// when n < report+1+requestWindow) before Go blocks; how far above
	// its ledger's cursor the server admits a fresh ID (cursor ≤ id ≤
	// cursor+requestWindow, the top ID being the BYE's); and how many
	// in-flight slots the server gives a session before it drops a fresh
	// request unanswered. Only equal windows are safe. With a larger
	// client window, requests that arrive above a lost datagram can take
	// every server slot, so the retransmit that would fill the gap finds
	// none; and a window that counted unanswered calls instead of ID
	// distance would let answered requests pile up above a gap that
	// never fills. The window is also what bounds the server's ledger to
	// a ring of ledgerSlots entries.
	requestWindow = 16
	// fastRetransmitSkips is the selective-repeat dup-ack threshold: when
	// this many ordered responses with higher IDs have arrived while an
	// ordered request is still pending, its response datagram is presumed
	// lost (the server executes ordered requests in ID order, so their
	// responses leave in ID order) and the request is re-sent immediately
	// instead of waiting out the retry timer. On a loss-free in-order
	// link the count can never be reached, so a perfect link sees zero
	// retransmits.
	fastRetransmitSkips = 3
)

// TransportStats counts the client-side cost of an unreliable
// transport: how many requests were retransmitted and how many gave up.
// Always zero on stream transports. Each `metric` tag names the counter
// among a session's metrics, under metrics.ClientScope.
type TransportStats struct {
	// Retransmits is the number of request datagrams re-sent after a
	// retry timeout expired without a response.
	Retransmits uint64 `metric:"retransmits"`
	// Timeouts is the number of requests that failed after exhausting
	// every retransmission.
	Timeouts uint64 `metric:"timeouts"`
	// ProgressFrames is the number of streamed EXPERIMENT-PROGRESS
	// frames received. Unlike the other counters it is also populated on
	// stream transports.
	ProgressFrames uint64 `metric:"progressFrames"`
}

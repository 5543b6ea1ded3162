// Package wire defines the binary wire protocol of the shieldd session
// server: a length-prefixed outer transport framing and a set of typed
// messages (HELLO/pairing, EXCHANGE, BATCH-EXCHANGE, ATTACK-TRIAL,
// EXPERIMENT, STATUS, STATUS-METRICS, PING/PONG).
//
// Transport framing is uint32 big-endian length || payload. The HELLO
// frame travels in plaintext (it carries the public session nonce and
// the client's ephemeral key share that both ends feed into the session
// key schedule); every frame after the handshake round is a
// securelink-sealed message, so the payload on the wire is
// seq(8) || AES-GCM ciphertext of an encoded message.
//
// One protocol version is spoken, Version, announced in HELLO and
// confirmed in the sealed HELLO-ACK; a peer announcing any other version
// byte is refused with a plaintext Error carrying CodeVersion. The
// handshake is an authenticated key exchange: HELLO carries an X25519
// key share (and optionally a resumption ticket), the server answers
// with CHALLENGE2 carrying its own share, and the session keys come from
// a transcript-bound HKDF schedule mixing the DH secret with the
// provisioned PSK (securelink.Handshake). The sealed HELLO-ACK returns a
// fresh single-use ticket for one-round-trip resumption.
//
// Every sealed frame after the handshake carries an envelope
// id(8) || flags(1) || cum(8) || message. The id is a client-chosen
// request identifier echoed on the response, so the client may pipeline
// many requests over one connection and the server may complete them out
// of order. EnvPartial marks a non-final response (an
// EXPERIMENT-PROGRESS frame streamed while the request is still
// executing); cum carries cumulative progress — the client reports the
// highest request ID through which every response has been received (the
// server prunes its dedup ledger below it), and the server reports the
// highest request ID through which every request has been received and
// sequenced.
//
// Message encoding is kind(1) || body, with fixed-width big-endian
// integers, IEEE-754 bits for floats, and uint32-length-prefixed byte
// strings. Decode is total: it never panics, never over-allocates beyond
// the input length, and accepts exactly the encodings Encode produces
// (round-trip byte equality — the FuzzWireDecode invariant).
// DecodeEnvelopeV3 inherits the same totality for envelopes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Version is the one protocol version this package speaks; HELLO and
// HELLO-ACK both carry it, and any other version byte is refused.
const Version = 4

// MaxBatch bounds the number of exchanges one BATCH-EXCHANGE frame may
// carry; Decode rejects larger counts before allocating.
const MaxBatch = 256

// MaxFrame bounds the outer transport frame length; a peer announcing
// more is treated as malformed (ErrFrameTooBig) before any allocation.
const MaxFrame = 1 << 22

// Transport framing errors.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated   = errors.New("wire: truncated message")
	ErrTrailing    = errors.New("wire: trailing bytes after message")
	ErrUnknownKind = errors.New("wire: unknown message kind")
	ErrInvalid     = errors.New("wire: invalid field encoding")
)

// WriteFrame writes one length-prefixed transport frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed transport frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameLimit(r, MaxFrame)
}

// ReadFrameLimit reads one frame whose announced length is at most limit;
// anything larger is rejected before allocation. Servers use a small
// limit for the pre-authentication HELLO so an unauthenticated peer
// cannot make them allocate a full MaxFrame buffer.
func ReadFrameLimit(r io.Reader, limit uint32) ([]byte, error) {
	if limit > MaxFrame {
		limit = MaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > limit {
		return nil, ErrFrameTooBig
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Message kinds.
const (
	KindHello              byte = 0x01
	KindHelloAck           byte = 0x02
	KindCookie             byte = 0x04
	KindChallenge2         byte = 0x05
	KindExchangeReq        byte = 0x10
	KindExchangeResp       byte = 0x11
	KindAttackReq          byte = 0x12
	KindAttackResp         byte = 0x13
	KindBatchReq           byte = 0x14
	KindBatchResp          byte = 0x15
	KindExperimentReq      byte = 0x20
	KindExperimentResp     byte = 0x21
	KindExperimentProgress byte = 0x22
	KindStatusReq          byte = 0x30
	KindStatusResp         byte = 0x31
	KindPing               byte = 0x32
	KindPong               byte = 0x33
	KindMetricsReq         byte = 0x34
	KindMetricsResp        byte = 0x35
	KindBusy               byte = 0x3C
	KindBye                byte = 0x3E
	KindError              byte = 0x3F
)

// Hello option flags (mirror heartshield.SimOptions).
const (
	FlagHighPowerAdversary uint8 = 1 << iota
	FlagFlatJam
	FlagDigitalCancel
	FlagConcerto
)

// Command kinds carried by EXCHANGE and ATTACK-TRIAL frames.
const (
	CmdInterrogate uint8 = 0
	CmdSetTherapy  uint8 = 1
)

// Error codes carried by Error frames.
const (
	CodeBadRequest        uint8 = 1
	CodeUnknownExperiment uint8 = 2
	CodeExchangeFailed    uint8 = 3
	CodeBusy              uint8 = 4
	CodeInternal          uint8 = 5
	CodeVersion           uint8 = 6 // the HELLO's version byte is not Version
)

// Message is one protocol message.
type Message interface {
	// Kind returns the message's wire kind byte.
	Kind() byte
	// Encode serializes the message as kind(1) || body.
	Encode() []byte
}

// Hello opens a session: the client's public nonce (fed into the session
// key derivation) plus the scenario options the session should simulate.
//
// Cookie is the stateless-handshake cookie echoed back to a datagram
// server. A first HELLO carries an empty cookie; a server under
// admission control answers it with a Cookie frame instead of committing
// any per-peer state, and the client retries the identical HELLO with
// the cookie attached. Stream transports ignore the field (the TCP
// three-way handshake already proves source-address reachability).
//
// KeyShare is the client's X25519 ephemeral public key; Ticket
// optionally carries a resumption ticket from a previous session, asking
// the server to skip the DH and resume in one round trip.
type Hello struct {
	Version   uint8
	Nonce     [16]byte
	Seed      int64
	Location  uint8
	Flags     uint8
	ExtraIMDs uint8
	Cookie    []byte
	KeyShare  []byte
	Ticket    []byte
}

// TranscriptBytes returns the HELLO encoding that enters the
// handshake transcript: everything except the cookie. The cookie is
// transport-level admission proof, not a negotiated parameter — it
// legitimately differs between a client's first and cookied HELLO
// retransmits, so binding it would desynchronize the two ends'
// transcripts on datagram transports.
func (m *Hello) TranscriptBytes() []byte {
	t := *m
	t.Cookie = nil
	return t.Encode()
}

// Cookie is the server's plaintext answer to a cookie-less HELLO on an
// admission-controlled datagram listener: an opaque keyed-MAC token
// binding the client's address and nonce to a rotating server secret.
// The server keeps no state when sending it; only a HELLO that echoes a
// valid cookie proves the source address is reachable and may proceed to
// the CHALLENGE round.
type Cookie struct {
	Cookie []byte
}

// Busy is the server's load-shedding answer: the request (or handshake)
// was refused without any execution, and the client should retry after
// RetryAfterMillis plus its own jitter. In the handshake it travels in
// plaintext; inside a session it is a sealed envelope response.
type Busy struct {
	RetryAfterMillis uint32
}

// Challenge2 is the server's plaintext reply to HELLO: a fresh server
// nonce plus the server's X25519 ephemeral key share. Both join the
// client's in the session key schedule, so a recorded session's sealed
// frames can never open in a new one (full-session replay protection). On ticket
// resumption the server skips the DH — KeyShare is empty and Resumed is
// set, telling the client to mix its cached resumption secret instead of
// a DH shared secret. The whole message enters the handshake transcript,
// so tampering with any field makes the sealed HELLO-ACK fail to open.
type Challenge2 struct {
	ServerNonce [16]byte
	KeyShare    []byte
	Resumed     bool
}

// HelloAck confirms the session. It is the first sealed frame, so opening
// it also proves the server holds the pairing secret.
//
// Ticket is a fresh single-use resumption ticket; the client presents it
// in a later HELLO to resume in one round trip. It travels only inside this sealed frame, so an
// eavesdropper never sees it.
type HelloAck struct {
	Version   uint8
	SessionID uint64
	Ticket    []byte
}

// ExchangeReq asks for one protected exchange with IMD index IMD.
type ExchangeReq struct {
	IMD uint8
	Cmd uint8
}

// ExchangeResp reports one protected exchange (heartshield.ExchangeReport
// over the wire).
type ExchangeResp struct {
	Response        []byte
	ResponseCommand string
	EavesBER        float64
	CancellationDB  float64
}

// AttackReq asks for one unauthorized-command trial.
type AttackReq struct {
	Cmd      uint8
	ShieldOn bool
}

// AttackResp reports one attack trial (heartshield.AttackReport).
type AttackResp struct {
	IMDResponded     bool
	TherapyChanged   bool
	ShieldJammed     bool
	Alarmed          bool
	AdversaryRSSIDBm float64
}

// ExchangeItem is one exchange inside a BATCH-EXCHANGE: IMD index plus
// command kind (the same pair an ExchangeReq carries).
type ExchangeItem struct {
	IMD uint8
	Cmd uint8
}

// BatchReq runs up to MaxBatch protected exchanges in one sealed round
// trip, amortizing securelink sealing and transport framing. The server
// executes the items in order against the session scenario — the result
// stream is identical to sending the same items as individual
// ExchangeReqs — and either every item succeeds (BatchResp) or the batch
// is refused/aborted with a single Error.
type BatchReq struct {
	Items []ExchangeItem
}

// BatchResp carries one ExchangeResp-shaped result per batch item, in
// item order.
type BatchResp struct {
	Results []ExchangeResp
}

// Ping is a keepalive probe; the peer answers Pong echoing the token.
// Servers answer it immediately from the session reader, bypassing the
// scenario executor, so a Pong also measures queue-independent liveness.
type Ping struct {
	Token uint64
}

// Pong answers a Ping with the same token.
type Pong struct {
	Token uint64
}

// MetricsReq asks for the session's STATUS-METRICS snapshot.
type MetricsReq struct{}

// MetricsResp is the STATUS-METRICS snapshot: per-session counters plus
// a few server-wide gauges for context.
type MetricsResp struct {
	SessionID uint64
	Protocol  uint8

	// Request counters for this session.
	Exchanges        uint64 // single EXCHANGE frames served
	Batches          uint64 // BATCH-EXCHANGE frames served
	BatchedExchanges uint64 // exchanges carried inside those batches
	Attacks          uint64
	Experiments      uint64
	Pings            uint64
	Errors           uint64 // requests answered with an Error frame
	// Retransmits counts responses the server re-sent from its dedup
	// cache because the client sent an already-answered request ID
	// again (a datagram retransmit; 0 on a well-behaved stream session).
	Retransmits uint64

	// Securelink counters for this session's link (server side).
	Rekeys        uint64 // key-ratchet epoch advances, both directions
	ReplayDrops   uint64
	WindowAccepts uint64 // out-of-order frames the receive window absorbed
	BytesSealed   uint64
	BytesOpened   uint64

	// Pipelining gauges.
	InFlight    uint32
	InFlightHWM uint32

	// Server-wide context.
	ServerActiveSessions uint32
	ServerTotalSessions  uint64
	ServerReapedSessions uint64

	// Shed counts requests in this session answered with BUSY by the
	// admission gate (never half-executed; appended at end of layout,
	// PR 5 convention).
	Shed uint64

	// Server-wide overload/admission counters (appended at end of
	// layout, PR 5 convention).
	ServerCookiesSent    uint64 // cookie challenges sent to cookie-less HELLOs
	ServerCookieRejects  uint64 // HELLOs dropped for an invalid/stale cookie
	ServerShedHandshakes uint64 // handshakes answered BUSY at the admission gate
	ServerShedRequests   uint64 // in-session requests answered BUSY
	ServerRateLimited    uint64 // handshake datagrams dropped by per-peer rate limit

	// ProgressFrames counts EXPERIMENT-PROGRESS frames streamed to this
	// session (appended at the end of the layout, like the counters
	// above).
	ProgressFrames uint64
}

// ExperimentReq runs a registry experiment server-side.
type ExperimentReq struct {
	Name    string
	Seed    int64
	Trials  int32
	Quick   bool
	Workers uint8
}

// ExperimentResp carries the experiment's rendered table/figure.
type ExperimentResp struct {
	Rendered string
}

// ExperimentProgress is a streamed partial answer to an EXPERIMENT
// request: Done of Total trials of the named Stage
// have completed. It always travels in an envelope flagged EnvPartial;
// the final ExperimentResp still closes the request.
type ExperimentProgress struct {
	Done  uint32
	Total uint32
	Stage string
}

// StatusReq asks for server-wide counters.
type StatusReq struct{}

// StatusResp reports server-wide counters.
type StatusResp struct {
	ActiveSessions   uint32
	PooledScenarios  uint32
	TotalSessions    uint64
	TotalExchanges   uint64
	TotalExperiments uint64
}

// Bye closes the session cleanly.
type Bye struct{}

// Error reports a request failure; the session stays usable unless the
// transport is torn down.
type Error struct {
	Code uint8
	Msg  string
}

// Error implements the error interface for server-reported failures.
func (e *Error) Error() string { return fmt.Sprintf("shieldd: %s (code %d)", e.Msg, e.Code) }

// --- encoding helpers -------------------------------------------------

func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendBytes(b, v []byte) []byte {
	return append(appendU32(b, uint32(len(v))), v...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// cursor walks an encoded body; every read checks the remaining length.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) u8() uint8 {
	if c.err != nil || len(c.b) < 1 {
		c.err = ErrTruncated
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil || len(c.b) < 4 {
		c.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || len(c.b) < 8 {
		c.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// bool accepts only the canonical encodings 0 and 1, keeping Decode's
// accepted set exactly the Encode image (the fuzz round-trip invariant).
func (c *cursor) bool() bool {
	v := c.u8()
	if c.err == nil && v > 1 {
		c.err = ErrInvalid
	}
	return v == 1
}

func (c *cursor) bytes() []byte {
	n := c.u32()
	if c.err != nil || uint32(len(c.b)) < n {
		c.err = ErrTruncated
		return nil
	}
	v := append([]byte(nil), c.b[:n]...)
	c.b = c.b[n:]
	return v
}

func (c *cursor) string() string { return string(c.bytes()) }

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return ErrTrailing
	}
	return nil
}

// --- per-message encode/decode ----------------------------------------

// Encode serializes the Hello message.
func (m *Hello) Encode() []byte {
	b := []byte{KindHello, m.Version}
	b = append(b, m.Nonce[:]...)
	b = appendU64(b, uint64(m.Seed))
	b = append(b, m.Location, m.Flags, m.ExtraIMDs)
	b = appendBytes(b, m.Cookie)
	b = appendBytes(b, m.KeyShare)
	return appendBytes(b, m.Ticket)
}

// Kind returns the wire kind byte.
func (m *Hello) Kind() byte { return KindHello }

// Encode serializes the Cookie message.
func (m *Cookie) Encode() []byte {
	return appendBytes([]byte{KindCookie}, m.Cookie)
}

// Kind returns the wire kind byte.
func (m *Cookie) Kind() byte { return KindCookie }

// Encode serializes the Busy message.
func (m *Busy) Encode() []byte {
	return appendU32([]byte{KindBusy}, m.RetryAfterMillis)
}

// Kind returns the wire kind byte.
func (m *Busy) Kind() byte { return KindBusy }

// Encode serializes the Challenge2 message.
func (m *Challenge2) Encode() []byte {
	b := append([]byte{KindChallenge2}, m.ServerNonce[:]...)
	b = appendBytes(b, m.KeyShare)
	return appendBool(b, m.Resumed)
}

// Kind returns the wire kind byte.
func (m *Challenge2) Kind() byte { return KindChallenge2 }

// Encode serializes the HelloAck message.
func (m *HelloAck) Encode() []byte {
	b := appendU64([]byte{KindHelloAck, m.Version}, m.SessionID)
	return appendBytes(b, m.Ticket)
}

// Kind returns the wire kind byte.
func (m *HelloAck) Kind() byte { return KindHelloAck }

// Encode serializes the ExchangeReq message.
func (m *ExchangeReq) Encode() []byte {
	return []byte{KindExchangeReq, m.IMD, m.Cmd}
}

// Kind returns the wire kind byte.
func (m *ExchangeReq) Kind() byte { return KindExchangeReq }

// appendExchangeRespBody serializes an ExchangeResp body (no kind byte),
// shared by ExchangeResp and the per-item encoding inside BatchResp.
func appendExchangeRespBody(b []byte, m *ExchangeResp) []byte {
	b = appendBytes(b, m.Response)
	b = appendBytes(b, []byte(m.ResponseCommand))
	b = appendF64(b, m.EavesBER)
	return appendF64(b, m.CancellationDB)
}

// decodeExchangeRespBody reads one ExchangeResp body from the cursor.
func decodeExchangeRespBody(c *cursor) ExchangeResp {
	return ExchangeResp{
		Response:        c.bytes(),
		ResponseCommand: c.string(),
		EavesBER:        c.f64(),
		CancellationDB:  c.f64(),
	}
}

// Encode serializes the ExchangeResp message.
func (m *ExchangeResp) Encode() []byte {
	return appendExchangeRespBody([]byte{KindExchangeResp}, m)
}

// Kind returns the wire kind byte.
func (m *ExchangeResp) Kind() byte { return KindExchangeResp }

// Encode serializes the BatchReq message.
func (m *BatchReq) Encode() []byte {
	b := appendU32([]byte{KindBatchReq}, uint32(len(m.Items)))
	for _, it := range m.Items {
		b = append(b, it.IMD, it.Cmd)
	}
	return b
}

// Kind returns the wire kind byte.
func (m *BatchReq) Kind() byte { return KindBatchReq }

// Encode serializes the BatchResp message.
func (m *BatchResp) Encode() []byte {
	b := appendU32([]byte{KindBatchResp}, uint32(len(m.Results)))
	for i := range m.Results {
		b = appendExchangeRespBody(b, &m.Results[i])
	}
	return b
}

// Kind returns the wire kind byte.
func (m *BatchResp) Kind() byte { return KindBatchResp }

// Encode serializes the Ping message.
func (m *Ping) Encode() []byte {
	return appendU64([]byte{KindPing}, m.Token)
}

// Kind returns the wire kind byte.
func (m *Ping) Kind() byte { return KindPing }

// Encode serializes the Pong message.
func (m *Pong) Encode() []byte {
	return appendU64([]byte{KindPong}, m.Token)
}

// Kind returns the wire kind byte.
func (m *Pong) Kind() byte { return KindPong }

// Encode serializes the MetricsReq message.
func (m *MetricsReq) Encode() []byte { return []byte{KindMetricsReq} }

// Kind returns the wire kind byte.
func (m *MetricsReq) Kind() byte { return KindMetricsReq }

// Encode serializes the MetricsResp message.
func (m *MetricsResp) Encode() []byte {
	b := appendU64([]byte{KindMetricsResp}, m.SessionID)
	b = append(b, m.Protocol)
	b = appendU64(b, m.Exchanges)
	b = appendU64(b, m.Batches)
	b = appendU64(b, m.BatchedExchanges)
	b = appendU64(b, m.Attacks)
	b = appendU64(b, m.Experiments)
	b = appendU64(b, m.Pings)
	b = appendU64(b, m.Errors)
	b = appendU64(b, m.Rekeys)
	b = appendU64(b, m.ReplayDrops)
	b = appendU64(b, m.BytesSealed)
	b = appendU64(b, m.BytesOpened)
	b = appendU32(b, m.InFlight)
	b = appendU32(b, m.InFlightHWM)
	b = appendU32(b, m.ServerActiveSessions)
	b = appendU64(b, m.ServerTotalSessions)
	b = appendU64(b, m.ServerReapedSessions)
	// The PR 5 transport counters are appended at the END of the layout
	// deliberately: a cross-build STATUS-METRICS mismatch then fails
	// loudly in both directions (ErrTruncated / ErrTrailing) instead of
	// silently shifting every later counter into the wrong field.
	b = appendU64(b, m.Retransmits)
	b = appendU64(b, m.WindowAccepts)
	// PR 6 overload/admission counters — same append-at-end convention.
	b = appendU64(b, m.Shed)
	b = appendU64(b, m.ServerCookiesSent)
	b = appendU64(b, m.ServerCookieRejects)
	b = appendU64(b, m.ServerShedHandshakes)
	b = appendU64(b, m.ServerShedRequests)
	b = appendU64(b, m.ServerRateLimited)
	// PR 8 streaming counter — same append-at-end convention.
	return appendU64(b, m.ProgressFrames)
}

// Kind returns the wire kind byte.
func (m *MetricsResp) Kind() byte { return KindMetricsResp }

// Encode serializes the AttackReq message.
func (m *AttackReq) Encode() []byte {
	return appendBool([]byte{KindAttackReq, m.Cmd}, m.ShieldOn)
}

// Kind returns the wire kind byte.
func (m *AttackReq) Kind() byte { return KindAttackReq }

// Encode serializes the AttackResp message.
func (m *AttackResp) Encode() []byte {
	b := appendBool([]byte{KindAttackResp}, m.IMDResponded)
	b = appendBool(b, m.TherapyChanged)
	b = appendBool(b, m.ShieldJammed)
	b = appendBool(b, m.Alarmed)
	return appendF64(b, m.AdversaryRSSIDBm)
}

// Kind returns the wire kind byte.
func (m *AttackResp) Kind() byte { return KindAttackResp }

// Encode serializes the ExperimentReq message.
func (m *ExperimentReq) Encode() []byte {
	b := appendBytes([]byte{KindExperimentReq}, []byte(m.Name))
	b = appendU64(b, uint64(m.Seed))
	b = appendU32(b, uint32(m.Trials))
	b = appendBool(b, m.Quick)
	return append(b, m.Workers)
}

// Kind returns the wire kind byte.
func (m *ExperimentReq) Kind() byte { return KindExperimentReq }

// Encode serializes the ExperimentResp message.
func (m *ExperimentResp) Encode() []byte {
	return appendBytes([]byte{KindExperimentResp}, []byte(m.Rendered))
}

// Kind returns the wire kind byte.
func (m *ExperimentResp) Kind() byte { return KindExperimentResp }

// Encode serializes the ExperimentProgress message.
func (m *ExperimentProgress) Encode() []byte {
	b := appendU32([]byte{KindExperimentProgress}, m.Done)
	b = appendU32(b, m.Total)
	return appendBytes(b, []byte(m.Stage))
}

// Kind returns the wire kind byte.
func (m *ExperimentProgress) Kind() byte { return KindExperimentProgress }

// Encode serializes the StatusReq message.
func (m *StatusReq) Encode() []byte { return []byte{KindStatusReq} }

// Kind returns the wire kind byte.
func (m *StatusReq) Kind() byte { return KindStatusReq }

// Encode serializes the StatusResp message.
func (m *StatusResp) Encode() []byte {
	b := appendU32([]byte{KindStatusResp}, m.ActiveSessions)
	b = appendU32(b, m.PooledScenarios)
	b = appendU64(b, m.TotalSessions)
	b = appendU64(b, m.TotalExchanges)
	return appendU64(b, m.TotalExperiments)
}

// Kind returns the wire kind byte.
func (m *StatusResp) Kind() byte { return KindStatusResp }

// Encode serializes the Bye message.
func (m *Bye) Encode() []byte { return []byte{KindBye} }

// Kind returns the wire kind byte.
func (m *Bye) Kind() byte { return KindBye }

// Encode serializes the Error message.
func (m *Error) Encode() []byte {
	return appendBytes([]byte{KindError, m.Code}, []byte(m.Msg))
}

// Kind returns the wire kind byte.
func (m *Error) Kind() byte { return KindError }

// Decode parses one encoded message. It accepts exactly the byte strings
// Encode produces: unknown kinds, truncation, and trailing garbage are
// all errors, and no input makes it panic.
func Decode(b []byte) (Message, error) {
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	c := &cursor{b: b[1:]}
	var m Message
	switch b[0] {
	case KindHello:
		h := &Hello{Version: c.u8()}
		if len(c.b) >= len(h.Nonce) && c.err == nil {
			copy(h.Nonce[:], c.b)
			c.b = c.b[len(h.Nonce):]
		} else {
			c.err = ErrTruncated
		}
		h.Seed = int64(c.u64())
		h.Location = c.u8()
		h.Flags = c.u8()
		h.ExtraIMDs = c.u8()
		h.Cookie = c.bytes()
		h.KeyShare = c.bytes()
		h.Ticket = c.bytes()
		m = h
	case KindCookie:
		m = &Cookie{Cookie: c.bytes()}
	case KindBusy:
		m = &Busy{RetryAfterMillis: c.u32()}
	case KindChallenge2:
		ch := &Challenge2{}
		if len(c.b) >= len(ch.ServerNonce) && c.err == nil {
			copy(ch.ServerNonce[:], c.b)
			c.b = c.b[len(ch.ServerNonce):]
		} else {
			c.err = ErrTruncated
		}
		ch.KeyShare = c.bytes()
		ch.Resumed = c.bool()
		m = ch
	case KindHelloAck:
		m = &HelloAck{Version: c.u8(), SessionID: c.u64(), Ticket: c.bytes()}
	case KindExchangeReq:
		m = &ExchangeReq{IMD: c.u8(), Cmd: c.u8()}
	case KindExchangeResp:
		resp := decodeExchangeRespBody(c)
		m = &resp
	case KindBatchReq:
		n := c.u32()
		if c.err == nil && n > MaxBatch {
			c.err = ErrInvalid
		}
		// Each item is exactly 2 bytes; check before allocating.
		if c.err == nil && uint32(len(c.b)) < n*2 {
			c.err = ErrTruncated
		}
		br := &BatchReq{}
		if c.err == nil && n > 0 {
			br.Items = make([]ExchangeItem, n)
			for i := range br.Items {
				br.Items[i] = ExchangeItem{IMD: c.u8(), Cmd: c.u8()}
			}
		}
		m = br
	case KindBatchResp:
		n := c.u32()
		if c.err == nil && n > MaxBatch {
			c.err = ErrInvalid
		}
		// Each result is at least 24 bytes (two length prefixes + two
		// float64s); check before allocating.
		if c.err == nil && uint32(len(c.b)) < n*24 {
			c.err = ErrTruncated
		}
		br := &BatchResp{}
		if c.err == nil && n > 0 {
			br.Results = make([]ExchangeResp, n)
			for i := range br.Results {
				br.Results[i] = decodeExchangeRespBody(c)
			}
		}
		m = br
	case KindPing:
		m = &Ping{Token: c.u64()}
	case KindPong:
		m = &Pong{Token: c.u64()}
	case KindMetricsReq:
		m = &MetricsReq{}
	case KindMetricsResp:
		m = &MetricsResp{
			SessionID:            c.u64(),
			Protocol:             c.u8(),
			Exchanges:            c.u64(),
			Batches:              c.u64(),
			BatchedExchanges:     c.u64(),
			Attacks:              c.u64(),
			Experiments:          c.u64(),
			Pings:                c.u64(),
			Errors:               c.u64(),
			Rekeys:               c.u64(),
			ReplayDrops:          c.u64(),
			BytesSealed:          c.u64(),
			BytesOpened:          c.u64(),
			InFlight:             c.u32(),
			InFlightHWM:          c.u32(),
			ServerActiveSessions: c.u32(),
			ServerTotalSessions:  c.u64(),
			ServerReapedSessions: c.u64(),
			Retransmits:          c.u64(),
			WindowAccepts:        c.u64(),
			Shed:                 c.u64(),
			ServerCookiesSent:    c.u64(),
			ServerCookieRejects:  c.u64(),
			ServerShedHandshakes: c.u64(),
			ServerShedRequests:   c.u64(),
			ServerRateLimited:    c.u64(),
			ProgressFrames:       c.u64(),
		}
	case KindAttackReq:
		m = &AttackReq{Cmd: c.u8(), ShieldOn: c.bool()}
	case KindAttackResp:
		m = &AttackResp{
			IMDResponded:     c.bool(),
			TherapyChanged:   c.bool(),
			ShieldJammed:     c.bool(),
			Alarmed:          c.bool(),
			AdversaryRSSIDBm: c.f64(),
		}
	case KindExperimentReq:
		m = &ExperimentReq{
			Name:    c.string(),
			Seed:    int64(c.u64()),
			Trials:  int32(c.u32()),
			Quick:   c.bool(),
			Workers: c.u8(),
		}
	case KindExperimentResp:
		m = &ExperimentResp{Rendered: c.string()}
	case KindExperimentProgress:
		m = &ExperimentProgress{
			Done:  c.u32(),
			Total: c.u32(),
			Stage: c.string(),
		}
	case KindStatusReq:
		m = &StatusReq{}
	case KindStatusResp:
		m = &StatusResp{
			ActiveSessions:   c.u32(),
			PooledScenarios:  c.u32(),
			TotalSessions:    c.u64(),
			TotalExchanges:   c.u64(),
			TotalExperiments: c.u64(),
		}
	case KindBye:
		m = &Bye{}
	case KindError:
		m = &Error{Code: c.u8(), Msg: c.string()}
	default:
		return nil, ErrUnknownKind
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- envelope -----------------------------------------------------------

// Envelope flag bits.
const (
	// EnvPartial marks a response frame that does not complete its
	// request: more frames for the same id follow (EXPERIMENT-PROGRESS
	// streaming). The client must not retire the request, and the server
	// must not record a partial frame in its dedup ledger.
	EnvPartial uint8 = 1 << 0

	envFlagsMask = EnvPartial
)

// EncodeEnvelopeV3 serializes a sealed frame payload:
// id(8) || flags(1) || cum(8) || message. The id is the client-chosen
// request identifier, echoed on responses; cum is the
// sender's cumulative-progress report — client→server, the highest
// request ID through which every response has been received (the server
// may prune its dedup ledger at and below it); server→client, the
// highest request ID through which every request has been received and
// sequenced.
func EncodeEnvelopeV3(id uint64, flags uint8, cum uint64, m Message) []byte {
	enc := m.Encode()
	b := make([]byte, 17, 17+len(enc))
	binary.BigEndian.PutUint64(b, id)
	b[8] = flags
	binary.BigEndian.PutUint64(b[9:], cum)
	return append(b, enc...)
}

// DecodeEnvelopeV3 parses a sealed frame payload. It is as total as Decode:
// truncated headers, unknown flag bits, malformed messages, and trailing
// bytes are all errors, and an accepted envelope re-encodes to exactly
// the accepted bytes.
func DecodeEnvelopeV3(b []byte) (id uint64, flags uint8, cum uint64, m Message, err error) {
	if len(b) < 17 {
		return 0, 0, 0, nil, ErrTruncated
	}
	id = binary.BigEndian.Uint64(b[:8])
	flags = b[8]
	cum = binary.BigEndian.Uint64(b[9:17])
	if flags&^envFlagsMask != 0 {
		return id, flags, cum, nil, ErrInvalid
	}
	m, err = Decode(b[17:])
	if err != nil {
		return id, flags, cum, nil, err
	}
	return id, flags, cum, m, nil
}

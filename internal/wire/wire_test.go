package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// sampleMessages is one instance of every message kind with non-trivial
// field values; the encode/decode tests and the fuzz seed corpus share it.
func sampleMessages() []Message {
	hello := &Hello{Version: Version, Seed: -42, Location: 7,
		Flags: FlagFlatJam | FlagConcerto, ExtraIMDs: 3}
	copy(hello.Nonce[:], "nonce-0123456789")
	cookieHello := &Hello{Version: Version, Seed: 9, Cookie: []byte("opaque-cookie-token")}
	copy(cookieHello.Nonce[:], "nonce-covershoot")
	akeHello := &Hello{Version: Version, Seed: 3,
		KeyShare: bytes.Repeat([]byte{0x5A}, 32), Ticket: []byte("resumption-ticket-opaque")}
	copy(akeHello.Nonce[:], "nonce-akexchange")
	challenge2 := &Challenge2{KeyShare: bytes.Repeat([]byte{0xC3}, 32)}
	copy(challenge2.ServerNonce[:], "srvnonce2-876543")
	resumedChallenge2 := &Challenge2{Resumed: true}
	copy(resumedChallenge2.ServerNonce[:], "srvnonce2-resume")
	return []Message{
		hello,
		cookieHello,
		akeHello,
		&Error{Code: CodeVersion, Msg: "wire protocol v3 not supported (server speaks v4)"},
		challenge2,
		resumedChallenge2,
		&Cookie{Cookie: []byte("mac-over-addr-and-nonce!")},
		&Busy{RetryAfterMillis: 750},
		&HelloAck{Version: Version, SessionID: 0xDEADBEEF01},
		&HelloAck{Version: Version, SessionID: 2, Ticket: []byte("fresh-single-use-ticket")},
		&ExchangeReq{IMD: 2, Cmd: CmdSetTherapy},
		&ExchangeResp{Response: []byte("patient-data"), ResponseCommand: "data-response",
			EavesBER: 0.4961, CancellationDB: 34.93},
		&AttackReq{Cmd: CmdInterrogate, ShieldOn: true},
		&AttackResp{IMDResponded: true, ShieldJammed: true, AdversaryRSSIDBm: -31.5},
		&ExperimentReq{Name: "fig7", Seed: 1, Trials: 40, Quick: true, Workers: 8},
		&ExperimentResp{Rendered: "Fig. 7 — antidote cancellation\nmean 34.9 dB\n"},
		&ExperimentProgress{Done: 64, Total: 400, Stage: "fig7"},
		&ExperimentProgress{},
		&StatusReq{},
		&StatusResp{ActiveSessions: 32, PooledScenarios: 4, TotalSessions: 100,
			TotalExchanges: 12345, TotalExperiments: 6},
		&BatchReq{Items: []ExchangeItem{{IMD: 0, Cmd: CmdInterrogate}, {IMD: 2, Cmd: CmdSetTherapy}}},
		&BatchResp{Results: []ExchangeResp{
			{Response: []byte("a"), ResponseCommand: "data-response", EavesBER: 0.5, CancellationDB: 30},
			{Response: []byte("bb"), ResponseCommand: "ack", EavesBER: 0.48, CancellationDB: 35.2},
		}},
		&BatchReq{},
		&BatchResp{},
		&Ping{Token: 0xFEEDFACE},
		&Pong{Token: 0xFEEDFACE},
		&MetricsReq{},
		&MetricsResp{SessionID: 17, Protocol: 2, Exchanges: 9, Batches: 2,
			BatchedExchanges: 32, Attacks: 1, Experiments: 3, Pings: 5, Errors: 1,
			Retransmits: 7, Rekeys: 4, ReplayDrops: 0, WindowAccepts: 11,
			BytesSealed: 1 << 20, BytesOpened: 9000,
			InFlight: 3, InFlightHWM: 12, ServerActiveSessions: 2,
			ServerTotalSessions: 40, ServerReapedSessions: 6,
			Shed: 2, ServerCookiesSent: 64, ServerCookieRejects: 9,
			ServerShedHandshakes: 12, ServerShedRequests: 5, ServerRateLimited: 30,
			ProgressFrames: 13},
		&Bye{},
		&Error{Code: CodeExchangeFailed, Msg: "IMD did not respond"},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		enc := m.Encode()
		if enc[0] != m.Kind() {
			t.Fatalf("%T: encoded kind 0x%02x, Kind() 0x%02x", m, enc[0], m.Kind())
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T round trip:\n got %+v\nwant %+v", m, got, m)
		}
		if re := got.(Message).Encode(); !bytes.Equal(re, enc) {
			t.Fatalf("%T re-encode differs:\n got %x\nwant %x", m, re, enc)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for _, m := range sampleMessages() {
		enc := m.Encode()
		for n := 0; n < len(enc); n++ {
			if _, err := Decode(enc[:n]); err == nil {
				t.Fatalf("%T: decode accepted %d/%d-byte prefix", m, n, len(enc))
			}
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	for _, m := range sampleMessages() {
		enc := append(m.Encode(), 0x00)
		if _, err := Decode(enc); !errors.Is(err, ErrTrailing) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("%T: decode with trailing byte = %v", m, err)
		}
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := Decode([]byte{0x77, 1, 2, 3}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind error = %v", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty decode error = %v", err)
	}
}

// A lying length prefix inside a message body must not cause a huge
// allocation or an out-of-range read.
func TestDecodeRejectsLyingLengthPrefix(t *testing.T) {
	b := []byte{KindExperimentResp, 0xFF, 0xFF, 0xFF, 0xFF, 'x'}
	if _, err := Decode(b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying length error = %v", err)
	}
}

// A batch announcing more items than MaxBatch must be refused before any
// allocation, as must a count that exceeds the remaining bytes.
func TestDecodeRejectsOversizeBatch(t *testing.T) {
	over := append([]byte{KindBatchReq}, 0x00, 0x00, 0x01, 0x01) // 257 items
	over = append(over, bytes.Repeat([]byte{0}, 2*(MaxBatch+1))...)
	if _, err := Decode(over); !errors.Is(err, ErrInvalid) {
		t.Fatalf("over-MaxBatch decode error = %v, want ErrInvalid", err)
	}
	lying := []byte{KindBatchReq, 0x00, 0x00, 0x00, 0x40} // 64 items, no bodies
	if _, err := Decode(lying); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying batch count error = %v, want ErrTruncated", err)
	}
	lyingResp := []byte{KindBatchResp, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := Decode(lyingResp); err == nil {
		t.Fatal("lying batch-resp count accepted")
	}
}

func TestEnvelopeV3RoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		id := uint64(i)*0x0101010101 + 7
		flags := uint8(0)
		if i%2 == 1 {
			flags = EnvPartial
		}
		cum := id - 3
		enc := EncodeEnvelopeV3(id, flags, cum, m)
		gotID, gotFlags, gotCum, got, err := DecodeEnvelopeV3(enc)
		if err != nil {
			t.Fatalf("%T: v3 envelope decode: %v", m, err)
		}
		if gotID != id || gotFlags != flags || gotCum != cum {
			t.Fatalf("%T: v3 header = (%d, %#x, %d), want (%d, %#x, %d)",
				m, gotID, gotFlags, gotCum, id, flags, cum)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T v3 envelope round trip:\n got %+v\nwant %+v", m, got, m)
		}
		if re := EncodeEnvelopeV3(gotID, gotFlags, gotCum, got); !bytes.Equal(re, enc) {
			t.Fatalf("%T v3 re-encode differs:\n got %x\nwant %x", m, re, enc)
		}
	}
	if _, _, _, _, err := DecodeEnvelopeV3(make([]byte, 16)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short v3 envelope error = %v, want ErrTruncated", err)
	}
	if _, _, _, _, err := DecodeEnvelopeV3(make([]byte, 17)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty-message v3 envelope error = %v, want ErrTruncated", err)
	}
	// Unknown flag bits must be refused: the flags byte is part of the
	// encode image, so accepting them would break round-trip equality.
	bad := EncodeEnvelopeV3(9, 0, 4, &Ping{Token: 1})
	bad[8] = 0x80
	if _, _, _, _, err := DecodeEnvelopeV3(bad); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown v3 flag error = %v, want ErrInvalid", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xA5}, 5000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame round trip: got %x want %x", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

func TestFrameLengthLimit(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); err != ErrFrameTooBig {
		t.Fatalf("oversize write error = %v", err)
	}
	// A header announcing more than MaxFrame must be rejected before any
	// allocation of the announced size.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err != ErrFrameTooBig {
		t.Fatalf("oversize read error = %v", err)
	}
}

func TestReadFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	// A frame over the caller's limit is rejected before allocation even
	// though it is under MaxFrame.
	if _, err := ReadFrameLimit(bytes.NewReader(buf.Bytes()), 256); err != ErrFrameTooBig {
		t.Fatalf("over-limit read error = %v", err)
	}
	got, err := ReadFrameLimit(bytes.NewReader(buf.Bytes()), 300)
	if err != nil || len(got) != 300 {
		t.Fatalf("at-limit read = %d bytes, err %v", len(got), err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("truncate me")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(short)); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload error = %v", err)
	}
}

// TranscriptBytes is the HELLO encoding bound into the v4 handshake
// transcript: identical for HELLOs that differ only in their cookie
// (which changes between datagram retransmits), different for any other
// field.
func TestHelloTranscriptBytes(t *testing.T) {
	h := &Hello{Version: Version, Seed: 77, KeyShare: bytes.Repeat([]byte{0x11}, 32)}
	copy(h.Nonce[:], "nonce-transcript")
	bare := h.TranscriptBytes()

	cookied := *h
	cookied.Cookie = []byte("admission-cookie")
	if !bytes.Equal(cookied.TranscriptBytes(), bare) {
		t.Fatal("cookie changed the handshake transcript")
	}
	if cookied.Cookie == nil {
		t.Fatal("TranscriptBytes mutated the message")
	}

	tampered := *h
	tampered.KeyShare = bytes.Repeat([]byte{0x22}, 32)
	if bytes.Equal(tampered.TranscriptBytes(), bare) {
		t.Fatal("key-share substitution left the transcript unchanged")
	}
	ticketed := *h
	ticketed.Ticket = []byte("ticket")
	if bytes.Equal(ticketed.TranscriptBytes(), bare) {
		t.Fatal("ticket presence left the transcript unchanged")
	}
}

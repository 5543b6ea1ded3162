package phy

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(BitsToBytes(BytesToBits(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsMSBFirst(t *testing.T) {
	bits := BytesToBits([]byte{0x80, 0x01})
	if bits[0] != 1 || bits[7] != 0 {
		t.Fatalf("0x80 bits = %v, want MSB first", bits[:8])
	}
	if bits[8] != 0 || bits[15] != 1 {
		t.Fatalf("0x01 bits = %v, want MSB first", bits[8:])
	}
}

func TestHammingDistance(t *testing.T) {
	if d := HammingDistance([]byte{1, 0, 1}, []byte{1, 1, 1}); d != 1 {
		t.Fatalf("distance = %d, want 1", d)
	}
	if d := HammingDistance([]byte{1, 0}, []byte{1, 0, 1, 1}); d != 2 {
		t.Fatalf("length mismatch distance = %d, want 2", d)
	}
	if d := HammingDistance(nil, nil); d != 0 {
		t.Fatalf("empty distance = %d, want 0", d)
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16 = 0x%04X, want 0x29B1", got)
	}
}

func TestCRC16DetectsSingleBitFlipsProperty(t *testing.T) {
	f := func(data []byte, pos uint) bool {
		if len(data) == 0 {
			return true
		}
		orig := CRC16(data)
		i := int(pos % uint(len(data)))
		bit := byte(1) << (pos % 8)
		mutated := append([]byte(nil), data...)
		mutated[i] ^= bit
		return CRC16(mutated) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func testFrame() *Frame {
	f := &Frame{Command: CmdSetTherapy, Payload: []byte{0x10, 0x20, 0x30}}
	copy(f.Serial[:], "PZK600123H")
	return f
}

func TestFrameRoundTrip(t *testing.T) {
	f := testFrame()
	raw := f.Marshal()
	if len(raw) != AirBytes(len(f.Payload)) {
		t.Fatalf("marshalled length %d, want %d", len(raw), AirBytes(len(f.Payload)))
	}
	got, err := ParseFrame(raw)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if got.Serial != f.Serial || got.Command != f.Command || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func TestFrameRejectsAnyBodyBitFlipProperty(t *testing.T) {
	f := testFrame()
	raw := f.Marshal()
	bodyStart := PreambleBytes + SyncBytes
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mutated := append([]byte(nil), raw...)
		i := bodyStart + r.Intn(len(raw)-bodyStart)
		mutated[i] ^= byte(1) << r.Intn(8)
		_, err := ParseFrame(mutated)
		return err != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal("a corrupted frame parsed successfully:", err)
	}
}

func TestFrameRejectsShortAndBadSync(t *testing.T) {
	if _, err := ParseFrame([]byte{1, 2, 3}); err != ErrFrameTooShort {
		t.Fatalf("short frame error = %v", err)
	}
	raw := testFrame().Marshal()
	raw[PreambleBytes] ^= 0xFF
	if _, err := ParseFrame(raw); err != ErrBadSync {
		t.Fatalf("bad sync error = %v", err)
	}
}

func TestFrameRejectsBadLength(t *testing.T) {
	raw := testFrame().Marshal()
	raw[PreambleBytes+SyncBytes+SerialBytes+1] = 200 // length > remaining bytes
	if _, err := ParseFrame(raw); err != ErrBadLength {
		t.Fatalf("bad length error = %v", err)
	}
}

func TestMarshalPanicsOnOversizedPayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized payload should panic")
		}
	}()
	f := &Frame{Payload: make([]byte, MaxPayload+1)}
	f.Marshal()
}

func TestSid(t *testing.T) {
	f := testFrame()
	sid := Sid(f.Serial)
	if len(sid) != SidBits {
		t.Fatalf("Sid length = %d, want %d", len(sid), SidBits)
	}
	// Sid must be the prefix of every frame this device sends or receives.
	frameBits := f.MarshalBits()
	if HammingDistance(sid, frameBits[:SidBits]) != 0 {
		t.Fatal("Sid is not a prefix of the marshalled frame")
	}
	// A different serial differs in many positions.
	var other [SerialBytes]byte
	copy(other[:], "XXXXXXXXXX")
	if d := HammingDistance(sid, Sid(other)); d < 10 {
		t.Fatalf("different serials differ in only %d bits", d)
	}
}

func TestCommandStringAndIsResponse(t *testing.T) {
	if CmdInterrogate.String() != "interrogate" {
		t.Fatal("command name")
	}
	if !CmdDataResponse.IsResponse() || CmdInterrogate.IsResponse() {
		t.Fatal("IsResponse misclassifies")
	}
	if Command(0x55).String() == "" {
		t.Fatal("unknown command should still render")
	}
}

func TestCountBitErrors(t *testing.T) {
	errs, n := CountBitErrors([]byte{1, 1, 0, 0}, []byte{1, 0, 0})
	if errs != 1 || n != 3 {
		t.Fatalf("CountBitErrors = (%d,%d), want (1,3)", errs, n)
	}
}

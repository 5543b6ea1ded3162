package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// idFramed is the retired id(8) || message framing of wire v2. Frames in
// that shape stay in the seed corpus: both decoders must refuse them (or
// accept them totally) now that nothing speaks it.
func idFramed(id uint64, m Message) []byte {
	return append(binary.BigEndian.AppendUint64(nil, id), m.Encode()...)
}

// FuzzWireDecode checks that both decoders — Decode for bare messages
// and DecodeEnvelopeV3 for the id+flags+cum envelopes — are total (no
// input panics or over-allocates) and that everything they accept
// re-encodes to exactly the bytes accepted. The decoders sit behind
// securelink on the real wire, but defense in depth matters: a
// compromised peer with a valid session key must still not be able to
// crash the server with a malformed body, an oversize BATCH-EXCHANGE
// count, or a truncated envelope.
func FuzzWireDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(m.Encode())
		f.Add(idFramed(0xABCD, m))
		f.Add(EncodeEnvelopeV3(0xABCD, EnvPartial, 0xABCC, m))
	}
	f.Add([]byte{})
	f.Add([]byte{KindExchangeResp, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{KindBatchReq, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{KindBatchResp, 0x00, 0x00, 0x01, 0x00})
	f.Add(bytes.Repeat([]byte{0x01}, 40))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if m, err := Decode(raw); err == nil {
			if re := m.Encode(); !bytes.Equal(re, raw) {
				t.Fatalf("accepted message does not round trip:\n in: %x\nout: %x", raw, re)
			}
		}
		if id, flags, cum, m, err := DecodeEnvelopeV3(raw); err == nil {
			if re := EncodeEnvelopeV3(id, flags, cum, m); !bytes.Equal(re, raw) {
				t.Fatalf("accepted v3 envelope does not round trip:\n in: %x\nout: %x", raw, re)
			}
		}
	})
}

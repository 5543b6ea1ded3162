package phy

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Over-the-air frame layout (MSB-first bits):
//
//	preamble  4 bytes  0xAA.. (alternating 1010)
//	sync      2 bytes  0x2D 0xD4
//	serial   10 bytes  device serial number (the Medtronic-style 10-byte ID)
//	command   1 byte
//	length    1 byte   payload byte count
//	payload   0..MaxPayload bytes
//	crc       2 bytes  CRC-16/CCITT-FALSE over serial..payload
//
// The identifying sequence Sid that the shield matches (§7a) is the
// preamble + sync + serial prefix: 128 bits.
const (
	PreambleBytes = 4
	SyncBytes     = 2
	SerialBytes   = 10
	headerBytes   = SerialBytes + 2 // serial + command + length
	crcBytes      = 2

	// MaxPayload bounds the payload so the longest frame stays within the
	// IMD's maximum packet duration P (21 ms at 50 kbit/s ≈ 131 bytes).
	MaxPayload = 110

	// SidBits is the length of the identifying sequence in bits.
	SidBits = (PreambleBytes + SyncBytes + SerialBytes) * 8
)

// PreambleByte is the alternating training pattern.
const PreambleByte = 0xAA

// SyncWord marks the end of the preamble.
var SyncWord = [SyncBytes]byte{0x2D, 0xD4}

// Command identifies the frame's purpose.
type Command byte

// Command values. Responses have the high bit set.
const (
	CmdInterrogate Command = 0x01 // ask the IMD to transmit its stored data
	CmdSetTherapy  Command = 0x02 // change a therapy parameter
	CmdReadTherapy Command = 0x03 // read back therapy parameters
	CmdProbe       Command = 0x07 // shield channel-estimation probe

	CmdDataResponse    Command = 0x81
	CmdTherapyAck      Command = 0x82
	CmdTherapyReadback Command = 0x83
)

// String names the command for logs and reports.
func (c Command) String() string {
	switch c {
	case CmdInterrogate:
		return "interrogate"
	case CmdSetTherapy:
		return "set-therapy"
	case CmdReadTherapy:
		return "read-therapy"
	case CmdProbe:
		return "probe"
	case CmdDataResponse:
		return "data-response"
	case CmdTherapyAck:
		return "therapy-ack"
	case CmdTherapyReadback:
		return "therapy-readback"
	default:
		return fmt.Sprintf("cmd(0x%02x)", byte(c))
	}
}

// IsResponse reports whether the command is an IMD-originated response.
func (c Command) IsResponse() bool { return byte(c)&0x80 != 0 }

// Frame is a parsed IMD-protocol frame.
type Frame struct {
	Serial  [SerialBytes]byte
	Command Command
	Payload []byte
}

// Errors returned by ParseFrame.
var (
	ErrFrameTooShort = errors.New("phy: frame too short")
	ErrBadSync       = errors.New("phy: sync word mismatch")
	ErrBadCRC        = errors.New("phy: CRC mismatch")
	ErrBadLength     = errors.New("phy: length field out of range")
)

// Marshal serializes the frame to its over-the-air byte representation.
func (f *Frame) Marshal() []byte {
	if len(f.Payload) > MaxPayload {
		panic(fmt.Sprintf("phy: payload %d exceeds MaxPayload %d", len(f.Payload), MaxPayload))
	}
	n := PreambleBytes + SyncBytes + headerBytes + len(f.Payload) + crcBytes
	out := make([]byte, 0, n)
	for i := 0; i < PreambleBytes; i++ {
		out = append(out, PreambleByte)
	}
	out = append(out, SyncWord[:]...)
	body := make([]byte, 0, headerBytes+len(f.Payload))
	body = append(body, f.Serial[:]...)
	body = append(body, byte(f.Command), byte(len(f.Payload)))
	body = append(body, f.Payload...)
	out = append(out, body...)
	var crc [2]byte
	binary.BigEndian.PutUint16(crc[:], CRC16(body))
	return append(out, crc[:]...)
}

// MarshalBits returns the frame as MSB-first bits, the representation the
// modem consumes.
func (f *Frame) MarshalBits() []byte { return BytesToBits(f.Marshal()) }

// AirBytes returns the total on-air byte count for a frame with the given
// payload length.
func AirBytes(payloadLen int) int {
	return PreambleBytes + SyncBytes + headerBytes + payloadLen + crcBytes
}

// AirBits returns the total on-air bit count for a payload length.
func AirBits(payloadLen int) int { return AirBytes(payloadLen) * 8 }

// ParseFrame parses raw over-the-air bytes (starting at the preamble) into
// a Frame, enforcing sync and CRC. This models the IMD's receive path: any
// bit error in the body makes the CRC fail and the frame is discarded.
func ParseFrame(raw []byte) (*Frame, error) {
	minLen := PreambleBytes + SyncBytes + headerBytes + crcBytes
	if len(raw) < minLen {
		return nil, ErrFrameTooShort
	}
	p := raw[PreambleBytes:]
	if p[0] != SyncWord[0] || p[1] != SyncWord[1] {
		return nil, ErrBadSync
	}
	p = p[SyncBytes:]
	var f Frame
	copy(f.Serial[:], p[:SerialBytes])
	f.Command = Command(p[SerialBytes])
	plen := int(p[SerialBytes+1])
	if plen > MaxPayload || headerBytes+plen+crcBytes > len(p) {
		return nil, ErrBadLength
	}
	body := p[:headerBytes+plen]
	crcGot := binary.BigEndian.Uint16(p[headerBytes+plen : headerBytes+plen+crcBytes])
	if CRC16(body) != crcGot {
		return nil, ErrBadCRC
	}
	f.Payload = append([]byte(nil), p[headerBytes:headerBytes+plen]...)
	return &f, nil
}

// Sid returns the identifying sequence (as bits) for a device serial:
// preamble + sync + serial. The shield matches the first SidBits decoded
// bits of any transmission against this sequence.
func Sid(serial [SerialBytes]byte) []byte {
	raw := make([]byte, 0, PreambleBytes+SyncBytes+SerialBytes)
	for i := 0; i < PreambleBytes; i++ {
		raw = append(raw, PreambleByte)
	}
	raw = append(raw, SyncWord[:]...)
	raw = append(raw, serial[:]...)
	return BytesToBits(raw)
}

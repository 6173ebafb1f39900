package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire frame format. Every message on a connection — request or response —
// is one frame:
//
//	offset  size  field
//	0       4     magic ("DSw1")
//	4       1     frame type (1 request, 2 response)
//	5       3     reserved (must be zero)
//	8       4     payload length (≤ MaxFramePayload)
//	12      4     checksum — FNV-1a over the payload bytes
//	16      n     payload
//
// The discipline is pointerlog's cold-segment framing ("DSg1") applied to
// a socket: self-describing length so the reader never over-reads, a
// checksum so corruption is detected before decoding, and fail-closed
// semantics — any validation failure poisons the connection, because the
// stream position after a bad frame is unknowable.

// FrameMagic marks a wire frame header ("DSw1" little-endian).
const FrameMagic = uint32('D') | uint32('S')<<8 | uint32('w')<<16 | uint32('1')<<24

// FrameHeaderBytes is the fixed frame header size.
const FrameHeaderBytes = 16

// MaxFramePayload bounds a frame's declared payload length. A frame
// claiming more fails closed before any allocation — the cap is what
// keeps a corrupt or hostile length field from becoming an over-read or
// an allocation bomb.
const MaxFramePayload = 1 << 20

// Frame types.
const (
	FrameRequest  byte = 1
	FrameResponse byte = 2
)

// fnv1a is the payload checksum (FNV-1a 32-bit), the same function the
// cold-segment format uses.
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// frameHeaderSpace reserves a header in front of a payload built in place.
var frameHeaderSpace [FrameHeaderBytes]byte

// sealFrame writes the header of the frame that occupies all of frame —
// header space first, payload behind it — and returns frame.
func sealFrame(frame []byte, typ byte) []byte {
	payload := frame[FrameHeaderBytes:]
	binary.LittleEndian.PutUint32(frame[0:], FrameMagic)
	frame[4] = typ
	binary.LittleEndian.PutUint32(frame[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[12:], fnv1a(payload))
	return frame
}

// AppendFrame appends one framed message to dst and returns the extended
// slice.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	off := len(dst)
	dst = append(append(dst, frameHeaderSpace[:]...), payload...)
	sealFrame(dst[off:], typ)
	return dst
}

// validateHeader checks the fixed fields of a frame header and returns the
// declared payload length.
func validateHeader(hdr []byte) (typ byte, payloadLen int, err error) {
	if binary.LittleEndian.Uint32(hdr[0:]) != FrameMagic {
		return 0, 0, &FrameError{Reason: "bad magic"}
	}
	typ = hdr[4]
	if typ != FrameRequest && typ != FrameResponse {
		return 0, 0, &FrameError{Reason: fmt.Sprintf("unknown frame type %d", typ)}
	}
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return 0, 0, &FrameError{Reason: "nonzero reserved bytes"}
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > MaxFramePayload {
		return 0, 0, &FrameError{Reason: fmt.Sprintf("payload length %d exceeds cap %d", n, MaxFramePayload)}
	}
	return typ, int(n), nil
}

// ReadFrame reads exactly one frame from r into a fresh buffer. Validation
// failures return a *FrameError; I/O failures (including deadline expiry)
// return the underlying error untouched so the caller can classify them.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var buf []byte
	return ReadFrameInto(r, &buf)
}

// ReadFrameInto is ReadFrame into a caller-owned buffer: *buf holds header
// and payload, grows when a frame needs more (only after the declared
// length passed the cap), and is reused by the next call — the returned
// payload aliases it and is valid only until then.
func ReadFrameInto(r io.Reader, buf *[]byte) (typ byte, payload []byte, err error) {
	b := *buf
	if cap(b) < FrameHeaderBytes {
		b = make([]byte, FrameHeaderBytes, 128)
	}
	b = b[:FrameHeaderBytes]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	typ, n, err := validateHeader(b)
	if err != nil {
		return 0, nil, err
	}
	if cap(b) < FrameHeaderBytes+n {
		b = append(make([]byte, 0, FrameHeaderBytes+n), b...)
	}
	b = b[:FrameHeaderBytes+n]
	*buf = b
	payload = b[FrameHeaderBytes:]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if fnv1a(payload) != binary.LittleEndian.Uint32(b[12:]) {
		return 0, nil, &FrameError{Reason: "checksum mismatch"}
	}
	return typ, payload, nil
}

// DecodeFrame parses one frame at the start of b without reading from a
// stream — the fuzz target and offline tooling use it. It returns the
// frame type, the payload, and the total framed length consumed. Short
// input, bad framing, and checksum mismatches all fail closed with a
// *FrameError; no input can make it panic or read past len(b).
func DecodeFrame(b []byte) (typ byte, payload []byte, n int, err error) {
	if len(b) < FrameHeaderBytes {
		return 0, nil, 0, &FrameError{Reason: "truncated header"}
	}
	typ, payloadLen, err := validateHeader(b[:FrameHeaderBytes])
	if err != nil {
		return 0, nil, 0, err
	}
	if len(b) < FrameHeaderBytes+payloadLen {
		return 0, nil, 0, &FrameError{Reason: "truncated payload"}
	}
	payload = b[FrameHeaderBytes : FrameHeaderBytes+payloadLen]
	if fnv1a(payload) != binary.LittleEndian.Uint32(b[12:]) {
		return 0, nil, 0, &FrameError{Reason: "checksum mismatch"}
	}
	return typ, payload, FrameHeaderBytes + payloadLen, nil
}

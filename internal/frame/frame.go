// Package frame is the one framing of the project's two byte formats: a
// cold-tier segment in a spill file and a message on a service connection.
// A frame is a fixed header and a payload, little-endian throughout:
//
//	offset  size  field
//	0       4     magic    — the caller's format ("DSg1", "DSw1")
//	4       4     tag      — what the payload is, in the caller's words
//	8       4     length   — payload bytes, at most the caller's cap
//	12      4     checksum — FNV-1a over the payload bytes
//	16      n     payload
//
// The length is self-describing, so a reader never over-reads, and the
// checksum catches damage before anything decodes the payload. Decoding
// fails closed: a wrong magic, a length over the cap, a frame cut short or
// a checksum mismatch is an *Error, never a panic, and nothing is sliced
// past the capped declared length.
package frame

import (
	"encoding/binary"
	"fmt"
	"io"
)

// HeaderBytes is the fixed header size.
const HeaderBytes = 16

// Error reports a frame, or a payload inside one, that failed validation.
type Error struct {
	Reason string
}

func (e *Error) Error() string { return "bad frame: " + e.Reason }

// checksum is FNV-1a (32-bit) over b.
func checksum(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// Seal writes the header of the frame that occupies all of f — HeaderBytes
// of reserved space first, the payload built in place behind it — and
// returns f.
func Seal(f []byte, magic, tag uint32) []byte {
	payload := f[HeaderBytes:]
	binary.LittleEndian.PutUint32(f[0:], magic)
	binary.LittleEndian.PutUint32(f[4:], tag)
	binary.LittleEndian.PutUint32(f[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[12:], checksum(payload))
	return f
}

// payloadLen checks the magic of the header hdr and returns its declared
// payload length, which it caps at max.
func payloadLen(hdr []byte, magic uint32, max int) (int, error) {
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return 0, &Error{Reason: "bad magic"}
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if uint64(n) > uint64(max) {
		return 0, &Error{Reason: fmt.Sprintf("payload length %d exceeds cap %d", n, max)}
	}
	return int(n), nil
}

// open returns the tag and payload of f, a whole frame whose header passed
// payloadLen, once its checksum holds.
func open(f []byte) (tag uint32, payload []byte, err error) {
	payload = f[HeaderBytes:]
	if checksum(payload) != binary.LittleEndian.Uint32(f[12:]) {
		return 0, nil, &Error{Reason: "checksum mismatch"}
	}
	return binary.LittleEndian.Uint32(f[4:]), payload, nil
}

// Decode parses the frame at the start of b, which may hold more after it.
// The payload aliases b; the frame spans HeaderBytes+len(payload) bytes.
func Decode(b []byte, magic uint32, max int) (tag uint32, payload []byte, err error) {
	if len(b) < HeaderBytes {
		return 0, nil, &Error{Reason: "truncated header"}
	}
	n, err := payloadLen(b, magic, max)
	if err != nil {
		return 0, nil, err
	}
	if len(b)-HeaderBytes < n {
		return 0, nil, &Error{Reason: "truncated payload"}
	}
	return open(b[:HeaderBytes+n])
}

// Read reads exactly one frame from r into *buf, which holds header and
// payload, grows when a frame needs more (only after the declared length
// passed the cap), and is reused by the next call: the returned payload
// aliases it and is valid only until then. Validation failures are an
// *Error; I/O failures, a stream that ends mid-frame included, return the
// reader's error untouched so the caller can classify them.
func Read(r io.Reader, magic uint32, max int, buf *[]byte) (tag uint32, payload []byte, err error) {
	b := *buf
	if cap(b) < HeaderBytes {
		b = make([]byte, HeaderBytes, 128)
	}
	b = b[:HeaderBytes]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	n, err := payloadLen(b, magic, max)
	if err != nil {
		return 0, nil, err
	}
	if cap(b) < HeaderBytes+n {
		b = append(make([]byte, 0, HeaderBytes+n), b...)
	}
	b = b[:HeaderBytes+n]
	*buf = b
	if _, err := io.ReadFull(r, b[HeaderBytes:]); err != nil {
		return 0, nil, err
	}
	return open(b)
}

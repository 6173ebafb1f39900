package transport

import (
	"fmt"
	"io"

	"dangsan/internal/frame"
)

// Every message on a connection — request or response — is one frame
// (internal/frame) with magic "DSw1", its frame type as the tag, and a
// payload of at most MaxFramePayload bytes. Any validation failure poisons
// the connection, because the stream position after a bad frame is
// unknowable.

// wireMagic marks a wire frame ("DSw1" little-endian).
const wireMagic = uint32('D') | uint32('S')<<8 | uint32('w')<<16 | uint32('1')<<24

// MaxFramePayload bounds a frame's declared payload length. A frame
// claiming more fails closed before any allocation — the cap is what
// keeps a corrupt or hostile length field from becoming an over-read or
// an allocation bomb.
const MaxFramePayload = 1 << 20

// Frame types, the tag of a wire frame.
const (
	FrameRequest  byte = 1
	FrameResponse byte = 2
)

// sealFrame writes the header of the wire frame that occupies all of f —
// frame.HeaderBytes of reserved space first, payload behind it — and
// returns f.
func sealFrame(f []byte, typ byte) []byte {
	return frame.Seal(f, wireMagic, uint32(typ))
}

// AppendFrame appends one framed message to dst and returns the extended
// slice.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	off := len(dst)
	dst = append(append(dst, make([]byte, frame.HeaderBytes)...), payload...)
	sealFrame(dst[off:], typ)
	return dst
}

// ReadFrame reads exactly one frame from r into a fresh buffer. Validation
// failures return a *FrameError; I/O failures (including deadline expiry)
// return the underlying error untouched so the caller can classify them.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var buf []byte
	return ReadFrameInto(r, &buf)
}

// ReadFrameInto is ReadFrame into a caller-owned buffer, reused by the
// next call: the returned payload aliases it and is valid only until then.
func ReadFrameInto(r io.Reader, buf *[]byte) (typ byte, payload []byte, err error) {
	tag, payload, err := frame.Read(r, wireMagic, MaxFramePayload, buf)
	if err != nil {
		return 0, nil, err
	}
	if tag != uint32(FrameRequest) && tag != uint32(FrameResponse) {
		return 0, nil, &FrameError{Reason: fmt.Sprintf("unknown frame type %d", tag)}
	}
	return byte(tag), payload, nil
}

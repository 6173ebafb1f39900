package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"slices"
	"testing"
)

// The two formats that use this package, with the caps they pass.
var (
	segMagic  = binary.LittleEndian.Uint32([]byte("DSg1"))
	wireMagic = binary.LittleEndian.Uint32([]byte("DSw1"))
)

const (
	segMax  = 1<<31 - 1
	wireMax = 1 << 20
)

// build seals payload into a fresh frame.
func build(magic, tag uint32, payload []byte) []byte {
	return Seal(append(make([]byte, HeaderBytes), payload...), magic, tag)
}

// unhex decodes a test constant.
func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// The wire's fixed request and response frames (pinned by transport's
// TestWireFrameBytes) and a segment of three raw locations.
var (
	request  = unhex("44537731010000001e000000476096fb070000000000000001002a00000000000000800000000000000006000000")
	response = unhex("445377310200000021000000e06da9d107000000000000000702010000000500636865636b40420f000000000000000000")
	segment  = build(segMagic, 0, binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, 0x0000_0200_0000_0000), 0x0000_0200_0000_0010), 0x0000_0300_0000_1000))
)

// read is Read over b from a fresh buffer.
func read(b []byte, magic uint32, max int) (uint32, []byte, error) {
	var buf []byte
	return Read(bytes.NewReader(b), magic, max, &buf)
}

// TestDecodeFailsClosed: every way a frame can be cut short or damaged is
// refused by both readers, Decode with an *Error, Read with an *Error or,
// where the stream simply ends, the reader's own error; a frame followed
// by more bytes (the next segment, the next message) still decodes.
func TestDecodeFailsClosed(t *testing.T) {
	flip := func(b []byte, at int) []byte {
		b = slices.Clone(b)
		b[at] ^= 0xff
		return b
	}
	overCap := slices.Clone(response)
	binary.LittleEndian.PutUint32(overCap[8:], wireMax+1)
	for _, tc := range []struct {
		name  string
		b     []byte
		magic uint32
		max   int
		torn  bool // Read sees the stream end, not a bad frame
	}{
		{"empty", nil, wireMagic, wireMax, true},
		{"torn magic", segment[:1], segMagic, segMax, true},
		{"torn header", segment[:HeaderBytes-1], segMagic, segMax, true},
		{"torn payload", segment[:HeaderBytes+3], segMagic, segMax, true},
		{"one byte short", request[:len(request)-1], wireMagic, wireMax, true},
		{"bad checksum", flip(segment, len(segment)-1), segMagic, segMax, false},
		{"bad checksum word", flip(response, 12), wireMagic, wireMax, false},
		{"wrong magic", flip(segment, 0), segMagic, segMax, false},
		{"other format's magic", request, segMagic, segMax, false},
		{"over-cap length", overCap, wireMagic, wireMax, false},
	} {
		var fe *Error
		if _, _, err := Decode(slices.Clip(tc.b), tc.magic, tc.max); !errors.As(err, &fe) {
			t.Errorf("%s: Decode error %v, want an *Error", tc.name, err)
		}
		_, _, err := read(tc.b, tc.magic, tc.max)
		if tc.torn {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s: Read error %v, want the stream's EOF", tc.name, err)
			}
		} else if !errors.As(err, &fe) {
			t.Errorf("%s: Read error %v, want an *Error", tc.name, err)
		}
	}

	blob := slices.Concat(segment, segment[:HeaderBytes+3])
	tag, payload, err := Decode(blob, segMagic, segMax)
	if err != nil || tag != 0 || !bytes.Equal(payload, segment[HeaderBytes:]) {
		t.Fatalf("segment before a torn one: tag %d, payload %x, err %v", tag, payload, err)
	}
	if _, _, err := Decode(blob[len(segment):], segMagic, segMax); err == nil {
		t.Fatal("torn segment after an intact one decoded")
	}
	damaged := slices.Concat(flip(segment, 0), segment)
	if _, _, err := Decode(damaged[len(segment):], segMagic, segMax); err != nil {
		t.Fatalf("segment after a damaged one: %v", err)
	}
}

// FuzzFrameDecode: for arbitrary bytes under either format's magic,
// Decode never panics or reads past len(b) (the copy has no spare capacity,
// so an over-read is an out-of-range slice) and rejects only with an
// *Error; a frame it accepts spans exactly HeaderBytes+len(payload) bytes
// and re-Seals to them; and Read over the same bytes agrees: the same tag,
// the same payload, the same accept or reject. Read allocates the declared
// length before it reads the payload, so the caps here stay at the wire's,
// never the segment's, which only Decode ever sees.
func FuzzFrameDecode(f *testing.F) {
	f.Add(build(wireMagic, 2, nil)) // empty payload
	for _, b := range [][]byte{segment, request, response} {
		f.Add(b)
		f.Add(b[:len(b)-3])
		f.Add(slices.Concat(b[:HeaderBytes-1], b[HeaderBytes:]))
		flipped := slices.Clone(b)
		flipped[len(flipped)-1] ^= 0x5a
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []struct {
			magic uint32
			max   int
		}{{segMagic, wireMax}, {wireMagic, wireMax}, {wireMagic, 8}} {
			b := slices.Clip(slices.Clone(data))
			tag, payload, err := Decode(b, format.magic, format.max)
			rtag, rpayload, rerr := read(data, format.magic, format.max)
			if (err == nil) != (rerr == nil) {
				t.Fatalf("Decode error %v, Read error %v", err, rerr)
			}
			if err != nil {
				var fe *Error
				if !errors.As(err, &fe) {
					t.Fatalf("Decode: untyped error %v", err)
				}
				continue
			}
			n := HeaderBytes + len(payload)
			if len(payload) > format.max || n > len(b) || !bytes.Equal(build(format.magic, tag, payload), b[:n]) {
				t.Fatalf("accepted %d-byte payload (cap %d) of %d bytes does not re-seal to them", len(payload), format.max, len(b))
			}
			if rtag != tag || !bytes.Equal(rpayload, payload) {
				t.Fatalf("Read: tag %d, payload %x; Decode: tag %d, payload %x", rtag, rpayload, tag, payload)
			}
		}
	})
}

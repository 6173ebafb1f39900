package pointerlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
)

// Cold-segment on-disk format. A spill file is a sequence of self-framing
// segments, each:
//
//	offset  size  field
//	0       4     magic ("DSg1")
//	4       4     count    — locations encoded in the payload
//	8       4     payload  — payload length in bytes (multiple of 8)
//	12      4     checksum — FNV-1a over the payload bytes
//	16      n     payload  — log entries, little-endian uint64 each, in
//	                         the in-memory entry encoding (raw location or
//	                         compressed trio; see entry.go), so the read
//	                         path streams straight through decodeEntry.
//
// Segments are append-only and independently decodable: a reader needs no
// index, only the previous segment's end. A torn final segment — the
// process died mid-write — fails its length or checksum test and is
// dropped; every fully written segment before it is still recovered
// (ReadSegments). This is the same crash-safety contract as a
// log-structured file system's tail scan, which is fitting given the
// paper sells the pointer log as "an LSFS in memory" (§4.4).

// segMagic marks a segment header ("DSg1" little-endian).
const segMagic = uint32('D') | uint32('S')<<8 | uint32('g')<<16 | uint32('1')<<24

// segHeaderBytes is the fixed segment header size.
const segHeaderBytes = 16

// errSegTruncated reports a segment cut short by a crash mid-append; the
// reader treats it as end-of-log.
var errSegTruncated = errors.New("pointerlog: truncated cold segment")

// errSegCorrupt reports a segment whose framing or checksum is wrong.
var errSegCorrupt = errors.New("pointerlog: corrupt cold segment")

// fnv1a is the payload checksum (FNV-1a 32-bit).
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// encodeSegment packs locs (raw pointer locations) into a framed segment.
// The locations are sorted and greedily folded through the entry
// compression — up to three locations sharing all but their low byte per
// 8-byte entry — so spatially local location sets shrink up to 3x on
// disk, exactly as they do in the in-memory log. Returns the framed bytes
// and the number of entries in the payload.
func encodeSegment(locs []uint64) ([]byte, int) {
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	entries := make([]uint64, 0, len(locs))
	for _, loc := range locs {
		if n := len(entries); n > 0 && isCompressed(entries[n-1]) {
			if ne, ok := tryCompressAdd(entries[n-1], loc); ok {
				entries[n-1] = ne
				continue
			}
		}
		// Start a new entry. A compressed singleton keeps the option of
		// folding the next location in; a location whose low byte is zero
		// cannot take later companions (LSB 0 marks an empty slot), so it
		// is stored raw.
		if loc&0xff != 0 {
			entries = append(entries, compressOne(loc))
		} else {
			entries = append(entries, loc)
		}
	}

	payload := make([]byte, len(entries)*8)
	for i, e := range entries {
		binary.LittleEndian.PutUint64(payload[i*8:], e)
	}
	buf := make([]byte, segHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], segMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(locs)))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:], fnv1a(payload))
	copy(buf[segHeaderBytes:], payload)
	return buf, len(entries)
}

// decodeSegmentHeader validates the 16-byte header in b and returns the
// declared location count and payload length.
func decodeSegmentHeader(b []byte) (count, payloadLen int, err error) {
	if len(b) < segHeaderBytes {
		return 0, 0, errSegTruncated
	}
	if binary.LittleEndian.Uint32(b) != segMagic {
		return 0, 0, errSegCorrupt
	}
	count = int(binary.LittleEndian.Uint32(b[4:]))
	payloadLen = int(binary.LittleEndian.Uint32(b[8:]))
	if payloadLen%8 != 0 {
		return 0, 0, errSegCorrupt
	}
	return count, payloadLen, nil
}

// decodeSegment parses one segment at the start of b, appending its
// decoded locations to out. It returns the extended slice and the total
// framed length consumed. A short or checksum-failing segment returns
// errSegTruncated — indistinguishable from a crash mid-append, and
// handled the same way: stop reading.
func decodeSegment(b []byte, out []uint64) ([]uint64, int, error) {
	count, payloadLen, err := decodeSegmentHeader(b)
	if err != nil {
		return out, 0, err
	}
	if len(b) < segHeaderBytes+payloadLen {
		return out, 0, errSegTruncated
	}
	payload := b[segHeaderBytes : segHeaderBytes+payloadLen]
	if fnv1a(payload) != binary.LittleEndian.Uint32(b[12:]) {
		return out, 0, errSegTruncated
	}
	start := len(out)
	for i := 0; i < payloadLen; i += 8 {
		out = decodeEntry(binary.LittleEndian.Uint64(payload[i:]), out)
	}
	if len(out)-start != count {
		return out[:start], 0, errSegCorrupt
	}
	return out, segHeaderBytes + payloadLen, nil
}

// forEachSegmentLocation streams the locations of the framed segment in b
// to fn without materializing them. b must be exactly one validated
// segment's bytes (header + payload), as returned by a coldSeg read.
func forEachSegmentLocation(b []byte, fn func(loc uint64)) error {
	_, payloadLen, err := decodeSegmentHeader(b)
	if err != nil {
		return err
	}
	if len(b) < segHeaderBytes+payloadLen {
		return errSegTruncated
	}
	payload := b[segHeaderBytes : segHeaderBytes+payloadLen]
	if fnv1a(payload) != binary.LittleEndian.Uint32(b[12:]) {
		return errSegTruncated
	}
	var scratch [3]uint64
	for i := 0; i < payloadLen; i += 8 {
		for _, loc := range decodeEntry(binary.LittleEndian.Uint64(payload[i:]), scratch[:0]) {
			fn(loc)
		}
	}
	return nil
}

// ReadSegments recovers every intact segment from a spill file: the
// restart/crash path. It decodes segments front to back and stops at the
// first truncated one (a crash mid-append leaves at most one, at the
// tail). The locations of all intact segments are returned in file order.
// A corrupt segment anywhere but the tail is reported as an error —
// unlike truncation, mid-file corruption means lost coverage a restart
// cannot scope.
func ReadSegments(path string) ([]uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readSegments(b)
}

// readSegments is ReadSegments over a spill file's bytes.
func readSegments(b []byte) ([]uint64, error) {
	var locs []uint64
	off := 0
	for off < len(b) {
		out, n, err := decodeSegment(b[off:], locs)
		if errors.Is(err, errSegTruncated) {
			break
		}
		if err != nil {
			return locs, fmt.Errorf("segment at offset %d: %w", off, err)
		}
		locs = out
		off += n
	}
	return locs, nil
}

package pointerlog

import (
	"encoding/binary"
	"errors"
	"slices"
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
// index, only the segment's offset, which the logger keeps in memory. The
// file is preallocated and written through a shared mapping (coldlog.go),
// so unwritten space reads as a zero magic word. Only the logger that wrote
// a file reads it, at free time: a segment whose bytes are gone or damaged
// — the file truncated under the mapping, a header never written — has no
// magic, or fails its length or checksum test, and is skipped as a counted
// read error (ColdReadErrors), never decoded into locations.

// segMagic marks a segment header ("DSg1" little-endian).
const segMagic = uint32('D') | uint32('S')<<8 | uint32('g')<<16 | uint32('1')<<24

// segHeaderBytes is the fixed segment header size.
const segHeaderBytes = 16

// errSegTruncated reports a segment cut short, its header never written,
// or its checksum wrong.
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

// appendSegment frames locs (raw pointer locations, sorted here in place)
// as one segment appended to dst, which it returns. The sorted locations
// are greedily folded through the entry compression — up to three sharing
// all but their low byte per 8-byte entry — so spatially local location
// sets shrink up to 3x on disk, exactly as they do in the in-memory log.
// Each entry is written once, as soon as nothing more can fold into it, and
// the header goes in last: until then a reader finds zeros or a failing
// checksum there and takes the segment for the end of the log. With
// segHeaderBytes+8*len(locs) bytes of spare capacity in dst nothing is
// allocated — a spill encodes straight into the mapped file.
func appendSegment(dst []byte, locs []uint64) []byte {
	slices.Sort(locs)
	start := len(dst)
	dst = append(dst, make([]byte, segHeaderBytes)...)
	var e uint64 // the entry still open for folding; 0 before the first
	for _, loc := range locs {
		if isCompressed(e) {
			if ne, ok := tryCompressAdd(e, loc); ok {
				e = ne
				continue
			}
		}
		if e != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, e)
		}
		// A compressed singleton keeps the option of folding the next
		// location in; a location whose low byte is zero cannot take later
		// companions (LSB 0 marks an empty slot), so it is stored raw.
		if e = loc; loc&0xff != 0 {
			e = compressOne(loc)
		}
	}
	if e != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, e)
	}
	hdr, payload := dst[start:], dst[start+segHeaderBytes:]
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(locs)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:], fnv1a(payload))
	binary.LittleEndian.PutUint32(hdr[0:], segMagic)
	return dst
}

// segmentPayload validates the segment at the start of b — header, length,
// checksum — and returns its declared location count and its payload. A
// short or checksum-failing segment is errSegTruncated, a wrong magic word
// or payload length errSegCorrupt.
func segmentPayload(b []byte) (count int, payload []byte, err error) {
	if len(b) < segHeaderBytes {
		return 0, nil, errSegTruncated
	}
	switch binary.LittleEndian.Uint32(b) {
	case segMagic:
	case 0:
		// Never written: the preallocated remainder of a spill file, or a
		// segment whose writer died before its header went in.
		return 0, nil, errSegTruncated
	default:
		return 0, nil, errSegCorrupt
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[8:]))
	if payloadLen%8 != 0 {
		return 0, nil, errSegCorrupt
	}
	if len(b) < segHeaderBytes+payloadLen {
		return 0, nil, errSegTruncated
	}
	payload = b[segHeaderBytes : segHeaderBytes+payloadLen]
	if fnv1a(payload) != binary.LittleEndian.Uint32(b[12:]) {
		return 0, nil, errSegTruncated
	}
	return int(binary.LittleEndian.Uint32(b[4:])), payload, nil
}

// forEachSegmentLocation streams the locations of the framed segment at
// the start of b to fn without materializing them.
func forEachSegmentLocation(b []byte, fn func(loc uint64)) error {
	_, payload, err := segmentPayload(b)
	if err != nil {
		return err
	}
	var scratch [3]uint64
	for i := 0; i < len(payload); i += 8 {
		for _, loc := range decodeEntry(binary.LittleEndian.Uint64(payload[i:]), scratch[:0]) {
			fn(loc)
		}
	}
	return nil
}

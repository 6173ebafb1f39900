package pointerlog

import (
	"encoding/binary"
	"math"
	"slices"

	"dangsan/internal/frame"
)

// A cold segment is one frame (internal/frame) with magic "DSg1" and tag 0
// around a payload of log entries: little-endian uint64 each, in the
// in-memory entry encoding (raw location or compressed trio; see entry.go),
// so the read path streams straight through decodeEntry. A spill file holds
// its logger's segments back to back, and only that logger reads them, at
// free time, at offsets it keeps in memory. A segment whose bytes are gone
// or damaged — the file truncated under the mapping, a page unreadable —
// fails the frame's checks and is skipped as a counted read error
// (ColdReadErrors), never decoded into locations.

// segMagic marks a segment ("DSg1" little-endian).
const segMagic = uint32('D') | uint32('S')<<8 | uint32('g')<<16 | uint32('1')<<24

// segMaxPayload caps a segment's declared length, far above any table a
// spill flushes.
const segMaxPayload = math.MaxInt32

// appendSegment frames locs (raw pointer locations, sorted here in place)
// followed by entries (nonzero log entries, already in the entry encoding)
// as one segment appended to dst, which it returns. The sorted locations
// are greedily folded through the entry compression — up to three sharing
// all but their low byte per 8-byte entry — so spatially local location
// sets shrink up to 3x on disk, exactly as they do in the in-memory log;
// the entries are copied as they are. With
// frame.HeaderBytes+8*(len(locs)+len(entries)) bytes of spare capacity in
// dst nothing is allocated — a spill encodes straight into the mapped file.
func appendSegment(dst []byte, locs, entries []uint64) []byte {
	slices.Sort(locs)
	start := len(dst)
	dst = append(dst, make([]byte, frame.HeaderBytes)...)
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
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, e)
	}
	frame.Seal(dst[start:], segMagic, 0)
	return dst
}

// forEachSegmentLocation streams the locations of the segment at the start
// of b to fn without materializing them. A segment that fails its checks
// is a *frame.Error, and fn sees none of its locations.
func forEachSegmentLocation(b []byte, fn func(loc uint64)) error {
	tag, payload, err := frame.Decode(b, segMagic, segMaxPayload)
	if err != nil {
		return err
	}
	if tag != 0 || len(payload)%8 != 0 {
		return &frame.Error{Reason: "not a segment of whole entries"}
	}
	var scratch [3]uint64
	for i := 0; i < len(payload); i += 8 {
		for _, loc := range decodeEntry(binary.LittleEndian.Uint64(payload[i:]), scratch[:0]) {
			fn(loc)
		}
	}
	return nil
}

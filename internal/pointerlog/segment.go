package pointerlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"syscall"
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
// index, only the previous segment's end. The file is preallocated and
// written through a shared mapping (coldlog.go), so the log ends at the
// first zero magic word, not at the end of the file. A torn final segment —
// the process died mid-write — has no magic yet, or fails its length or
// checksum test, and is dropped; every fully written segment before it is
// still recovered (ReadSegments). This is the same crash-safety contract as a
// log-structured file system's tail scan, which is fitting given the
// paper sells the pointer log as "an LSFS in memory" (§4.4).

// segMagic marks a segment header ("DSg1" little-endian).
const segMagic = uint32('D') | uint32('S')<<8 | uint32('g')<<16 | uint32('1')<<24

// segHeaderBytes is the fixed segment header size.
const segHeaderBytes = 16

// errSegTruncated reports a segment cut short by a crash mid-append, or the
// never-written space after the last one; the reader treats it as
// end-of-log.
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
// short or checksum-failing segment is errSegTruncated: indistinguishable
// from a crash mid-append, and handled the same way — stop reading.
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

// decodeSegment parses one segment at the start of b, appending its
// decoded locations to out. It returns the extended slice and the total
// framed length consumed.
func decodeSegment(b []byte, out []uint64) ([]uint64, int, error) {
	count, payload, err := segmentPayload(b)
	if err != nil {
		return out, 0, err
	}
	start := len(out)
	for i := 0; i < len(payload); i += 8 {
		out = decodeEntry(binary.LittleEndian.Uint64(payload[i:]), out)
	}
	if len(out)-start != count {
		return out[:start], 0, errSegCorrupt
	}
	return out, segHeaderBytes + len(payload), nil
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

// ReadSegments recovers every intact segment from a spill file: the
// restart/crash path. It decodes segments front to back and stops at the
// first truncated one (a crash mid-append leaves at most one, at the
// tail). The locations of all intact segments are returned in file order.
// A corrupt segment anywhere but the tail is reported as an error —
// unlike truncation, mid-file corruption means lost coverage a restart
// cannot scope. The file is mapped, not read: recovery touches the pages up
// to the end of the log, not the preallocated remainder.
func ReadSegments(path string) (locs []uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return nil, err
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("map %s: %w", path, err)
	}
	defer syscall.Munmap(b)
	defer endMapFault(debug.SetPanicOnFault(true), &err)
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

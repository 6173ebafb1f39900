package pointerlog

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// fuzzLoc masks an arbitrary 64-bit value into a valid pointer location:
// 8-byte aligned, inside the simulated address range [2^40, 2^48) that the
// entry encoding's invariants rely on (common part nonzero, top two bytes
// zero).
func fuzzLoc(x uint64) uint64 {
	const lo = uint64(1) << 40
	const span = (uint64(1) << 48) - lo
	return (lo + x%span) &^ 7
}

// FuzzEntryRoundtrip checks that compressed-entry packing is lossless for
// arbitrary location triples: every location accepted by tryCompressAdd
// comes back out of decodeEntry exactly once, entryContains agrees with the
// decoded set, and the LSB-0 first-slot rule holds (a location whose low
// byte is zero is only representable in the first slot, because zero marks
// an empty slot elsewhere).
func FuzzEntryRoundtrip(f *testing.F) {
	f.Add(uint64(0), uint64(8), uint64(16))
	f.Add(uint64(0x100), uint64(0x108), uint64(0x1f8)) // shared common part
	f.Add(uint64(0x200), uint64(0x200), uint64(0x200)) // duplicates
	f.Add(uint64(0xf00), uint64(0x1000), uint64(0x10000))
	f.Add(uint64(0xfffffffffff8), uint64(0xfffffffffff0), uint64(0xffffffffff00))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		la, lb, lc := fuzzLoc(a), fuzzLoc(b), fuzzLoc(c)

		e := compressOne(la)
		if !isCompressed(e) {
			t.Fatalf("compressOne(%#x) = %#x not recognized as compressed", la, e)
		}
		want := []uint64{la}
		for _, l := range []uint64{lb, lc} {
			ne, ok := tryCompressAdd(e, l)
			if ok {
				e = ne
				want = append(want, l)
				if l&0xff == 0 {
					t.Fatalf("entry %#x accepted LSB-0 location %#x outside the first slot", ne, l)
				}
				if l>>8 != la>>8 {
					t.Fatalf("entry %#x accepted location %#x with a different common part than %#x", ne, l, la)
				}
			} else if l&0xff != 0 && l>>8 == la>>8 && len(want) < 3 {
				t.Fatalf("entry %#x rejected compatible location %#x with a free slot", e, l)
			}
		}

		got := decodeEntry(e, nil)
		if len(got) != len(want) {
			t.Fatalf("decode %#x: got %d locations %#x, want %d %#x", e, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("decode %#x: slot %d = %#x, want %#x", e, i, got[i], want[i])
			}
			if !entryContains(e, want[i]) {
				t.Fatalf("entry %#x does not contain packed location %#x", e, want[i])
			}
		}

		// entryContains must not report locations that were never packed.
		packed := map[uint64]bool{}
		for _, l := range want {
			packed[l] = true
		}
		for _, probe := range []uint64{la ^ 8, la ^ 0x100, lb ^ 16, lc ^ 0x800} {
			probe = fuzzLoc(probe)
			if !packed[probe] && entryContains(e, probe) {
				t.Fatalf("entry %#x claims to contain %#x, packed only %#x", e, probe, want)
			}
		}

		// Raw entries must roundtrip to themselves and never be mistaken
		// for compressed ones.
		if isCompressed(la) {
			t.Fatalf("raw location %#x classified as compressed", la)
		}
		if raw := decodeEntry(la, nil); len(raw) != 1 || raw[0] != la {
			t.Fatalf("raw entry %#x decodes to %#x", la, raw)
		}
	})
}

// FuzzSegmentDecode covers the on-disk reader the way FuzzFrameRoundtrip
// covers the wire: a spill file is whatever a crash left, so the decoder
// reads bytes it cannot trust. For arbitrary bytes decodeSegment and
// readSegments (ReadSegments less the file read) never panic and never look
// past len(b) (the copy below has no spare capacity, so an over-read is an
// out-of-range slice), and a segment that does decode consumed exactly its
// frame and carries its declared count. The same bytes, read as words and masked into valid locations, must
// survive encodeSegment → decodeSegment as a set, and the encoding with its
// tail torn or a payload byte flipped must read as truncated.
func FuzzSegmentDecode(f *testing.F) {
	intact := appendSegment(nil, []uint64{fuzzLoc(0), fuzzLoc(8), fuzzLoc(16), fuzzLoc(1 << 20)})
	f.Add(intact)
	f.Add(intact[:len(intact)-3]) // torn tail
	badSum := slices.Clone(intact)
	badSum[len(badSum)-1] ^= 0xff
	f.Add(badSum)
	// A preallocated spill file: the log ends at a zero header.
	zeros := make([]byte, 64)
	f.Add(slices.Concat(intact, zeros))
	f.Add(slices.Concat(intact, intact[:len(intact)-3], zeros))

	f.Fuzz(func(t *testing.T, data []byte) {
		b := slices.Clip(slices.Clone(data))
		locs, n, err := decodeSegment(b, nil)
		if err == nil {
			count, payload, _ := segmentPayload(b)
			if n != segHeaderBytes+len(payload) || n > len(b) || len(locs) != count {
				t.Fatalf("decoded %d locations from %d of %d bytes; header declares %d locations, %d payload bytes", len(locs), n, len(b), count, len(payload))
			}
		} else if !errors.Is(err, errSegTruncated) && !errors.Is(err, errSegCorrupt) {
			t.Fatalf("decodeSegment: untyped error %v", err)
		}
		// An error is mid-file corruption; the intact prefix still comes back.
		if all, _ := readSegments(b); err == nil && (len(all) < len(locs) || !slices.Equal(all[:len(locs)], locs)) {
			t.Fatalf("readSegments returned %#x, the first segment holds %#x", all, locs)
		}

		var want []uint64
		for ; len(data) >= 8; data = data[8:] {
			want = append(want, fuzzLoc(binary.LittleEndian.Uint64(data)))
		}
		slices.Sort(want)
		seg := appendSegment(nil, slices.Clone(want))
		got, n, err := decodeSegment(seg, nil)
		slices.Sort(got)
		if err != nil || n != len(seg) || !slices.Equal(got, want) {
			t.Fatalf("round trip of %#x: got %#x, %d of %d bytes, err %v", want, got, n, len(seg), err)
		}
		if _, _, err := decodeSegment(seg[:len(seg)-1], nil); !errors.Is(err, errSegTruncated) {
			t.Fatalf("torn tail: %v, want errSegTruncated", err)
		}
		if len(want) > 0 {
			seg[segHeaderBytes+int(want[0]%uint64(len(seg)-segHeaderBytes))] ^= 0x5a
			if _, _, err := decodeSegment(seg, nil); !errors.Is(err, errSegTruncated) {
				t.Fatalf("flipped payload byte: %v, want errSegTruncated", err)
			}
		}
	})
}

package pointerlog

import (
	"testing"

	"dangsan/internal/frame"
)

// spillSeg is one segment of a spill file: its byte range and locations.
type spillSeg struct {
	off, end int
	locs     []uint64
}

// spillSegs decodes every segment of c at the offsets the logger keeps,
// in the order they were spilled.
func spillSegs(t *testing.T, c *coldLog) []spillSeg {
	t.Helper()
	var segs []spillSeg
	for _, seg := range c.segs {
		off, end := int(seg.off), int(seg.off)+seg.length
		locs, err := decodeSegment(c.data[off:end], nil)
		if err != nil {
			t.Fatalf("fixture segment at %d does not decode: %v", off, err)
		}
		segs = append(segs, spillSeg{off: off, end: end, locs: locs})
	}
	if len(segs) < 2 {
		t.Fatalf("fixture produced %d segments; the test needs intact segments AND a torn one", len(segs))
	}
	return segs
}

// TestTornSegmentSkippedAndCounted: a spill file truncated under a live
// logger mid-segment, or exactly at the checksum boundary (header cut
// where the checksum field begins), fails CLOSED at free time: invalidation
// skips the unreadable segment, increments ColdReadErrors, and never
// invalidates (or fabricates) a location of the torn segment.
func TestTornSegmentSkippedAndCounted(t *testing.T) {
	cuts := []struct {
		name string
		// cut returns the truncation offset for the final segment.
		cut func(s spillSeg) int
	}{
		// Mid-frame: header intact, payload cut in half.
		{"mid-frame", func(s spillSeg) int {
			return s.off + frame.HeaderBytes + (s.end-s.off-frame.HeaderBytes)/2
		}},
		// Checksum boundary: the header is cut exactly where the checksum
		// field starts (offset 12) — magic, tag and payload length parse,
		// the integrity word does not exist.
		{"checksum-boundary", func(s spillSeg) int {
			return s.off + 12
		}},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			const nLocs = 2000
			cfg := tieredConfig(t)
			lg, as, meta, _, locs := fillTiered(t, cfg, nLocs)
			defer lg.Close()
			c := lg.cold
			if lg.ColdLogStats().Segments == 0 {
				t.Fatal("fixture never spilled")
			}
			segs := spillSegs(t, c)
			last := segs[len(segs)-1]
			cut := tc.cut(last)
			torn := make(map[uint64]bool, len(last.locs))
			for _, l := range last.locs {
				torn[l] = true
			}
			// Truncate the live spill file and run free-time invalidation
			// through it.
			before := lg.Stats().Snapshot()
			if before.ColdReadErrors != 0 {
				t.Fatalf("fixture started with ColdReadErrors=%d", before.ColdReadErrors)
			}
			if err := c.f.Truncate(int64(cut)); err != nil {
				t.Fatal(err)
			}
			lg.Invalidate(meta, as)
			snap := lg.Stats().Snapshot()
			if snap.ColdReadErrors == 0 {
				t.Fatal("unreadable segment did not increment ColdReadErrors")
			}
			invalidated, tornInvalidated := 0, 0
			for _, loc := range locs {
				w, _ := as.LoadWord(loc)
				if w&InvalidBit == 0 {
					continue
				}
				invalidated++
				if torn[loc] {
					tornInvalidated++
				}
			}
			if tornInvalidated != 0 {
				t.Fatalf("%d locations of the torn segment surfaced in invalidation", tornInvalidated)
			}
			if invalidated == 0 {
				t.Fatal("invalidation lost the intact tiers along with the torn segment")
			}
			// Fail closed means fail SCOPED: everything outside the torn
			// segment is still invalidated (hot table + intact segments).
			if want := len(locs) - len(last.locs); invalidated != want {
				t.Fatalf("invalidated %d locations, want %d (all but the torn segment)", invalidated, want)
			}
		})
	}
}

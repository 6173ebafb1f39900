package pointerlog

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"dangsan/internal/faultinject"
	"dangsan/internal/vmem"
)

// Property: any set of up to three 8-byte-aligned locations in the same
// 256-byte region with distinct nonzero low bytes (plus at most one
// zero-low-byte location placed first) packs into one entry and decodes to
// exactly the same set.
func TestCompressionRoundTripQuick(t *testing.T) {
	f := func(block uint32, lsbs [3]uint8) bool {
		base := (vmem.HeapBase + uint64(block)<<8) &^ 0xff
		// Force alignment and dedupe.
		var locs []uint64
		seen := map[uint64]bool{}
		for _, l := range lsbs {
			loc := base | uint64(l&0xf8)
			if !seen[loc] {
				seen[loc] = true
				locs = append(locs, loc)
			}
		}
		// Build the entry the way the logger does: first location seeds it,
		// later ones join only if their LSB is nonzero.
		e := compressOne(locs[0])
		accepted := []uint64{locs[0]}
		for _, loc := range locs[1:] {
			if ne, ok := tryCompressAdd(e, loc); ok {
				e = ne
				accepted = append(accepted, loc)
			}
		}
		got := decodeEntry(e, nil)
		if len(got) != len(accepted) {
			return false
		}
		want := map[uint64]bool{}
		for _, l := range accepted {
			want[l] = true
		}
		for _, l := range got {
			if !want[l] {
				return false
			}
		}
		// entryContains agrees with membership for every candidate.
		for _, l := range locs {
			inAccepted := false
			for _, a := range accepted {
				if a == l {
					inAccepted = true
				}
			}
			if entryContains(e, l) != inAccepted {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a location never decodes out of an entry it wasn't put into —
// across random pairs of raw entries and probe locations.
func TestEntryNoFalseContainsQuick(t *testing.T) {
	f := func(a, b uint32) bool {
		locA := (vmem.HeapBase + uint64(a)) &^ 7
		locB := (vmem.GlobalsBase + uint64(b)) &^ 7
		if locA == locB {
			return true
		}
		return !entryContains(locA, locB) && !entryContains(compressOne(locA), locB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the LSB-0 first-slot rule. A location whose low byte is zero
// is indistinguishable from an empty slot anywhere but slot one, so
// tryCompress must (a) never fold it into an existing compressed entry,
// and (b) when merging it with a raw neighbour, emit an entry whose
// first slot holds the zero byte — regardless of registration order.
func TestCompressLSBZeroFirstSlotQuick(t *testing.T) {
	f := func(block uint32, lsb uint8) bool {
		base := (vmem.HeapBase + uint64(block)<<8) &^ 0xff // LSB-0 location
		other := base | uint64(lsb&0xf8)
		if other == base {
			return true
		}
		// (a) tryCompressAdd always rejects an LSB-0 location.
		if _, ok := tryCompressAdd(compressOne(other), base); ok {
			return false
		}
		// (b) Merge order does not matter: both orders must produce one
		// compressed entry with base in the first slot.
		for _, order := range [][2]uint64{{base, other}, {other, base}} {
			lg := NewLogger(DefaultConfig())
			meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
			tl := lg.Register(meta, order[0], 0)
			lg.Register(meta, order[1], 0)
			e := atomic.LoadUint64(tl.newest())
			if !isCompressed(e) || e&0xff != 0 {
				return false
			}
			got := decodeEntry(e, nil)
			if len(got) != 2 || got[0] != base || got[1] != other {
				return false
			}
		}
		// (c) A compressed entry that is already seeded with nonzero LSBs
		// never absorbs the LSB-0 location: it starts a fresh raw entry.
		lg := NewLogger(DefaultConfig())
		meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
		third := base | uint64(lsb&0xf8|8)%0x100
		if third == other || third == base {
			third = base | (uint64(other&0xff)+8)%0x100&^7
		}
		if third == other || third == base {
			return true
		}
		tl := lg.Register(meta, other, 0)
		lg.Register(meta, third, 0)
		lg.Register(meta, base, 0)
		if atomic.LoadUint64(tl.newest()) != base {
			return false
		}
		if got := lg.Stats().Snapshot(); got.Logged != 3 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the three-location capacity boundary. Three distinct
// nonzero-LSB locations in one 256-byte region fill an entry exactly and
// round-trip; a fourth distinct location must be rejected by
// tryCompressAdd without disturbing the stored three.
func TestCompressCapacityBoundaryQuick(t *testing.T) {
	f := func(block uint32, raw [4]uint8) bool {
		base := (vmem.HeapBase + uint64(block)<<8) &^ 0xff
		// Derive four distinct aligned offsets with nonzero low bytes.
		var locs []uint64
		seen := map[uint64]bool{}
		for i := 0; len(locs) < 4; i++ {
			off := uint64(raw[i%4]&0xf8) + uint64(i*8)
			loc := base | off%0x100
			if loc&0xff == 0 || seen[loc] {
				continue
			}
			seen[loc] = true
			locs = append(locs, loc)
		}
		e := compressOne(locs[0])
		for _, loc := range locs[1:3] {
			ne, ok := tryCompressAdd(e, loc)
			if !ok {
				return false // three nonzero-LSB locations must always fit
			}
			e = ne
		}
		got := decodeEntry(e, nil)
		if len(got) != 3 {
			return false
		}
		want := map[uint64]bool{locs[0]: true, locs[1]: true, locs[2]: true}
		for _, l := range got {
			if !want[l] {
				return false
			}
		}
		// Boundary: the fourth location bounces and the entry is unchanged.
		ne, ok := tryCompressAdd(e, locs[3])
		if ok || ne != e {
			return false
		}
		return !entryContains(e, locs[3])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Register/Invalidate honors the contract for arbitrary
// object-and-slot layouts: every still-pointing slot gets the invalid bit,
// every overwritten slot is untouched.
func TestInvalidateContractQuick(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 4)
	f := func(offsets [6]uint16, overwrite [6]bool) bool {
		lg := NewLogger(DefaultConfig())
		meta, _ := lg.MustCreateMeta(vmem.HeapBase, 256)
		type slot struct {
			loc       uint64
			val       uint64
			overwrite bool
		}
		var slots []slot
		seen := map[uint64]bool{}
		for i, off := range offsets {
			loc := vmem.GlobalsBase + uint64(off)&^7
			if seen[loc] {
				continue
			}
			seen[loc] = true
			val := vmem.HeapBase + uint64(off)%256&^7
			s := slot{loc: loc, val: val, overwrite: overwrite[i]}
			as.StoreWord(s.loc, s.val)
			lg.Register(meta, s.loc, 1)
			slots = append(slots, s)
		}
		for _, s := range slots {
			if s.overwrite {
				as.StoreWord(s.loc, 999)
			}
		}
		lg.Invalidate(meta, as)
		for _, s := range slots {
			got, _ := as.LoadWord(s.loc)
			if s.overwrite && got != 999 {
				return false
			}
			if !s.overwrite && got != s.val|InvalidBit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the lookback drops only what the log already holds — every
// registration classified as a duplicate is found by forEachLocation,
// whatever the window, compression and hash threshold, and with a fifth
// of the log-block and hash allocations denied.
func TestDuplicateIsLoggedQuick(t *testing.T) {
	f := func(seed int64, lookback uint8, compress bool, maxLog uint8, ops [200]uint8) bool {
		plane := faultinject.New(seed)
		plane.Enable(faultinject.LogBlockAlloc, 0.2, -1)
		plane.Enable(faultinject.HashGrowAlloc, 0.2, -1)
		cfg := DefaultConfig()
		cfg.Lookback = int(lookback) % (MaxLookback + 1)
		cfg.Compression = compress
		cfg.MaxLogEntries = embedEntries + int(maxLog)%(3*blockEntries)
		lg := NewLogger(cfg)
		lg.InjectFaults(plane)
		meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
		for _, op := range ops {
			// 64 locations in 16 groups of four neighbours: duplicates
			// and compressible runs both recur.
			loc := vmem.GlobalsBase + uint64(op>>2%16)*0x1000 + uint64(op&3)*8
			before := lg.Stats().Snapshot().Duplicates
			lg.Register(meta, loc, 0)
			if lg.Stats().Snapshot().Duplicates == before {
				continue
			}
			found := false
			lg.forEachLocation(meta, func(l uint64) { found = found || l == loc })
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: folding the linear log into a grown table loses no location.
// Whatever the universe, the mix of compressible neighbours and the
// lookback, every registered location is walked at the free — exactly once
// if the log folded — and the freed object's walk equals its charge.
func TestFoldKeepsEveryLocationQuick(t *testing.T) {
	f := func(universe uint8, lookback uint8, compress bool, ops [600]uint16) bool {
		cfg := DefaultConfig()
		cfg.Audit = true
		cfg.Lookback = int(lookback) % (MaxLookback + 1)
		cfg.Compression = compress
		lg := NewLogger(cfg)
		meta, handle := lg.MustCreateMeta(vmem.HeapBase, 64)
		n := uint16(DefaultMaxLogEntries + int(universe))
		registered := map[uint64]bool{}
		var tl *ThreadLog
		for _, op := range ops {
			// Pairs of neighbours 8 B apart, 256 B between pairs.
			i := uint64(op % n)
			loc := vmem.GlobalsBase + i/2<<8 + i%2*8
			registered[loc] = true
			tl = lg.Register(meta, loc, 0)
		}
		visits := map[uint64]int{}
		lg.forEachLocation(meta, func(loc uint64) { visits[loc]++ })
		folded := tl.hash.table.Load() != nil && !linearHeld(tl)
		for loc := range registered {
			if visits[loc] == 0 || folded && visits[loc] != 1 {
				return false
			}
		}
		lg.ReleaseMeta(handle)
		return len(visits) == len(registered) && len(lg.AuditViolations()) == 0 && lg.AuditCheck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

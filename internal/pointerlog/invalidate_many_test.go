package pointerlog

import (
	"testing"

	"dangsan/internal/vmem"
)

// setupMany builds n one-page objects with locsPer disjoint live locations
// each, overwriting every third location so the stale path runs too.
func setupMany(n, locsPer int) (*Logger, *vmem.AddressSpace, []*ObjectMeta, []uint64) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, n)
	lg := NewLogger(DefaultConfig())
	metas := make([]*ObjectMeta, n)
	var locs []uint64
	for i := range metas {
		base := vmem.HeapBase + uint64(i)*vmem.PageSize
		metas[i], _ = lg.MustCreateMeta(base, vmem.PageSize)
		for j := 0; j < locsPer; j++ {
			loc := vmem.GlobalsBase + uint64(i*locsPer+j)*8
			as.StoreWord(loc, base+uint64(j*8)%vmem.PageSize)
			lg.Register(metas[i], loc, int32(j%4))
			locs = append(locs, loc)
		}
	}
	for i := 0; i < len(locs); i += 3 {
		as.StoreWord(locs[i], 7)
	}
	return lg, as, metas, locs
}

// A batched walk over disjoint objects must produce exactly the memory
// effects and counter totals of invalidating each object in turn.
func TestInvalidateManyMatchesSerialLoop(t *testing.T) {
	const n, locsPer = 8, 200
	run := func(batch bool) (Snapshot, []uint64) {
		lg, as, metas, locs := setupMany(n, locsPer)
		if batch {
			lg.InvalidateMany(metas, as)
		} else {
			for _, m := range metas {
				lg.Invalidate(m, as)
			}
		}
		words := make([]uint64, len(locs))
		for i, loc := range locs {
			words[i], _ = as.LoadWord(loc)
		}
		return lg.Stats().Snapshot(), words
	}
	loopSnap, loopWords := run(false)
	batchSnap, batchWords := run(true)
	if loopSnap != batchSnap {
		t.Errorf("counters diverge:\nloop  %+v\nbatch %+v", loopSnap, batchSnap)
	}
	for i := range loopWords {
		if loopWords[i] != batchWords[i] {
			t.Fatalf("memory diverges at loc %d: loop 0x%x batch 0x%x", i, loopWords[i], batchWords[i])
		}
	}
	if batchSnap.Invalidated == 0 || batchSnap.Stale == 0 {
		t.Fatalf("fixture did not exercise both paths: %+v", batchSnap)
	}
}

// One location registered against two batch members (the value moved from
// object A to object B before either died) is visited once thanks to the
// batch's dedup, and counts exactly one invalidation — the value lies in
// the merged dead range either way.
func TestInvalidateManySharedLocation(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 2)
	lg := NewLogger(DefaultConfig())
	a, _ := lg.MustCreateMeta(vmem.HeapBase, vmem.PageSize)
	b, _ := lg.MustCreateMeta(vmem.HeapBase+vmem.PageSize, vmem.PageSize)
	loc := uint64(vmem.GlobalsBase + 8)
	as.StoreWord(loc, a.Base()+16)
	lg.Register(a, loc, 0)
	as.StoreWord(loc, b.Base()+16)
	lg.Register(b, loc, 0)

	lg.InvalidateMany([]*ObjectMeta{a, b}, as)
	if v, _ := as.LoadWord(loc); v != (b.Base()+16)|InvalidBit {
		t.Fatalf("loc = 0x%x", v)
	}
	if s := lg.Stats().Snapshot(); s.Invalidated != 1 || s.Stale != 0 {
		t.Fatalf("stats: %+v (want one invalidation, no stale visit)", s)
	}
}

// Degenerate batches: empty is a no-op (not even a generation bump), a
// single meta behaves exactly like Invalidate.
func TestInvalidateManyDegenerate(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 1)
	lg := NewLogger(DefaultConfig())
	g0 := lg.Gen()
	lg.InvalidateMany(nil, as)
	if lg.Gen() != g0 {
		t.Fatal("empty batch bumped the generation")
	}

	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	loc := uint64(vmem.GlobalsBase + 8)
	as.StoreWord(loc, vmem.HeapBase+8)
	lg.Register(meta, loc, 0)
	lg.InvalidateMany([]*ObjectMeta{meta}, as)
	if v, _ := as.LoadWord(loc); v != (vmem.HeapBase+8)|InvalidBit {
		t.Fatalf("loc = 0x%x", v)
	}
	if lg.Gen() == g0 {
		t.Fatal("single-meta batch did not bump the generation")
	}
}

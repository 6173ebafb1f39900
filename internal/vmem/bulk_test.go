package vmem

import (
	"math/rand"
	"slices"
	"testing"
)

// Byte-at-a-time loops. loadBytes and storeBytes move test data in and out
// of a space; refMemmove and refMemset are the reference for Memmove's and
// Memset's word paths, which must return the same fault after moving the
// same bytes.

func loadBytes(as *AddressSpace, addr uint64, dst []byte) *Fault {
	for i := range dst {
		b, f := as.LoadByte(addr + uint64(i))
		if f != nil {
			return f
		}
		dst[i] = b
	}
	return nil
}

func storeBytes(as *AddressSpace, addr uint64, src []byte) *Fault {
	for i, b := range src {
		if f := as.StoreByte(addr+uint64(i), b); f != nil {
			return f
		}
	}
	return nil
}

func refMemmove(as *AddressSpace, dst, src, n uint64) *Fault {
	if n == 0 || dst == src {
		return nil
	}
	if dst < src {
		for i := uint64(0); i < n; i++ {
			b, f := as.LoadByte(src + i)
			if f != nil {
				return f
			}
			if f := as.StoreByte(dst+i, b); f != nil {
				return f
			}
		}
		return nil
	}
	for i := n; i > 0; i-- {
		b, f := as.LoadByte(src + i - 1)
		if f != nil {
			return f
		}
		if f := as.StoreByte(dst+i-1, b); f != nil {
			return f
		}
	}
	return nil
}

func refMemset(as *AddressSpace, addr uint64, val byte, n uint64) *Fault {
	for i := uint64(0); i < n; i++ {
		if f := as.StoreByte(addr+i, val); f != nil {
			return f
		}
	}
	return nil
}

// bulkPages is the heap of the spaces the property test runs on: five pages,
// the middle one unmapped, so ranges straddle an unmapped page from either
// side and run off the end of the segment.
const bulkPages = 5

func newBulkSpace(t *testing.T, fill []byte) *AddressSpace {
	as := NewSized(bulkPages * PageSize)
	as.Heap().MapPages(HeapBase, bulkPages)
	if f := storeBytes(as, HeapBase, fill); f != nil {
		t.Fatal(f)
	}
	as.Heap().UnmapPages(HeapBase+2*PageSize, 1)
	return as
}

// snapshot reads every mapped word of a bulk space.
func snapshot(t *testing.T, as *AddressSpace) []uint64 {
	var out []uint64
	for _, pg := range []uint64{0, 1, 3, 4} {
		for off := uint64(0); off < PageSize; off += WordSize {
			w, f := as.LoadWord(HeapBase + pg*PageSize + off)
			if f != nil {
				t.Fatal(f)
			}
			out = append(out, w)
		}
	}
	return out
}

func sameFault(a, b *Fault) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func TestBulkOpsMatchByteLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := make([]byte, bulkPages*PageSize)
	rng.Read(fill)
	got, want := newBulkSpace(t, fill), newBulkSpace(t, fill)

	// Offsets cluster around the page boundaries, where the faults are, and
	// half the time source and destination agree modulo 8, which is what
	// lets a copy use words at all.
	offset := func() uint64 {
		off := rng.Intn(bulkPages+1)*PageSize + rng.Intn(400) - 200
		if off < 0 {
			off = -off
		}
		return uint64(off)
	}
	iters := 3000
	if testing.Short() {
		iters = 300
	}
	for iter := 0; iter < iters; iter++ {
		a, b := HeapBase+offset(), HeapBase+offset()
		if rng.Intn(2) == 0 {
			b = b&^7 | a&7
		}
		n := uint64(rng.Intn(300))
		if rng.Intn(8) == 0 {
			n &^= 7
		}
		var gf, wf *Fault
		var op string
		if rng.Intn(4) == 0 {
			op = "Memset"
			v := byte(rng.Intn(256))
			gf, wf = got.Memset(a, v, n), refMemset(want, a, v, n)
		} else {
			op = "Memmove"
			gf, wf = got.Memmove(a, b, n), refMemmove(want, a, b, n)
		}
		if !sameFault(gf, wf) {
			t.Fatalf("iter %d: %s(%#x, %#x, %d) fault = %v, byte loop's = %v", iter, op, a, b, n, gf, wf)
		}
		if !slices.Equal(snapshot(t, got), snapshot(t, want)) {
			t.Fatalf("iter %d: %s(%#x, %#x, %d) left different memory than the byte loop (fault %v)", iter, op, a, b, n, gf)
		}
	}
}

// The directions and overlaps by hand, each against the byte loop: forward
// and backward, overlapping by less and by more than a word, aligned and
// not, and into, out of and across the unmapped page.
func TestMemmoveCases(t *testing.T) {
	fill := make([]byte, bulkPages*PageSize)
	rand.New(rand.NewSource(2)).Read(fill)
	const hole = HeapBase + 2*PageSize
	cases := []struct {
		name        string
		dst, src, n uint64
	}{
		{"forward aligned", HeapBase, HeapBase + 512, 256},
		{"backward aligned", HeapBase + 512, HeapBase, 256},
		{"forward overlapping aligned", HeapBase, HeapBase + 8, 256},
		{"backward overlapping aligned", HeapBase + 8, HeapBase, 256},
		{"forward overlapping by 3", HeapBase + 5, HeapBase + 8, 100},
		{"backward overlapping by 3", HeapBase + 8, HeapBase + 5, 100},
		{"ragged ends, same residue", HeapBase + 3, HeapBase + 1027, 250},
		{"ragged ends, backward", HeapBase + 1027, HeapBase + 3, 250},
		{"forward into the hole", hole - 64, hole + PageSize + 512, 128},
		{"forward out of the hole", HeapBase, hole - 64, 128},
		{"backward into the hole", hole + PageSize - 64, HeapBase + PageSize, 128},
		{"backward out of the hole", hole + PageSize + 512, hole + PageSize - 64, 128},
		{"backward, unaligned, out of the hole", hole + PageSize + 515, hole + PageSize - 61, 128},
		{"off the end of the heap", HeapBase, HeapBase + bulkPages*PageSize - 64, 128},
	}
	for _, c := range cases {
		got, want := newBulkSpace(t, fill), newBulkSpace(t, fill)
		gf, wf := got.Memmove(c.dst, c.src, c.n), refMemmove(want, c.dst, c.src, c.n)
		if !sameFault(gf, wf) {
			t.Errorf("%s: fault = %v, byte loop's = %v", c.name, gf, wf)
		}
		if !slices.Equal(snapshot(t, got), snapshot(t, want)) {
			t.Errorf("%s: memory differs from the byte loop's", c.name)
		}
	}
}

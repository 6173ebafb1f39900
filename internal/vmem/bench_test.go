package vmem

import "testing"

// sink keeps the compiler from discarding a benchmarked call's result.
var sink uint64

// benchSpace returns an address space with 64 heap pages mapped and written.
func benchSpace(b *testing.B) *AddressSpace {
	as := New()
	as.Heap().MapPages(HeapBase, 64)
	for a := uint64(HeapBase); a < HeapBase+64*PageSize; a += WordSize {
		if f := as.StoreWord(a, a); f != nil {
			b.Fatal(f)
		}
	}
	return as
}

// benchAddr walks the 64 mapped pages a cache line at a time.
func benchAddr(base uint64, i int) uint64 {
	return base + uint64(i)*64%(64*PageSize)
}

func BenchmarkLoadWord(b *testing.B) {
	as := benchSpace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := as.LoadWord(benchAddr(HeapBase, i))
		sink += v
	}
}

func BenchmarkStoreWord(b *testing.B) {
	as := benchSpace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := as.StoreWord(benchAddr(HeapBase, i), uint64(i)); f != nil {
			b.Fatal(f)
		}
	}
}

func BenchmarkCASWord(b *testing.B) {
	as := benchSpace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := benchAddr(HeapBase, i)
		if _, f := as.CASWord(a, a, a); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkStoreWordStack is StoreWord past the heap-first segment test.
func BenchmarkStoreWordStack(b *testing.B) {
	as := New()
	base, _ := as.StackRange(1)
	as.Stacks().MapPages(base, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := as.StoreWord(benchAddr(base, i), uint64(i)); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkNewMapTouch is what a fresh proc.Process pays before its program
// runs: a new address space, some heap mapped, one store in each segment.
func BenchmarkNewMapTouch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		as := New()
		as.Heap().MapPages(HeapBase, 64)
		base, _ := as.StackRange(0)
		as.Stacks().MapPages(base, 1)
		for _, a := range []uint64{HeapBase, base, GlobalsBase} {
			if f := as.StoreWord(a, 1); f != nil {
				b.Fatal(f)
			}
		}
	}
}

func BenchmarkMemmove1K(b *testing.B) {
	as := benchSpace(b)
	b.ReportAllocs()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := as.Memmove(HeapBase+8*PageSize, HeapBase, 1024); f != nil {
			b.Fatal(f)
		}
	}
}

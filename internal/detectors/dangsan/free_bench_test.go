package dangsan

import (
	"testing"

	"dangsan/internal/vmem"
)

// BenchmarkFreeSerial times the malloc → register×8 → free cycle, whose
// free is one inline invalidation walk over the object's eight locations.
func BenchmarkFreeSerial(b *testing.B) {
	d := New()
	as := vmem.New()
	d.Bind(as)
	as.Heap().MapPages(vmem.HeapBase, 512)
	const nLocs = 8
	const ring = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := vmem.HeapBase + uint64(i%ring)*vmem.PageSize
		d.OnAlloc(base, 64, 8)
		for j := 0; j < nLocs; j++ {
			loc := vmem.GlobalsBase + uint64(j)*8
			as.StoreWord(loc, base+8)
			d.OnPtrStore(loc, base+8, 0)
		}
		d.OnFree(base, 64, 8)
	}
}

package vmem

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMain fails the package when any test managed to write through the
// shared zero page: every mapped, never-written page of every address space
// in the process reads through it.
func TestMain(m *testing.M) {
	code := m.Run()
	for i := range zeroPage {
		if w := atomic.LoadUint64(&zeroPage[i]); w != 0 {
			fmt.Fprintf(os.Stderr, "vmem: zeroPage[%d] = %#x after the tests, want 0\n", i, w)
			code = 1
		}
	}
	os.Exit(code)
}

func TestNewSizedClamps(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, PageSize},
		{1, PageSize},
		{PageSize + 1, 2 * PageSize},
		{HeapMax, HeapMax},
		{HeapMax + 1, HeapMax},
		{math.MaxUint64, HeapMax},
	}
	for _, c := range cases {
		if got := NewSized(c.in).Heap().Size(); got != c.want {
			t.Errorf("NewSized(%#x) heap size = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestUntouchedPageReadsZeroWithoutBacking(t *testing.T) {
	as := New()
	as.Heap().MapPages(HeapBase, 2)
	addr := uint64(HeapBase + 64)
	if allocs := testing.AllocsPerRun(100, func() {
		if v, f := as.LoadWord(addr); f != nil || v != 0 {
			t.Fatalf("LoadWord = %d, %v; want 0, nil", v, f)
		}
	}); allocs != 0 {
		t.Errorf("LoadWord of an untouched page: %v allocs, want 0", allocs)
	}
	if b, f := as.LoadByte(addr + 3); f != nil || b != 0 {
		t.Fatalf("LoadByte = %d, %v; want 0, nil", b, f)
	}
	if as.Heap().pageOf(addr) != &zeroPage {
		t.Error("loads gave the page backing of its own")
	}

	// A CAS that cannot succeed reports a plain failure, not a fault.
	if ok, f := as.CASWord(addr, 5, 6); ok || f != nil {
		t.Fatalf("CASWord(old != current) on an untouched page = %v, %v; want false, nil", ok, f)
	}
	if v, _ := as.LoadWord(addr); v != 0 {
		t.Fatalf("failed CAS changed the word to %d", v)
	}
	// One that can is the page's first write.
	other := addr + PageSize
	if ok, f := as.CASWord(other, 0, 9); !ok || f != nil {
		t.Fatalf("CASWord(0 -> 9) on an untouched page = %v, %v; want true, nil", ok, f)
	}
	if v, _ := as.LoadWord(other); v != 9 {
		t.Fatalf("word after first-write CAS = %d, want 9", v)
	}

	// Once written, the healthy paths allocate nothing.
	if f := as.StoreWord(addr, 1); f != nil {
		t.Fatal(f)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if f := as.StoreWord(addr, 2); f != nil {
			t.Fatal(f)
		}
		if _, f := as.CASWord(addr, 2, 3); f != nil {
			t.Fatal(f)
		}
		if _, f := as.LoadWord(addr); f != nil {
			t.Fatal(f)
		}
	}); allocs != 0 {
		t.Errorf("word ops on a written page: %v allocs, want 0", allocs)
	}
	if got := as.Heap().MappedBytes(); got != 2*PageSize {
		t.Errorf("MappedBytes = %d, want %d: it counts mapped pages, not backed ones", got, 2*PageSize)
	}
}

func TestRemapReadsZero(t *testing.T) {
	as := New()
	heap := as.Heap()
	heap.MapPages(HeapBase, 1)
	for _, off := range []uint64{0, 8, PageSize - 8} {
		if f := as.StoreWord(HeapBase+off, ^uint64(0)); f != nil {
			t.Fatal(f)
		}
	}
	heap.UnmapPages(HeapBase, 1)
	if f := as.StoreWord(HeapBase, 1); f == nil || f.Kind != FaultUnmapped || f.Addr != HeapBase {
		t.Fatalf("store after unmap: %v, want unmapped fault at heap base", f)
	}
	heap.MapPages(HeapBase, 1)
	for off := uint64(0); off < PageSize; off += WordSize {
		if v, f := as.LoadWord(HeapBase + off); f != nil || v != 0 {
			t.Fatalf("remapped page at +%d = %d, %v; want 0, nil", off, v, f)
		}
	}
	if heap.pageOf(HeapBase) != &zeroPage {
		t.Error("remapped page kept backing")
	}
}

// Two threads' first stores to one untouched page race to give it backing;
// whichever page wins must hold both stores.
func TestFirstStoresToOnePageBothSurvive(t *testing.T) {
	as := New()
	const rounds = 200
	as.Heap().MapPages(HeapBase, rounds)
	for r := uint64(0); r < rounds; r++ {
		pa := HeapBase + r*PageSize
		var start, done sync.WaitGroup
		start.Add(1)
		for g := uint64(0); g < 2; g++ {
			done.Add(1)
			go func(g uint64) {
				defer done.Done()
				addr, val := pa+g*64, 2*r+g+2
				start.Wait()
				if g == 0 {
					if f := as.StoreWord(addr, val); f != nil {
						t.Error(f)
					}
				} else if ok, f := as.CASWord(addr, 0, val); !ok || f != nil {
					t.Errorf("CASWord(0 -> %d) = %v, %v", val, ok, f)
				}
			}(g)
		}
		start.Done()
		done.Wait()
		for g := uint64(0); g < 2; g++ {
			if v, f := as.LoadWord(pa + g*64); f != nil || v != 2*r+g+2 {
				t.Fatalf("round %d: word %d = %d, %v; want %d", r, g, v, f, 2*r+g+2)
			}
		}
	}
}

// A store racing UnmapPages either faults or lands in a page that is then
// gone. It must never land in zeroPage (TestMain checks that) and never
// survive into the page's next mapping.
func TestStoreRacingUnmap(t *testing.T) {
	as := New()
	heap := as.Heap()
	const rounds = 300
	for r := 0; r < rounds; r++ {
		heap.MapPages(HeapBase, 1)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(2)
		go func() {
			defer done.Done()
			start.Wait()
			for off := uint64(0); off < PageSize; off += WordSize {
				if f := as.StoreWord(HeapBase+off, 7); f != nil {
					if f.Kind != FaultUnmapped || f.Addr != HeapBase+off {
						t.Errorf("racing store: %v", f)
					}
					return
				}
			}
		}()
		go func() {
			defer done.Done()
			start.Wait()
			heap.UnmapPages(HeapBase, 1)
		}()
		start.Done()
		done.Wait()
		if _, f := as.LoadWord(HeapBase); f == nil || f.Kind != FaultUnmapped {
			t.Fatalf("round %d: load after unmap: %v, want unmapped", r, f)
		}
		heap.MapPages(HeapBase, 1)
		for off := uint64(0); off < PageSize; off += WordSize {
			if v, _ := as.LoadWord(HeapBase + off); v != 0 {
				t.Fatalf("round %d: remapped page has %d at +%d", r, v, off)
			}
		}
		heap.UnmapPages(HeapBase, 1)
	}
	if got := heap.MappedBytes(); got != 0 {
		t.Fatalf("MappedBytes = %d, want 0", got)
	}
}

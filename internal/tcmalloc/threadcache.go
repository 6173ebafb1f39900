package tcmalloc

import (
	"dangsan/internal/faultinject"
	"dangsan/internal/sizeclass"
)

// ThreadCache serves small allocations for one thread without any locking.
// Each size class has a stack of free object addresses; refills and
// overflows move whole batches to the central list. A ThreadCache must only
// be used from the goroutine modelling its thread.
type ThreadCache struct {
	alloc *Allocator
	lists [][]uint64 // per-class free stacks
	// maxLen caps each list; exceeded lists release a batch back.
	maxLen []int
	// cachedBytes tracks bytes parked in this cache (for stats).
	cachedBytes uint64
}

func newThreadCache(a *Allocator) *ThreadCache {
	n := sizeclass.NumClasses()
	tc := &ThreadCache{
		alloc:  a,
		lists:  make([][]uint64, n),
		maxLen: make([]int, n),
	}
	for c := 0; c < n; c++ {
		tc.maxLen[c] = 2 * batchSize(c)
	}
	return tc
}

// pop takes one object of the given class, refilling from the central list
// when empty. Returns 0 when the heap is exhausted.
func (tc *ThreadCache) pop(class int) uint64 {
	list := tc.lists[class]
	if len(list) == 0 {
		if tc.alloc.heap.faults.Load().Fail(faultinject.ThreadCacheRefill) {
			return 0
		}
		batch := batchSize(class)
		buf := make([]uint64, batch)
		got := tc.alloc.central[class].fetch(buf, batch)
		if got == 0 {
			return 0
		}
		list = append(list, buf[:got]...)
		tc.cachedBytes += uint64(got) * sizeclass.ForClass(class).Size
	}
	addr := list[len(list)-1]
	tc.lists[class] = list[:len(list)-1]
	tc.cachedBytes -= sizeclass.ForClass(class).Size
	return addr
}

// push returns one object of the given class, spilling a batch to the
// central list when the cache is over capacity.
func (tc *ThreadCache) push(class int, addr uint64) {
	tc.lists[class] = append(tc.lists[class], addr)
	tc.cachedBytes += sizeclass.ForClass(class).Size
	if len(tc.lists[class]) > tc.maxLen[class] {
		spill := batchSize(class)
		list := tc.lists[class]
		tc.alloc.central[class].release(list[len(list)-spill:])
		tc.lists[class] = list[:len(list)-spill]
		tc.cachedBytes -= uint64(spill) * sizeclass.ForClass(class).Size
	}
}

// Flush returns every cached object to the central lists. Call when the
// owning thread exits, or before measuring external fragmentation.
func (tc *ThreadCache) Flush() {
	for c, list := range tc.lists {
		if len(list) > 0 {
			tc.alloc.central[c].release(list)
			tc.lists[c] = tc.lists[c][:0]
		}
	}
	tc.cachedBytes = 0
}

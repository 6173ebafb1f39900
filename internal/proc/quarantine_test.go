package proc_test

import (
	"errors"
	"sync"
	"testing"

	"dangsan/internal/detectors"
	"dangsan/internal/proc"
	"dangsan/internal/tcmalloc"
)

// secureProc builds a process under the §9 secure allocator, the one
// detector that defers frees.
func secureProc(limit uint64) (*proc.Process, *detectors.SecureAllocator, *proc.Thread) {
	sa := detectors.NewSecureAllocator(limit)
	p := proc.New(sa)
	return p, sa, p.NewThread()
}

// A deferred free returns at once, but the memory reaches the allocator
// only when the object is released — Quiesce forces that.
func TestDeferredFreeQuiesce(t *testing.T) {
	p, sa, th := secureProc(1 << 20)
	obj, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	live0 := p.Allocator().Stats().LiveObjects
	if err := th.Free(obj); err != nil {
		t.Fatal(err)
	}
	// Withheld: allocator accounting unchanged.
	if live := p.Allocator().Stats().LiveObjects; live != live0 {
		t.Fatalf("live objects %d, want %d while withheld", live, live0)
	}
	if !sa.Quarantined(obj) {
		t.Fatal("freed object not withheld")
	}
	p.Quiesce()
	if live := p.Allocator().Stats().LiveObjects; live != live0-1 {
		t.Fatalf("live objects %d after Quiesce, want %d", live, live0-1)
	}
	if sa.Quarantined(obj) {
		t.Fatal("object still withheld after Quiesce")
	}
}

// A double free of a withheld object surfaces DoubleFreeError to the
// program instead of reaching the allocator while it still considers the
// span live.
func TestDeferredDoubleFree(t *testing.T) {
	p, _, th := secureProc(1 << 20)
	obj, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(obj); err != nil {
		t.Fatal(err)
	}
	var dfe *tcmalloc.DoubleFreeError
	if err := th.Free(obj); !errors.As(err, &dfe) {
		t.Fatalf("second free: %v, want DoubleFreeError", err)
	}
	p.Quiesce()
}

// Realloc of a withheld pointer must fail rather than resize dead memory
// (the allocator still reports the span usable).
func TestReallocQuarantinedFails(t *testing.T) {
	p, _, th := secureProc(1 << 20)
	obj, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(obj); err != nil {
		t.Fatal(err)
	}
	var dfe *tcmalloc.DoubleFreeError
	if _, err := th.Realloc(obj, 128); !errors.As(err, &dfe) {
		t.Fatalf("realloc of withheld ptr: %v, want DoubleFreeError", err)
	}
	p.Quiesce()
}

// A realloc that would move a withheld object is refused before it
// allocates: no fresh object is left behind that nothing can free.
func TestReallocWithheldDoesNotLeak(t *testing.T) {
	p, _, th := secureProc(1 << 20)
	obj, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Realloc(obj, 4096); err == nil {
		t.Fatal("realloc of a withheld object succeeded")
	}
	if live := p.Allocator().Stats().LiveObjects; live != 1 {
		t.Fatalf("live objects %d after the refused realloc, want 1 (the withheld object)", live)
	}
	p.Quiesce()
	if live := p.Allocator().Stats().LiveObjects; live != 0 {
		t.Fatalf("live objects %d after Quiesce, want 0", live)
	}
}

// Overflowing the byte limit releases the oldest objects on the freeing
// thread, without any Quiesce.
func TestQuarantineOverflowReleasesEagerly(t *testing.T) {
	p, _, th := secureProc(256)
	live0 := p.Allocator().Stats().LiveObjects
	for i := 0; i < 20; i++ {
		obj, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.Free(obj); err != nil {
			t.Fatal(err)
		}
	}
	// At most limit/64 objects may still be withheld; everything else
	// must already be back with the allocator.
	if live := p.Allocator().Stats().LiveObjects; live > live0+4 {
		t.Fatalf("live objects %d, want <= %d without Quiesce", live, live0+4)
	}
	p.Quiesce()
	if live := p.Allocator().Stats().LiveObjects; live != live0 {
		t.Fatalf("live objects %d after Quiesce, want %d", live, live0)
	}
}

// Frees from many threads evict and release concurrently: after Quiesce
// every freed span is back with the allocator. Run with -race.
func TestDeferredFreeConcurrent(t *testing.T) {
	p := proc.New(detectors.NewSecureAllocator(4 << 10))
	const goroutines, each = 8, 50
	live0 := p.Allocator().Stats().LiveObjects
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := p.NewThread()
			for i := 0; i < each; i++ {
				obj, err := th.Malloc(64)
				if err != nil {
					t.Errorf("malloc: %v", err)
					return
				}
				if err := th.Free(obj); err != nil {
					t.Errorf("free: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	p.Quiesce()
	if live := p.Allocator().Stats().LiveObjects; live != live0 {
		t.Fatalf("live objects %d after Quiesce, want %d", live, live0)
	}
}

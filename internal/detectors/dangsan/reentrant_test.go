package dangsan

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dangsan/internal/faultinject"
	"dangsan/internal/pointerlog"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
)

// within fails the test if fn does not return in d — a hung drain is a
// deadlock regression, and the default 10-minute test timeout is a terrible
// way to learn about one.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("deadlock: operation did not finish")
	}
}

// Regression for the quarantine self-deadlock: on the synchronous and
// overflow drain paths the freeing thread IS the retiring thread, so a
// release callback that re-enters free (legal under the BindRelease
// contract — the allocator may coalesce and trim) used to wait on its own
// batch forever. Enqueue must never block.
func TestReentrantFreeFromReleaseCallback(t *testing.T) {
	d := NewWithConfig(quarCfg(1<<20, 1, true))
	as := vmem.New()
	d.Bind(as)
	as.Heap().MapPages(vmem.HeapBase, 512)

	b0, b1 := uint64(vmem.HeapBase), uint64(vmem.HeapBase+vmem.PageSize)
	s0, s1 := uint64(vmem.GlobalsBase), uint64(vmem.GlobalsBase+8)

	rl := &releaseLog{}
	var reentered bool
	release := func(bases []uint64) (int, error) {
		n, err := rl.release(bases)
		if !reentered {
			// Depth 1, mid-retirement of b0's batch, same goroutine: this
			// nested free must drain inline (epoch 1) and come back.
			reentered = true
			if _, ferr := d.OnFreeDeferred(b1, 64, 8); ferr != nil {
				t.Errorf("re-entrant free: %v", ferr)
			}
		}
		return n, err
	}
	if !d.BindRelease(release) {
		t.Fatal("quarantine not armed")
	}
	quarObj(d, as, b0, s0)
	quarObj(d, as, b1, s1)

	within(t, 10*time.Second, func() {
		if _, err := d.OnFreeDeferred(b0, 64, 8); err != nil {
			t.Errorf("outer free: %v", err)
		}
	})
	if got := rl.flat(); len(got) != 2 || got[0] != b0 || got[1] != b1 {
		t.Fatalf("released %v, want [%#x %#x]", got, b0, b1)
	}
	for _, s := range []uint64{s0, s1} {
		if v, _ := as.LoadWord(s); v&pointerlog.InvalidBit == 0 {
			t.Fatalf("slot %#x survived the nested drains: 0x%x", s, v)
		}
	}
	if d.Quarantined(b0) || d.Quarantined(b1) {
		t.Fatal("custody not empty after nested drains")
	}
}

// A base handed back through the release callback may be re-issued by the
// allocator and freed again before the batch's custody entries are deleted.
// That reincarnation must steal custody from the dying batch — not report a
// double free, not deadlock, not leave a stranded custody entry.
func TestReincarnationStealsCustody(t *testing.T) {
	d := NewWithConfig(quarCfg(1<<20, 1, true))
	as := vmem.New()
	d.Bind(as)
	as.Heap().MapPages(vmem.HeapBase, 512)

	base := uint64(vmem.HeapBase)
	slot := uint64(vmem.GlobalsBase)

	rl := &releaseLog{}
	var cycled bool
	release := func(bases []uint64) (int, error) {
		n, err := rl.release(bases)
		if !cycled {
			cycled = true
			// The allocator re-issues the span it just got back; the program
			// uses it and frees it — all before our batch finishes retiring.
			quarObj(d, as, base, slot+8)
			if _, ferr := d.OnFreeDeferred(base, 64, 8); ferr != nil {
				t.Errorf("reincarnated free reported: %v", ferr)
			}
		}
		return n, err
	}
	if !d.BindRelease(release) {
		t.Fatal("quarantine not armed")
	}
	quarObj(d, as, base, slot)

	within(t, 10*time.Second, func() {
		if _, err := d.OnFreeDeferred(base, 64, 8); err != nil {
			t.Errorf("outer free: %v", err)
		}
	})
	if got := rl.flat(); len(got) != 2 || got[0] != base || got[1] != base {
		t.Fatalf("released %v, want the base twice", got)
	}
	if d.Quarantined(base) {
		t.Fatal("stranded custody entry after reincarnation")
	}
	// Both incarnations' pointers were invalidated by their own drains.
	for _, s := range []uint64{slot, slot + 8} {
		if v, _ := as.LoadWord(s); v&pointerlog.InvalidBit == 0 {
			t.Fatalf("slot %#x not invalidated: 0x%x", s, v)
		}
	}
}

// The steal is only for reincarnations (provable by the live shadow entry a
// fresh OnAlloc created). A plain second free of a mid-retirement base has
// no shadow entry and must still be reported as a double free.
func TestDoubleFreeDuringRetirement(t *testing.T) {
	d := NewWithConfig(quarCfg(1<<20, 1, true))
	as := vmem.New()
	d.Bind(as)
	as.Heap().MapPages(vmem.HeapBase, 512)

	base := uint64(vmem.HeapBase)
	var dup error
	var once bool
	release := func(bases []uint64) (int, error) {
		if !once {
			once = true
			_, dup = d.OnFreeDeferred(base, 64, 8)
		}
		return len(bases), nil
	}
	if !d.BindRelease(release) {
		t.Fatal("quarantine not armed")
	}
	quarObj(d, as, base, vmem.GlobalsBase)
	within(t, 10*time.Second, func() {
		if _, err := d.OnFreeDeferred(base, 64, 8); err != nil {
			t.Errorf("outer free: %v", err)
		}
	})
	var dfe *tcmalloc.DoubleFreeError
	if !errors.As(dup, &dfe) || dfe.Addr != base {
		t.Fatalf("mid-retirement double free not caught: %v", dup)
	}
	if d.Quarantined(base) {
		t.Fatal("custody entry leaked after retirement")
	}
}

// A reincarnation the detector cannot track — CreateMeta denied, the
// fail-open case — has no shadow entry, so its free consults the custody
// set. Its base went back through the release callback and the allocator
// re-issued it, so that free is a new object's, not a double free; the
// runtime frees it inline.
func TestUntrackedReincarnationIsNotADoubleFree(t *testing.T) {
	d := NewWithConfig(quarCfg(1<<20, 1, true))
	as := vmem.New()
	d.Bind(as)
	as.Heap().MapPages(vmem.HeapBase, 512)
	plane := faultinject.New(1)
	d.InjectFaults(plane)

	base, slot := uint64(vmem.HeapBase), uint64(vmem.GlobalsBase)
	rl := &releaseLog{}
	var cycled, taken bool
	var ferr error
	release := func(bases []uint64) (int, error) {
		n, err := rl.release(bases)
		if !cycled {
			cycled = true
			plane.Enable(faultinject.MetaAlloc, 1, -1)
			d.OnAlloc(base, 64, 8)
			plane.Enable(faultinject.MetaAlloc, 0, 0)
			taken, ferr = d.OnFreeDeferred(base, 64, 8)
		}
		return n, err
	}
	if !d.BindRelease(release) {
		t.Fatal("quarantine not armed")
	}
	quarObj(d, as, base, slot)

	within(t, 10*time.Second, func() {
		if _, err := d.OnFreeDeferred(base, 64, 8); err != nil {
			t.Errorf("outer free: %v", err)
		}
	})
	if !cycled {
		t.Fatal("release callback never ran")
	}
	if ferr != nil || taken {
		t.Fatalf("free of the untracked reincarnation: taken=%v err=%v, want an inline free", taken, ferr)
	}
	if d.Quarantined(base) {
		t.Fatal("custody entry outlived the reincarnation")
	}
	if v, _ := as.LoadWord(slot); v&pointerlog.InvalidBit == 0 {
		t.Fatalf("first incarnation's slot not invalidated: 0x%x", v)
	}
}

// Reincarnation hammer under -race: goroutines cycle alloc → many logged
// stores (enough to spill each incarnation's log to the cold tier) → free,
// with the asynchronous epoch worker retiring batches concurrently. The
// cross-tier audit identity must hold throughout and custody must end
// empty — this is the concurrent spill + epoch-drain case.
func TestQuarantineReincarnationHammer(t *testing.T) {
	cfg := quarCfg(1<<16, 4, false)
	cfg.Lookback = 0
	cfg.Compression = false
	cfg.MaxLogEntries = 12
	cfg.ColdSpillBytes = pointerlog.MinColdSpillBytes
	cfg.ColdDir = t.TempDir()
	cfg.Audit = true
	d := NewWithConfig(cfg)
	defer d.Close()
	as := vmem.New()
	d.Bind(as)
	as.Heap().MapPages(vmem.HeapBase, 512)

	const (
		workers = 4
		rounds  = 12
		stores  = 120 // unique locations per incarnation: enough to spill
	)
	// Per-worker return channels stand in for the allocator: a span can be
	// re-issued the moment the release callback hands it back — which is
	// still before the batch's custody entries are deleted, so the
	// reincarnation steal stays hot.
	rl := &releaseLog{}
	returned := make([]chan struct{}, workers)
	for g := range returned {
		returned[g] = make(chan struct{}, rounds)
	}
	release := func(bases []uint64) (int, error) {
		n, err := rl.release(bases)
		for _, b := range bases {
			returned[(b-vmem.HeapBase)/vmem.PageSize] <- struct{}{}
		}
		return n, err
	}
	if !d.BindRelease(release) {
		t.Fatal("quarantine not armed")
	}

	// idle counts the workers that are finished or waiting for a return.
	// Once all of them are, no later free can fill the partial epoch the
	// waiters' frees are parked in, so the last one to go idle drains it.
	var mu sync.Mutex
	idle := 0
	goIdle := func() {
		mu.Lock()
		idle++
		all := idle == workers
		mu.Unlock()
		if all {
			d.DrainQuarantine()
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer goIdle()
			base := vmem.HeapBase + uint64(g)*vmem.PageSize
			for r := 0; r < rounds; r++ {
				if r > 0 {
					goIdle()
					<-returned[g] // wait for the allocator to re-issue the span
					mu.Lock()
					idle--
					mu.Unlock()
				}
				d.OnAlloc(base, 64, 8)
				for i := 0; i < stores; i++ {
					loc := vmem.GlobalsBase + uint64((g*rounds+r)*stores+i)*8
					as.StoreWord(loc, base+8)
					d.OnPtrStore(loc, base+8, int32(g))
				}
				if _, err := d.OnFreeDeferred(base, 64, 8); err != nil {
					t.Errorf("worker %d round %d: %v", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	within(t, 30*time.Second, d.DrainQuarantine)

	for g := 0; g < workers; g++ {
		if d.Quarantined(vmem.HeapBase + uint64(g)*vmem.PageSize) {
			t.Fatalf("worker %d's base stranded in custody", g)
		}
	}
	if v := d.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit violations under concurrent spill + drain: %v", v)
	}
	snap := d.Stats()
	if snap.Spills == 0 {
		t.Fatalf("hammer never spilled — fixture lost its point: %+v", snap)
	}
	if snap.ColdReadErrors != 0 {
		t.Fatalf("cold read errors without injected faults: %+v", snap)
	}
	if want := uint64(workers * rounds * stores); snap.Invalidated+snap.Stale != want {
		t.Fatalf("invalidated+stale=%d want %d: locations lost across tiers",
			snap.Invalidated+snap.Stale, want)
	}
	released := rl.flat()
	if len(released) != workers*rounds {
		t.Fatalf("released %d spans, want %d", len(released), workers*rounds)
	}
}

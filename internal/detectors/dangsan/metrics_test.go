package dangsan_test

import (
	"sync"
	"testing"

	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/obs"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
)

// The full stack with audit and metrics on: allocate, store pointers,
// free, and require (a) the audit identity held at every free, (b) the
// registry saw traffic from every wired subsystem.
func TestMetricsAndAuditIntegration(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := pointerlog.DefaultConfig()
	cfg.Audit = true
	det := dangsan.NewWithOptions(dangsan.Options{Config: cfg})
	p := proc.New(det)
	p.AttachMetrics(reg)
	th := p.NewThread()

	slot, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		objs := make([]uint64, 8)
		for i := range objs {
			objs[i], err = th.Malloc(uint64(16 + i*24))
			if err != nil {
				t.Fatal(err)
			}
			if f := th.StorePtr(slot+uint64(i%8)*8, objs[i]); f != nil {
				t.Fatalf("store faulted: %v", f)
			}
		}
		for _, o := range objs {
			if err := th.Free(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	if v := det.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit violations: %v", v)
	}
	det.Stats() // snapshot-time audit
	if v := det.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit violations after snapshot: %v", v)
	}

	s := reg.Snapshot()
	for _, c := range []string{"proc.mallocs", "proc.frees", "proc.ptr_stores", "shadow.slot_writes", "shadow.slot_clears"} {
		if s.Counters[c] == 0 {
			t.Errorf("counter %s = 0", c)
		}
	}
	for _, g := range []string{"pointerlog.log_bytes", "pointerlog.registered", "tcmalloc.total_allocs", "shadow.bytes"} {
		if s.Gauges[g] == 0 {
			t.Errorf("gauge %s = 0", g)
		}
	}
	if s.Histograms["pointerlog.register_ns"].Count == 0 {
		t.Error("register_ns histogram empty")
	}
	if s.Histograms["pointerlog.invalidate_ns"].Count == 0 {
		t.Error("invalidate_ns histogram empty")
	}
	if len(s.Objects["tcmalloc.sizeclass"]) == 0 {
		t.Error("sizeclass object empty")
	}
	// The live log-byte gauge reflects released structures.
	if s.Gauges["pointerlog.log_bytes_live"] > s.Gauges["pointerlog.log_bytes"] {
		t.Errorf("live %d > total %d", s.Gauges["pointerlog.log_bytes_live"], s.Gauges["pointerlog.log_bytes"])
	}
}

// The stale-handle race at the system level: one thread frees and
// reallocates (recycling metadata handles and rewriting extents) while
// others store pointers whose fast-path memo may hold the recycled
// handle's meta. Run under -race; correctness of observed values is
// reconciled by free-time verification, this test pins down the absence
// of data races on the extent words.
func TestStaleHandleStoreRace(t *testing.T) {
	det := dangsan.New()
	p := proc.New(det)
	churner := p.NewThread()

	slots, err := churner.Malloc(512)
	if err != nil {
		t.Fatal(err)
	}

	const storers = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < storers; w++ {
		th := p.NewThread()
		wg.Add(1)
		go func(th *proc.Thread, w int) {
			defer wg.Done()
			i := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Store a heap-ranged value: sometimes a live object,
				// sometimes a dangling address whose handle was recycled.
				obj, err := th.Malloc(32)
				if err != nil {
					return
				}
				th.StorePtr(slots+uint64(w)*64+(i%8)*8, obj)
				th.Free(obj)
				th.StorePtr(slots+uint64(w)*64+(i%8)*8, obj) // dangling value
				i++
			}
		}(th, w)
	}

	for i := 0; i < 400; i++ {
		obj, err := churner.Malloc(uint64(16 + i%5*32))
		if err != nil {
			t.Fatal(err)
		}
		churner.StorePtr(slots, obj)
		if _, err := churner.Realloc(obj, uint64(128+i%3*64)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

package proc

import (
	"errors"
	"testing"

	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/pointerlog"
	"dangsan/internal/tcmalloc"
)

// TestTinyHeapMallocReturnsTypedOOM drives a DangSan-protected process into
// genuine heap exhaustion and back: Malloc and Realloc must surface
// *tcmalloc.OutOfMemoryError (never panic), and after recovery the detector
// must still be fully consistent — allocations tracked, frees invalidating,
// the audit identity intact.
func TestTinyHeapMallocReturnsTypedOOM(t *testing.T) {
	cfg := pointerlog.DefaultConfig()
	cfg.Audit = true
	det := dangsan.NewWithOptions(dangsan.Options{Config: cfg})
	p := NewWithOptions(det, Options{HeapBytes: 256 << 10})
	th := p.NewThread()
	defer th.Exit()

	// Fill the heap until it refuses.
	var live []uint64
	var oomErr error
	for i := 0; i < 1<<12; i++ {
		b, err := th.Malloc(16 << 10)
		if err != nil {
			oomErr = err
			break
		}
		live = append(live, b)
	}
	if oomErr == nil {
		t.Fatal("a 256 KiB heap absorbed 64 MiB of allocations")
	}
	var oom *tcmalloc.OutOfMemoryError
	if !errors.As(oomErr, &oom) {
		t.Fatalf("Malloc exhaustion is not a typed OutOfMemoryError: %v", oomErr)
	}

	// Realloc growth at the wall must fail the same way, leaving the
	// original object valid.
	if _, err := th.Realloc(live[0], 128<<10); err == nil {
		t.Fatal("Realloc at the heap wall succeeded")
	} else if !errors.As(err, &oom) {
		t.Fatalf("Realloc exhaustion is not a typed OutOfMemoryError: %v", err)
	}

	// The failed calls must not have corrupted detector state: the live
	// objects are still tracked and freeing them invalidates as usual.
	ref := p.AllocGlobal(8)
	if f := th.StorePtr(ref, live[0]); f != nil {
		t.Fatalf("store into live object's tracking slot: %v", f)
	}
	for _, b := range live {
		if err := th.Free(b); err != nil {
			t.Fatalf("free after OOM recovery: %v", err)
		}
	}
	if v, _ := th.Load(ref); v>>63 != 1 {
		t.Fatalf("free after OOM did not invalidate the logged pointer: 0x%x", v)
	}

	// And the memory is genuinely reusable again.
	b, err := th.Malloc(16 << 10)
	if err != nil {
		t.Fatalf("allocation after freeing everything: %v", err)
	}
	if err := th.Free(b); err != nil {
		t.Fatal(err)
	}

	snap := det.Stats() // runs the audit cross-check
	if got := det.AuditViolations(); len(got) != 0 {
		t.Fatalf("audit violations after OOM round-trip: %v", got)
	}
	if snap.DegradedObjects != 0 {
		t.Fatalf("nothing should degrade on allocator-side OOM: %d", snap.DegradedObjects)
	}
	if liveObjs := p.Allocator().Stats().LiveObjects; liveObjs != 0 {
		t.Fatalf("%d objects leaked across the pressure round-trip", liveObjs)
	}
}

// TestTryAllocGlobalExhaustion: the globals segment surfaces a typed
// *ExhaustedError from TryAllocGlobal, and AllocGlobal panics with exactly
// that value.
func TestTryAllocGlobalExhaustion(t *testing.T) {
	p := New(dangsan.New())
	if _, err := p.TryAllocGlobal(1 << 40); err == nil {
		t.Fatal("absurd global allocation succeeded")
	} else {
		var ex *ExhaustedError
		if !errors.As(err, &ex) || ex.Resource != "globals" {
			t.Fatalf("want globals ExhaustedError, got %v", err)
		}
	}
	defer func() {
		r := recover()
		ex, ok := r.(*ExhaustedError)
		if !ok || ex.Resource != "globals" {
			t.Fatalf("AllocGlobal panic = %v, want *ExhaustedError{globals}", r)
		}
	}()
	p.AllocGlobal(1 << 40)
}

// TestTryAllocaExhaustion: stack overflow surfaces as a typed
// *ExhaustedError carrying the thread id.
func TestTryAllocaExhaustion(t *testing.T) {
	p := New(dangsan.New())
	th := p.NewThread()
	defer th.Exit()
	if _, err := th.TryAlloca(1 << 30); err == nil {
		t.Fatal("absurd alloca succeeded")
	} else {
		var ex *ExhaustedError
		if !errors.As(err, &ex) || ex.Resource != "stack" || ex.Tid != th.ID() {
			t.Fatalf("want stack ExhaustedError for tid %d, got %v", th.ID(), err)
		}
	}
}

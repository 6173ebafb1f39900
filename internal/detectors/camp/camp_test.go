package camp

import (
	"errors"
	"testing"

	"dangsan/internal/faultinject"
	"dangsan/internal/pointerlog"
	"dangsan/internal/vmem"
)

const (
	objA = vmem.HeapBase + 0x1000
	objB = vmem.HeapBase + 0x2000
)

func checkOK(t *testing.T, d *Detector, ptr uint64) {
	t.Helper()
	got, f := d.CheckDeref(ptr)
	if f != nil {
		t.Fatalf("CheckDeref(0x%x) faulted: %v", ptr, f)
	}
	if got != ptr {
		t.Fatalf("CheckDeref(0x%x) rewrote the address to 0x%x", ptr, got)
	}
}

func checkFaults(t *testing.T, d *Detector, ptr uint64) *vmem.Fault {
	t.Helper()
	_, f := d.CheckDeref(ptr)
	if f == nil {
		t.Fatalf("CheckDeref(0x%x) passed, want freed-range fault", ptr)
	}
	if f.Kind != vmem.FaultFreedRange {
		t.Fatalf("CheckDeref(0x%x) fault kind %v, want freed range", ptr, f.Kind)
	}
	if f.Addr != ptr {
		t.Fatalf("fault address 0x%x, want 0x%x", f.Addr, ptr)
	}
	return f
}

// TestRangeLifecycle walks one object through alloc → deref → free → stale
// deref → reuse, pinning the range-check semantics at each step.
func TestRangeLifecycle(t *testing.T) {
	d := New()
	d.OnAlloc(objA, 64, 8)
	checkOK(t, d, objA)
	checkOK(t, d, objA+48) // interior pointer
	// Untracked addresses — stack, globals, anything outside the heap —
	// never index the registry and pass.
	checkOK(t, d, vmem.GlobalsBase+8)
	checkOK(t, d, vmem.StacksBase+8)

	d.OnFree(objA, 64, 8)
	checkFaults(t, d, objA)
	checkFaults(t, d, objA+48)

	// Reuse overwrites the tombstone: the detection window closes, exactly
	// the CAMP limitation the differ oracle documents.
	d.OnAlloc(objA, 64, 8)
	checkOK(t, d, objA)

	tracked, checks, faults, tombstones := d.Stats()
	if tracked != 2 || checks == 0 || faults != 2 || tombstones != 1 {
		t.Fatalf("stats = (%d, %d, %d, %d)", tracked, checks, faults, tombstones)
	}
}

// TestDoubleFreeTombstone: freeing an already-tombstoned range is a no-op at
// the registry level (the runtime reports it through the deref check first).
func TestDoubleFreeTombstone(t *testing.T) {
	d := New()
	d.OnAlloc(objA, 64, 8)
	d.OnFree(objA, 64, 8)
	d.OnFree(objA, 64, 8)
	if _, _, _, tombstones := d.Stats(); tombstones != 1 {
		t.Fatalf("tombstones = %d, want 1", tombstones)
	}
}

// TestDegradedAllocClearsStaleTombstone is the fail-open soundness property:
// when tracking a new allocation cannot be paid for, the range must be
// cleared — not left holding the previous occupant's tombstone — or the
// degraded object's legitimate accesses would fault.
func TestDegradedAllocClearsStaleTombstone(t *testing.T) {
	d := NewWithOptions(Options{MaxMetadataBytes: perObjectMeta})
	d.OnAlloc(objA, 64, 8)
	d.OnFree(objA, 64, 8)
	checkFaults(t, d, objA) // tombstoned

	// Recycle the range with the budget spent on another object: tracking
	// is degraded.
	d.OnAlloc(objB, 64, 8)
	d.OnAlloc(objA, 64, 8)
	checkOK(t, d, objA) // unchecked, but never misjudged
	if deg, _ := d.Degraded(); deg != 1 {
		t.Fatalf("degraded = %d, want 1", deg)
	}

	// And freeing the degraded object still tombstones the range: freed is
	// freed, whether or not the allocation was tracked.
	d.OnFree(objA, 64, 8)
	checkFaults(t, d, objA)
}

// TestShadowPopulateFailureFailsOpen: an injected shadow failure during
// registration degrades the object without leaving a partial mapping.
func TestShadowPopulateFailureFailsOpen(t *testing.T) {
	plane := faultinject.New(23)
	plane.Enable(faultinject.ShadowPopulate, 1.0, 1)
	d := NewWithOptions(Options{Faults: plane})

	d.OnAlloc(objA, 2*vmem.PageSize, vmem.PageSize) // degraded
	checkOK(t, d, objA)
	checkOK(t, d, objA+vmem.PageSize)
	if deg, _ := d.Degraded(); deg != 1 {
		t.Fatalf("degraded = %d, want 1", deg)
	}

	d.OnAlloc(objB, 64, 8)
	checkOK(t, d, objB)
	d.OnFree(objB, 64, 8)
	checkFaults(t, d, objB)
}

// TestChargeMetaTypedError pins the fail-open contract to the same typed
// error dangsan's logger uses for metadata exhaustion.
func TestChargeMetaTypedError(t *testing.T) {
	d := NewWithOptions(Options{MaxMetadataBytes: 1})
	if err := d.Charge(faultinject.MetaAlloc, perObjectMeta); !errors.Is(err, pointerlog.ErrMetadataExhausted) {
		t.Fatalf("budget exhaustion: want ErrMetadataExhausted, got %v", err)
	}
}

// TestReallocShrinkTombstonesTail: an in-place shrink tombstones the dead
// tail — a stale interior pointer into it faults — while the surviving head
// stays live. Growing back revives the tail.
func TestReallocShrinkTombstonesTail(t *testing.T) {
	d := New()
	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 4*vmem.PageSize, vmem.PageSize)

	d.OnReallocInPlace(base, 4*vmem.PageSize, 2*vmem.PageSize, vmem.PageSize)
	checkOK(t, d, base+8)
	checkFaults(t, d, base+3*vmem.PageSize)

	d.OnReallocInPlace(base, 2*vmem.PageSize, 4*vmem.PageSize, vmem.PageSize)
	checkOK(t, d, base+3*vmem.PageSize)

	d.OnFree(base, 4*vmem.PageSize, vmem.PageSize)
	checkFaults(t, d, base+8)
	checkFaults(t, d, base+3*vmem.PageSize)
}

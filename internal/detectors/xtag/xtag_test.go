package xtag

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

func checkOK(t *testing.T, d *Detector, ptr uint64) uint64 {
	t.Helper()
	got, f := d.CheckDeref(ptr)
	if f != nil {
		t.Fatalf("CheckDeref(0x%x) faulted: %v", ptr, f)
	}
	return got
}

func checkFaults(t *testing.T, d *Detector, ptr uint64) *vmem.Fault {
	t.Helper()
	_, f := d.CheckDeref(ptr)
	if f == nil {
		t.Fatalf("CheckDeref(0x%x) passed, want tag mismatch", ptr)
	}
	if f.Kind != vmem.FaultTagMismatch {
		t.Fatalf("CheckDeref(0x%x) fault kind %v, want tag mismatch", ptr, f.Kind)
	}
	return f
}

// TestTagLifecycle walks one object through alloc → deref → free → stale
// deref → reuse, pinning the tag semantics at each step.
func TestTagLifecycle(t *testing.T) {
	d := New()
	d.OnAlloc(objA, 64, 8)
	p := d.TagPointer(objA)
	if vmem.PointerTag(p) == 0 {
		t.Fatalf("TagPointer returned untagged pointer 0x%x", p)
	}
	if got := checkOK(t, d, p); got != objA {
		t.Fatalf("CheckDeref stripped to 0x%x, want 0x%x", got, objA)
	}
	// Interior pointers carry the same tag and pass.
	checkOK(t, d, p+48)
	// Untagged addresses (stack, globals, raw heap) always pass unchanged.
	if got := checkOK(t, d, vmem.GlobalsBase+8); got != vmem.GlobalsBase+8 {
		t.Fatalf("untagged pointer altered: 0x%x", got)
	}

	d.OnFree(objA, 64, 8)
	f := checkFaults(t, d, p)
	if f.Addr != p {
		t.Fatalf("fault lost the tagged pointer: 0x%x, want 0x%x", f.Addr, p)
	}
	// Freeing marks, not clears: the mismatch is the detection signal.
	if cur := d.table.Lookup(objA); cur != FreedMark {
		t.Fatalf("freed slot = 0x%x, want FreedMark", cur)
	}

	// Reuse of the range issues a new tag; the stale pointer still faults.
	d.OnAlloc(objA, 64, 8)
	p2 := d.TagPointer(objA)
	if p2 == p {
		t.Fatal("recycled object got the same tag")
	}
	checkOK(t, d, p2)
	checkFaults(t, d, p)

	if tagged, checks, mismatches := d.Stats(); tagged != 2 || checks == 0 || mismatches != 2 {
		t.Fatalf("stats = (%d, %d, %d)", tagged, checks, mismatches)
	}
}

// TestTagReuseWindow pins the xTag false-negative window: after MaxTag
// generations the tag counter wraps, and a stale pointer whose tag aliases
// the range's new tag passes the check again.
func TestTagReuseWindow(t *testing.T) {
	d := New()
	d.OnAlloc(objA, 64, 8)
	stale := d.TagPointer(objA)
	d.OnFree(objA, 64, 8)
	checkFaults(t, d, stale)

	// Churn exactly MaxTag-1 generations elsewhere, so the next tag issued
	// is stale's tag again.
	for i := 0; i < vmem.MaxTag-1; i++ {
		d.OnAlloc(objB, 64, 8)
		d.OnFree(objB, 64, 8)
	}
	d.OnAlloc(objA, 64, 8)
	fresh := d.TagPointer(objA)
	if vmem.PointerTag(fresh) != vmem.PointerTag(stale) {
		t.Fatalf("tag did not wrap: fresh %d, stale %d — window math wrong",
			vmem.PointerTag(fresh), vmem.PointerTag(stale))
	}
	// The stale pointer now aliases the live tag: the documented false
	// negative. If this starts faulting, the tag width or wrap rule changed
	// and the docs (and differ oracle) must follow.
	checkOK(t, d, stale)
	if g := d.gen.Load(); g != vmem.MaxTag+1 {
		t.Fatalf("generations = %d, want %d", g, vmem.MaxTag+1)
	}
}

// TestDegradedAllocFailOpen: an object whose metadata cannot be paid for
// stays untagged — its pointer is the raw address and every check passes.
func TestDegradedAllocFailOpen(t *testing.T) {
	plane := faultinject.New(7)
	plane.Enable(faultinject.MetaAlloc, 1.0, 1)
	d := NewWithOptions(Options{Faults: plane})

	d.OnAlloc(objA, 64, 8) // degraded
	if p := d.TagPointer(objA); p != objA {
		t.Fatalf("degraded object got tag: 0x%x", p)
	}
	checkOK(t, d, objA)
	d.OnFree(objA, 64, 8) // must not mark an untracked object
	if deg, dropped := d.Degraded(); deg != 1 || dropped != 0 {
		t.Fatalf("Degraded() = (%d, %d), want (1, 0)", deg, dropped)
	}

	// The plane only fails once: the next allocation tags normally.
	d.OnAlloc(objB, 64, 8)
	p := d.TagPointer(objB)
	if vmem.PointerTag(p) == 0 {
		t.Fatal("allocation after degraded episode not tagged")
	}
	d.OnFree(objB, 64, 8)
	checkFaults(t, d, p)
}

// TestChargeMetaTypedError pins the fail-open contract to the same typed
// error dangsan's logger uses for metadata exhaustion.
func TestChargeMetaTypedError(t *testing.T) {
	d := NewWithOptions(Options{MaxMetadataBytes: 1})
	if err := d.Charge(faultinject.MetaAlloc, perObjectMeta); !errors.Is(err, pointerlog.ErrMetadataExhausted) {
		t.Fatalf("budget exhaustion: want ErrMetadataExhausted, got %v", err)
	}
}

// TestReallocShrinkMarksTail: an in-place shrink writes the freed marker
// over the dead tail, so stale pointers into it mismatch while pointers
// into the surviving head stay valid.
func TestReallocShrinkMarksTail(t *testing.T) {
	d := New()
	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 4*vmem.PageSize, vmem.PageSize)
	p := d.TagPointer(base)
	head := p + 8
	tail := p + 3*vmem.PageSize

	d.OnReallocInPlace(base, 4*vmem.PageSize, 2*vmem.PageSize, vmem.PageSize)
	checkOK(t, d, head)
	checkFaults(t, d, tail)
	if cur := d.table.Lookup(vmem.StripTag(tail)); cur != FreedMark {
		t.Fatalf("tail slot = 0x%x, want FreedMark", cur)
	}

	// Growing back re-marks the whole extent with the object's (unchanged)
	// tag: the old tail pointer becomes valid again, as it addresses the
	// same live object.
	d.OnReallocInPlace(base, 2*vmem.PageSize, 4*vmem.PageSize, vmem.PageSize)
	checkOK(t, d, tail)
	d.OnFree(base, 4*vmem.PageSize, vmem.PageSize)
	checkFaults(t, d, head)
	checkFaults(t, d, tail)
}

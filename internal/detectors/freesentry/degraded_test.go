package freesentry

import (
	"errors"
	"testing"

	"dangsan/internal/faultinject"
	"dangsan/internal/pointerlog"
	"dangsan/internal/vmem"
)

// mem is a word-granular fake detectors.Memory.
type mem map[uint64]uint64

func (m mem) LoadWord(a uint64) (uint64, *vmem.Fault) { return m[a], nil }
func (m mem) StoreWord(a, v uint64) *vmem.Fault       { m[a] = v; return nil }
func (m mem) CASWord(a, old, new uint64) (bool, *vmem.Fault) {
	if m[a] == old {
		m[a] = new
		return true, nil
	}
	return false, nil
}

const (
	objA = vmem.HeapBase + 0x1000
	objB = vmem.HeapBase + 0x2000
	locX = vmem.HeapBase + 0x8000
)

// TestChargeMetaTypedError pins the fail-open contract to the same typed
// error dangsan's logger uses for metadata exhaustion.
func TestChargeMetaTypedError(t *testing.T) {
	d := NewWithOptions(Options{MaxMetadataBytes: 1})
	if err := d.Charge(faultinject.MetaAlloc, 48); !errors.Is(err, pointerlog.ErrMetadataExhausted) {
		t.Fatalf("budget exhaustion: want ErrMetadataExhausted, got %v", err)
	}

	plane := faultinject.New(3)
	plane.Enable(faultinject.MetaAlloc, 1.0, -1)
	d2 := NewWithOptions(Options{Faults: plane})
	if err := d2.Charge(faultinject.MetaAlloc, 48); !errors.Is(err, pointerlog.ErrMetadataExhausted) {
		t.Fatalf("injected failure: want ErrMetadataExhausted, got %v", err)
	}
}

// TestDegradedAllocFailOpen: a metadata-failed allocation goes untracked —
// stores into it register nothing and its free invalidates nothing — while
// later allocations track normally.
func TestDegradedAllocFailOpen(t *testing.T) {
	plane := faultinject.New(11)
	plane.Enable(faultinject.MetaAlloc, 1.0, 1)
	d := NewWithOptions(Options{Faults: plane})
	m := mem{}
	d.Bind(m)

	d.OnAlloc(objA, 64, 8) // degraded
	if h := d.table.Lookup(objA); h != 0 {
		t.Fatalf("degraded object mapped in the shadow table: handle=%d", h)
	}
	m[locX] = objA + 16
	d.OnPtrStore(locX, objA+16, 0)
	d.OnFree(objA, 64, 8)
	if m[locX] != objA+16 {
		t.Fatalf("free of a degraded object touched memory: loc=0x%x", m[locX])
	}
	if deg, dropped := d.Degraded(); deg != 1 || dropped != 0 {
		t.Fatalf("Degraded()=(%d,%d), want (1,0)", deg, dropped)
	}

	d.OnAlloc(objB, 64, 8)
	m[locX] = objB + 8
	d.OnPtrStore(locX, objB+8, 0)
	d.OnFree(objB, 64, 8)
	if m[locX] != (objB+8)|InvalidBit {
		t.Fatalf("tracked object not invalidated after degraded episode: loc=0x%x", m[locX])
	}
	if _, inv := d.Stats(); inv != 1 {
		t.Fatalf("invalidated=%d, want 1", inv)
	}
}

// TestShadowPopulateFailureReleasesHandle covers the previously unhandled
// CreateObject error path: when shadow population fails, the half-created
// handle must be released (no mapping, slot reusable) and the object
// degrades fail-open.
func TestShadowPopulateFailureReleasesHandle(t *testing.T) {
	plane := faultinject.New(19)
	plane.Enable(faultinject.ShadowPopulate, 1.0, 1)
	d := NewWithOptions(Options{Faults: plane})
	m := mem{}
	d.Bind(m)

	d.OnAlloc(objA, 64, 8)
	if h := d.table.Lookup(objA); h != 0 {
		t.Fatalf("failed population left a mapping: handle=%d", h)
	}
	if deg, _ := d.Degraded(); deg != 1 {
		t.Fatalf("degraded=%d, want 1", deg)
	}
	if len(d.free) != 1 || d.objs[d.free[0]-1] != nil {
		t.Fatalf("handle not released: free=%v", d.free)
	}

	// The released handle is reused cleanly by the next allocation.
	d.OnAlloc(objB, 64, 8)
	h := d.table.Lookup(objB)
	if h == 0 || d.objs[h-1] == nil || d.objs[h-1].base != objB {
		t.Fatalf("handle reuse broken: handle=%d", h)
	}
	m[locX] = objB
	d.OnPtrStore(locX, objB, 0)
	d.OnFree(objB, 64, 8)
	if m[locX] != objB|InvalidBit {
		t.Fatalf("invalidation contract broken after handle reuse: loc=0x%x", m[locX])
	}
}

// TestReallocGrowFailureConverges covers the previously unhandled
// CreateObject error in OnReallocInPlace: when extending the shadow mapping
// for an in-place grow fails, the rollback wipes (part of) the old mapping,
// and the old code leaked the handle — object record never released,
// metadata never refunded, registered locations never invalidated — with a
// stale end already written. The object must instead degrade fail-open:
// whole extent cleared, record released for reuse, registrations forgotten.
func TestReallocGrowFailureConverges(t *testing.T) {
	plane := faultinject.New(29)
	d := NewWithOptions(Options{Faults: plane})
	m := mem{}
	d.Bind(m)

	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 2*vmem.PageSize, vmem.PageSize)
	m[locX] = base + 8
	d.OnPtrStore(locX, base+8, 0)
	before := d.MetadataBytes()

	// Fail the shadow population extending the mapping to 4 pages.
	plane.Enable(faultinject.ShadowPopulate, 1.0, 1)
	d.OnReallocInPlace(base, 2*vmem.PageSize, 4*vmem.PageSize, vmem.PageSize)
	plane.Enable(faultinject.ShadowPopulate, 0, 0)

	if h := d.table.Lookup(base); h != 0 {
		t.Fatalf("failed grow left a mapping: handle=%d", h)
	}
	if len(d.free) != 1 || d.objs[d.free[0]-1] != nil {
		t.Fatalf("handle not released: free=%v", d.free)
	}
	if got := d.MetadataBytes(); got >= before {
		t.Fatalf("registration bytes not refunded: %d -> %d", before, got)
	}
	if deg, dropped := d.Degraded(); deg != 1 || dropped != 1 {
		t.Fatalf("Degraded()=(%d,%d), want (1,1)", deg, dropped)
	}

	// The free of the degraded object is a no-op: its registration was
	// forgotten, so the location keeps its raw value (coverage loss, no
	// crash) and the released handle is reusable.
	d.OnFree(base, 4*vmem.PageSize, vmem.PageSize)
	if m[locX] != base+8 {
		t.Fatalf("degraded object still invalidated: loc=0x%x", m[locX])
	}
	d.OnAlloc(objB, 64, 8)
	h := d.table.Lookup(objB)
	if h == 0 || d.objs[h-1] == nil || d.objs[h-1].base != objB {
		t.Fatalf("handle reuse broken after realloc degradation: handle=%d", h)
	}
}

// TestDroppedRegistrationFailOpen: a registration over budget is dropped —
// the location is missed at free time, but structures stay consistent.
func TestDroppedRegistrationFailOpen(t *testing.T) {
	d := NewWithOptions(Options{MaxMetadataBytes: 50}) // object (48) fits, +8 does not
	m := mem{}
	d.Bind(m)

	d.OnAlloc(objA, 64, 8)
	m[locX] = objA
	d.OnPtrStore(locX, objA, 0)
	if deg, dropped := d.Degraded(); deg != 0 || dropped != 1 {
		t.Fatalf("Degraded()=(%d,%d), want (0,1)", deg, dropped)
	}
	d.OnFree(objA, 64, 8)
	if m[locX] != objA {
		t.Fatalf("dropped registration still invalidated: loc=0x%x", m[locX])
	}
	if _, inv := d.Stats(); inv != 0 {
		t.Fatalf("invalidated=%d, want 0", inv)
	}
}

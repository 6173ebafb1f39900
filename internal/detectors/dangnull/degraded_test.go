package dangnull

import (
	"errors"
	"testing"

	"dangsan/internal/faultinject"
	"dangsan/internal/pointerlog"
	"dangsan/internal/vmem"
)

// mem is a word-granular fake detectors.Memory; the detector only ever
// loads, stores, and range-checks constants, so a map suffices.
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
	locX = vmem.HeapBase + 0x8000 // heap location holding the test pointer
)

// TestChargeMetaTypedError pins the fail-open contract to the same typed
// error dangsan's logger uses: both the budget path and the injected path
// must satisfy errors.Is(err, pointerlog.ErrMetadataExhausted).
func TestChargeMetaTypedError(t *testing.T) {
	d := NewWithOptions(Options{MaxMetadataBytes: 1})
	if err := d.Charge(faultinject.MetaAlloc, 96); !errors.Is(err, pointerlog.ErrMetadataExhausted) {
		t.Fatalf("budget exhaustion: want ErrMetadataExhausted, got %v", err)
	}

	plane := faultinject.New(3)
	plane.Enable(faultinject.MetaAlloc, 1.0, -1)
	d2 := NewWithOptions(Options{Faults: plane})
	if err := d2.Charge(faultinject.MetaAlloc, 96); !errors.Is(err, pointerlog.ErrMetadataExhausted) {
		t.Fatalf("injected failure: want ErrMetadataExhausted, got %v", err)
	}
	if plane.Injected(faultinject.MetaAlloc) != 1 {
		t.Fatalf("plane counted %d injections, want 1", plane.Injected(faultinject.MetaAlloc))
	}
}

// TestDegradedAllocFailOpen: an allocation whose metadata fails is simply
// untracked — stores into it register nothing, its free nullifies nothing,
// and the stale pointer keeps its raw bits (a missed detection, never a
// false one). Tracking resumes for later objects once injection stops.
func TestDegradedAllocFailOpen(t *testing.T) {
	plane := faultinject.New(7)
	plane.Enable(faultinject.MetaAlloc, 1.0, 1) // exactly one injected failure
	d := NewWithOptions(Options{Faults: plane})
	m := mem{}
	d.Bind(m)

	d.OnAlloc(objA, 64, 8) // degraded
	if got := d.LiveObjects(); got != 0 {
		t.Fatalf("degraded object tracked: LiveObjects=%d", got)
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

	// The plane's budget is spent: the next object is tracked and its
	// invalidation contract holds.
	d.OnAlloc(objB, 64, 8)
	m[locX] = objB + 8
	d.OnPtrStore(locX, objB+8, 0)
	d.OnFree(objB, 64, 8)
	if m[locX] != InvalidValue {
		t.Fatalf("tracked object not nullified after degraded episode: loc=0x%x", m[locX])
	}
	if _, inv := d.Stats(); inv != 1 {
		t.Fatalf("invalidated=%d, want 1", inv)
	}
}

// TestDroppedRegistrationFailOpen: when the budget admits the object but
// not the registration, the registration is dropped — the dangling pointer
// is missed at free time (coverage loss) but nothing crashes or corrupts.
func TestDroppedRegistrationFailOpen(t *testing.T) {
	d := NewWithOptions(Options{MaxMetadataBytes: 100}) // object (96) fits, +32 does not
	m := mem{}
	d.Bind(m)

	d.OnAlloc(objA, 64, 8)
	if got := d.LiveObjects(); got != 1 {
		t.Fatalf("LiveObjects=%d, want 1", got)
	}
	m[locX] = objA
	d.OnPtrStore(locX, objA, 0)
	if deg, dropped := d.Degraded(); deg != 0 || dropped != 1 {
		t.Fatalf("Degraded()=(%d,%d), want (0,1)", deg, dropped)
	}
	d.OnFree(objA, 64, 8)
	if m[locX] != objA {
		t.Fatalf("dropped registration still nullified: loc=0x%x", m[locX])
	}
	if _, inv := d.Stats(); inv != 0 {
		t.Fatalf("invalidated=%d, want 0", inv)
	}
	if got := d.LiveObjects(); got != 0 {
		t.Fatalf("freed object still tracked: LiveObjects=%d", got)
	}
}

package detectors_test

import (
	"testing"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/camp"
	"dangsan/internal/detectors/dangnull"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/detectors/freesentry"
	"dangsan/internal/detectors/xtag"
	"dangsan/internal/faultinject"
	"dangsan/internal/proc"
	"dangsan/internal/vmem"
)

// TestDetectorContracts runs the same scenario under every detector and
// checks each system's documented behaviour: who invalidates what, and with
// which value.
func TestDetectorContracts(t *testing.T) {
	type outcome struct {
		heapPtr   func(obj uint64) uint64 // expected value of heap-stored ptr after free
		globalPtr func(obj uint64) uint64 // expected value of global-stored ptr after free
	}
	cases := []struct {
		name string
		mk   func() detectors.Detector
		want outcome
	}{
		{
			name: "baseline",
			mk:   func() detectors.Detector { return detectors.None{} },
			want: outcome{
				heapPtr:   func(obj uint64) uint64 { return obj },
				globalPtr: func(obj uint64) uint64 { return obj },
			},
		},
		{
			name: "dangsan",
			mk:   func() detectors.Detector { return dangsan.New() },
			want: outcome{
				heapPtr:   func(obj uint64) uint64 { return obj | 1<<63 },
				globalPtr: func(obj uint64) uint64 { return obj | 1<<63 },
			},
		},
		{
			name: "dangnull",
			mk:   func() detectors.Detector { return dangnull.New() },
			want: outcome{
				// DangNULL nullifies heap-resident pointers with a fixed
				// value but misses pointers outside the heap entirely.
				heapPtr:   func(obj uint64) uint64 { return dangnull.InvalidValue },
				globalPtr: func(obj uint64) uint64 { return obj },
			},
		},
		{
			name: "freesentry",
			mk:   func() detectors.Detector { return freesentry.New() },
			want: outcome{
				heapPtr:   func(obj uint64) uint64 { return obj | 1<<63 },
				globalPtr: func(obj uint64) uint64 { return obj | 1<<63 },
			},
		},
		{
			// The checked-dereference detectors never rewrite stored
			// pointers: memory keeps the exact (for xtag: tagged) value the
			// program stored, and detection happens when it is used — see
			// TestCheckedDerefDetectsUAF.
			name: "xtag",
			mk:   func() detectors.Detector { return xtag.New() },
			want: outcome{
				heapPtr:   func(obj uint64) uint64 { return obj },
				globalPtr: func(obj uint64) uint64 { return obj },
			},
		},
		{
			name: "camp",
			mk:   func() detectors.Detector { return camp.New() },
			want: outcome{
				heapPtr:   func(obj uint64) uint64 { return obj },
				globalPtr: func(obj uint64) uint64 { return obj },
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := proc.New(c.mk())
			th := p.NewThread()
			obj, err := th.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			heapSlot, _ := th.Malloc(8)
			globalSlot := p.AllocGlobal(8)
			th.StorePtr(heapSlot, obj)
			th.StorePtr(globalSlot, obj)
			if err := th.Free(obj); err != nil {
				t.Fatal(err)
			}
			if v, _ := th.Load(heapSlot); v != c.want.heapPtr(obj) {
				t.Errorf("heap ptr = 0x%x, want 0x%x", v, c.want.heapPtr(obj))
			}
			if v, _ := th.Load(globalSlot); v != c.want.globalPtr(obj) {
				t.Errorf("global ptr = 0x%x, want 0x%x", v, c.want.globalPtr(obj))
			}
		})
	}
}

func TestDangNullStaleNotClobbered(t *testing.T) {
	p := proc.New(dangnull.New())
	th := p.NewThread()
	objA, _ := th.Malloc(64)
	objB, _ := th.Malloc(64)
	slot, _ := th.Malloc(8)
	th.StorePtr(slot, objA)
	th.StorePtr(slot, objB) // unregisters the slot from objA
	th.Free(objA)
	if v, _ := th.Load(slot); v != objB {
		t.Fatalf("slot = 0x%x, want objB", v)
	}
}

func TestDangNullTreeTracksLiveObjects(t *testing.T) {
	d := dangnull.New()
	p := proc.New(d)
	th := p.NewThread()
	objs := make([]uint64, 100)
	for i := range objs {
		objs[i], _ = th.Malloc(32)
	}
	if d.LiveObjects() != 100 {
		t.Fatalf("live = %d", d.LiveObjects())
	}
	for _, o := range objs {
		th.Free(o)
	}
	if d.LiveObjects() != 0 {
		t.Fatalf("live after frees = %d", d.LiveObjects())
	}
}

func TestFreeSentryInterior(t *testing.T) {
	p := proc.New(freesentry.New())
	th := p.NewThread()
	obj, _ := th.Malloc(128)
	slot := p.AllocGlobal(8)
	th.StorePtr(slot, obj+64)
	th.Free(obj)
	if v, _ := th.Load(slot); v != (obj+64)|freesentry.InvalidBit {
		t.Fatalf("interior ptr = 0x%x", v)
	}
	// A dereference faults.
	if _, f := th.Deref(slot); f == nil || f.Kind != vmem.FaultNonCanonical {
		t.Fatalf("deref: %v", f)
	}
}

func TestFreeSentryObjectRecycling(t *testing.T) {
	d := freesentry.New()
	p := proc.New(d)
	th := p.NewThread()
	a, _ := th.Malloc(64)
	th.Free(a)
	b, _ := th.Malloc(64)
	slot := p.AllocGlobal(8)
	th.StorePtr(slot, b)
	th.Free(b)
	if v, _ := th.Load(slot); v != b|freesentry.InvalidBit {
		t.Fatalf("recycled object ptr = 0x%x", v)
	}
	reg, inv := d.Stats()
	if reg != 1 || inv != 1 {
		t.Fatalf("stats = %d, %d", reg, inv)
	}
}

// TestCheckedDerefDetectsUAF: the detection contract of the two
// checked-dereference backends — a dangling pointer read back from memory
// faults when dereferenced, with each backend's own fault kind, and the
// fault address preserves the stale pointer.
func TestCheckedDerefDetectsUAF(t *testing.T) {
	cases := []struct {
		name string
		mk   func() detectors.Detector
		kind vmem.FaultKind
	}{
		{"xtag", func() detectors.Detector { return xtag.New() }, vmem.FaultTagMismatch},
		{"camp", func() detectors.Detector { return camp.New() }, vmem.FaultFreedRange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := proc.New(c.mk())
			th := p.NewThread()
			obj, err := th.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			slot := p.AllocGlobal(8)
			th.StorePtr(slot, obj)
			if _, f := th.Deref(slot); f != nil {
				t.Fatalf("deref of live object: %v", f)
			}
			if err := th.Free(obj); err != nil {
				t.Fatal(err)
			}
			_, f := th.Deref(slot)
			if f == nil || f.Kind != c.kind {
				t.Fatalf("stale deref: fault %v, want kind %v", f, c.kind)
			}
			if f.Addr != obj {
				t.Fatalf("fault addr 0x%x, want the stale pointer 0x%x", f.Addr, obj)
			}
			// Direct loads and stores through the stale pointer trap too.
			if _, f := th.Load(obj); f == nil || f.Kind != c.kind {
				t.Fatalf("stale load: %v", f)
			}
			if f := th.StoreInt(obj, 1); f == nil || f.Kind != c.kind {
				t.Fatalf("stale store: %v", f)
			}
			// Free-after-free and realloc-after-free are detected as UAFs,
			// not allocator errors.
			if err := th.Free(obj); err == nil {
				t.Fatal("double free passed")
			} else if vf, ok := err.(*vmem.Fault); !ok || vf.Kind != c.kind {
				t.Fatalf("double free error: %v", err)
			}
			if _, err := th.Realloc(obj, 128); err == nil {
				t.Fatal("realloc of freed pointer passed")
			} else if vf, ok := err.(*vmem.Fault); !ok || vf.Kind != c.kind {
				t.Fatalf("stale realloc error: %v", err)
			}
		})
	}
}

// TestXTagPointerRoundTrip: a tagged pointer is plain data at rest — it
// survives store/load cycles through heap and global memory bit-for-bit and
// still checks correctly afterwards, including after the buffer holding it
// is moved by realloc (a type-unsafe copy).
func TestXTagPointerRoundTrip(t *testing.T) {
	p := proc.New(xtag.New())
	th := p.NewThread()
	obj, _ := th.Malloc(64)
	if vmem.PointerTag(obj) == 0 {
		t.Fatalf("malloc returned untagged pointer 0x%x", obj)
	}
	a := p.AllocGlobal(8)
	th.StorePtr(a, obj)
	v, _ := th.Load(a)
	b, _ := th.Malloc(8)
	th.StorePtr(b, v)
	b, err := th.Realloc(b, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, f := th.Deref(b); f != nil { // load ptr from b, deref it: still live, still tagged
		t.Fatal(f)
	}
	got, _ := th.Load(b)
	if got != obj {
		t.Fatalf("round-tripped pointer = 0x%x, want 0x%x", got, obj)
	}
	if f := th.StoreInt(obj, 42); f != nil {
		t.Fatal(f)
	}
	if v, _ := th.Load(obj); v != 42 {
		t.Fatalf("load through tagged pointer = %d", v)
	}
}

// TestReallocShrinkDropsTail is the in-place-shrink regression for every
// backend: after tcmalloc shrinks a large span in place, the dead tail must
// leave the detector's registry — pointers into it are not invalidated at
// free time (they no longer belong to the object), while the checking
// backends must conversely detect accesses into the dead tail immediately.
func TestReallocShrinkDropsTail(t *testing.T) {
	const (
		oldSize = 512 << 10 // large span (> sizeclass.MaxSmallSize)
		newSize = 320 << 10 // still large: resized in place
		tailOff = 400 << 10 // inside old, beyond new
	)
	run := func(t *testing.T, det detectors.Detector) (th *proc.Thread, obj, headSlot, tailSlot uint64) {
		p := proc.New(det)
		th = p.NewThread()
		obj, err := th.Malloc(oldSize)
		if err != nil {
			t.Fatal(err)
		}
		headSlot, _ = th.Malloc(8) // heap slots: tracked by every backend
		tailSlot, _ = th.Malloc(8)
		th.StorePtr(headSlot, obj+8)
		th.StorePtr(tailSlot, obj+tailOff) // registered before the shrink
		got, err := th.Realloc(obj, newSize)
		if err != nil {
			t.Fatal(err)
		}
		if vmem.StripTag(got) != vmem.StripTag(obj) {
			t.Fatalf("expected in-place shrink, object moved 0x%x -> 0x%x", obj, got)
		}
		return th, obj, headSlot, tailSlot
	}

	t.Run("dangnull", func(t *testing.T) {
		th, obj, headSlot, tailSlot := run(t, dangnull.New())
		// A registration landing in the dead tail after the shrink must
		// find no object.
		lateSlot, _ := th.Malloc(8)
		th.StorePtr(lateSlot, obj+tailOff)
		if err := th.Free(obj); err != nil {
			t.Fatal(err)
		}
		if v, _ := th.Load(headSlot); v != dangnull.InvalidValue {
			t.Fatalf("head ptr = 0x%x, want nullified", v)
		}
		for _, slot := range []uint64{tailSlot, lateSlot} {
			if v, _ := th.Load(slot); v != obj+tailOff {
				t.Fatalf("tail ptr = 0x%x, want untouched 0x%x", v, obj+tailOff)
			}
		}
	})
	t.Run("freesentry", func(t *testing.T) {
		th, obj, headSlot, tailSlot := run(t, freesentry.New())
		lateSlot, _ := th.Malloc(8)
		th.StorePtr(lateSlot, obj+tailOff)
		if err := th.Free(obj); err != nil {
			t.Fatal(err)
		}
		if v, _ := th.Load(headSlot); v != (obj+8)|freesentry.InvalidBit {
			t.Fatalf("head ptr = 0x%x, want invalidated", v)
		}
		for _, slot := range []uint64{tailSlot, lateSlot} {
			if v, _ := th.Load(slot); v != obj+tailOff {
				t.Fatalf("tail ptr = 0x%x, want untouched 0x%x", v, obj+tailOff)
			}
		}
	})
	t.Run("xtag", func(t *testing.T) {
		th, obj, _, tailSlot := run(t, xtag.New())
		// The dead tail carries the freed marker: the stale interior
		// pointer faults now, before the object is even freed.
		if _, f := th.Deref(tailSlot); f == nil || f.Kind != vmem.FaultTagMismatch {
			t.Fatalf("tail deref after shrink: %v", f)
		}
		if _, f := th.Load(obj + 8); f != nil {
			t.Fatalf("head access after shrink: %v", f)
		}
	})
	t.Run("camp", func(t *testing.T) {
		th, obj, _, tailSlot := run(t, camp.New())
		if _, f := th.Deref(tailSlot); f == nil || f.Kind != vmem.FaultFreedRange {
			t.Fatalf("tail deref after shrink: %v", f)
		}
		if _, f := th.Load(obj + 8); f != nil {
			t.Fatalf("head access after shrink: %v", f)
		}
	})
}

// budgeted is a baseline seen through its metadata budget.
type budgeted interface {
	detectors.Detector
	detectors.CoverageLoss
	Charged() uint64
}

// baselines builds each non-dangsan backend with the given budget options.
var baselines = []struct {
	name string
	mk   func(detectors.BudgetOptions) budgeted
	// shadow backends consult the fault plane's ShadowPopulate site.
	shadow bool
}{
	{"dangnull", func(o detectors.BudgetOptions) budgeted { return dangnull.NewWithOptions(o) }, false},
	{"freesentry", func(o detectors.BudgetOptions) budgeted { return freesentry.NewWithOptions(o) }, true},
	{"xtag", func(o detectors.BudgetOptions) budgeted { return xtag.NewWithOptions(o) }, true},
	{"camp", func(o detectors.BudgetOptions) budgeted { return camp.NewWithOptions(o) }, true},
}

// TestBaselinesRefundWhatTheyCharge: every byte a baseline charges is
// refunded when the metadata it paid for goes — at free, when a location is
// re-bound, and on each fail-open path (a failed alloc, a grow the fault
// plane denies) — so once everything is freed Charged() reads 0.
func TestBaselinesRefundWhatTheyCharge(t *testing.T) {
	for _, c := range baselines {
		t.Run(c.name, func(t *testing.T) {
			plane := faultinject.New(1)
			d := c.mk(detectors.BudgetOptions{Faults: plane})
			p := proc.New(d)
			th := p.NewThread()
			malloc := func(n uint64) uint64 {
				ptr, err := th.Malloc(n)
				if err != nil {
					t.Fatal(err)
				}
				return ptr
			}
			realloc := func(ptr, n uint64, inPlace bool) uint64 {
				moved, err := th.Realloc(ptr, n)
				if err != nil {
					t.Fatal(err)
				}
				// A degraded xtag object comes back untagged.
				if same := vmem.StripTag(moved) == vmem.StripTag(ptr); same != inPlace {
					t.Fatalf("realloc to %d: in place = %v, want %v", n, same, inPlace)
				}
				return moved
			}
			g := p.AllocGlobal(8)
			a, b := malloc(64), malloc(64)
			plane.Enable(faultinject.MetaAlloc, 1, 1)
			lost := malloc(64) // the charge fails
			big := malloc(512 << 10)

			th.StorePtr(b, a)
			th.StorePtr(b, big) // re-binds b
			th.StorePtr(a, b)
			th.StorePtr(a+8, lost)
			th.StorePtr(big+8, a)
			th.StorePtr(g, big)
			b = realloc(b, 128, false) // moves: alloc, copy, free
			th.StorePtr(a, b)
			big = realloc(big, 320<<10, true) // shrink
			big = realloc(big, 448<<10, true) // grow over pages it had

			// From here no fresh shadow page can be populated: the span
			// allocated past big fails its population (the shadow backends'
			// failed alloc) and, once freed, is where big's next grow lands,
			// which is denied.
			plane.Enable(faultinject.ShadowPopulate, 1, -1)
			lostBig := malloc(1 << 20)
			if err := th.Free(lostBig); err != nil {
				t.Fatal(err)
			}
			big = realloc(big, 1<<20, true)
			plane.Enable(faultinject.ShadowPopulate, 0, 0)

			for _, ptr := range []uint64{a, b, lost, big} {
				if err := th.Free(ptr); err != nil {
					t.Fatal(err)
				}
			}
			wantDegraded := uint64(1)
			if c.shadow {
				wantDegraded = 3
			}
			if deg, _ := d.Degraded(); deg != wantDegraded {
				t.Fatalf("degraded objects = %d, want %d (a fault path was not reached)", deg, wantDegraded)
			}
			if n := d.Charged(); n != 0 {
				t.Fatalf("Charged() = %d after every object is freed, want 0", n)
			}
		})
	}
}

// TestBaselineChurnStaysInBudget: an alloc/free churn whose charges over its
// lifetime far exceed MaxMetadataBytes, but whose live set fits, never
// degrades an object or drops a registration.
func TestBaselineChurnStaysInBudget(t *testing.T) {
	for _, c := range baselines {
		t.Run(c.name, func(t *testing.T) {
			d := c.mk(detectors.BudgetOptions{MaxMetadataBytes: 1 << 10})
			p := proc.New(d)
			th := p.NewThread()
			g := p.AllocGlobal(8)
			for i := 0; i < 200; i++ {
				x, _ := th.Malloc(64)
				y, _ := th.Malloc(64)
				th.StorePtr(y, x)
				th.StorePtr(g, y)
				if err := th.Free(x); err != nil {
					t.Fatal(err)
				}
				if err := th.Free(y); err != nil {
					t.Fatal(err)
				}
			}
			if deg, dropped := d.Degraded(); deg != 0 || dropped != 0 {
				t.Fatalf("Degraded() = (%d, %d) with a live set inside the budget, want (0, 0)", deg, dropped)
			}
			if n := d.Charged(); n != 0 {
				t.Fatalf("Charged() = %d after every object is freed, want 0", n)
			}
		})
	}
}

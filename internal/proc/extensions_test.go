package proc_test

import (
	"testing"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
)

// Without the memcpy hook, pointers copied type-unsafely escape tracking —
// the §7 limitation shared with FreeSentry and DangNULL.
func TestMemcpyUntrackedByDefault(t *testing.T) {
	p := proc.New(dangsan.New())
	th := p.NewThread()
	obj, _ := th.Malloc(64)
	src, _ := th.Malloc(8)
	dst, _ := th.Malloc(8)
	th.StorePtr(src, obj)
	if f := th.Memcpy(dst, src, 8); f != nil {
		t.Fatal(f)
	}
	th.Free(obj)
	// The original copy is invalidated; the memcpy'd copy dangles.
	if v, _ := th.Load(src); v != obj|pointerlog.InvalidBit {
		t.Fatalf("src = 0x%x", v)
	}
	if v, _ := th.Load(dst); v != obj {
		t.Fatalf("dst = 0x%x, want untouched dangling pointer", v)
	}
}

// With the hook enabled, the copied pointer is re-registered and
// invalidated like any other (the extension the paper sketches).
func TestMemcpyHookClosesTheGap(t *testing.T) {
	p := proc.New(dangsan.New())
	if !p.EnableMemcpyHook() {
		t.Fatal("dangsan does not implement the hook")
	}
	th := p.NewThread()
	obj, _ := th.Malloc(64)
	src, _ := th.Malloc(32)
	dst, _ := th.Malloc(32)
	th.StorePtr(src+8, obj+16)
	th.StoreInt(src+16, 12345) // non-pointer data travels too
	if f := th.Memcpy(dst, src, 32); f != nil {
		t.Fatal(f)
	}
	th.Free(obj)
	if v, _ := th.Load(dst + 8); v != (obj+16)|pointerlog.InvalidBit {
		t.Fatalf("copied pointer = 0x%x, want invalidated", v)
	}
	if v, _ := th.Load(dst + 16); v != 12345 {
		t.Fatalf("copied integer = %d, want 12345", v)
	}
}

// Realloc moves are internally a memcpy: with the hook on, pointers stored
// inside a moved buffer stay protected.
func TestReallocMoveWithMemcpyHook(t *testing.T) {
	p := proc.New(dangsan.New())
	p.EnableMemcpyHook()
	th := p.NewThread()
	target, _ := th.Malloc(64)
	buf, _ := th.Malloc(64)
	th.StorePtr(buf, target) // pointer stored inside the buffer
	moved, err := th.Realloc(buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if moved == buf {
		t.Skip("realloc did not move")
	}
	th.Free(target)
	if v, _ := th.Load(moved); v != target|pointerlog.InvalidBit {
		t.Fatalf("pointer inside moved buffer = 0x%x, want invalidated", v)
	}
	th.Free(moved)
}

func TestMemcpyHookUnsupportedDetector(t *testing.T) {
	p := proc.New(detectors.None{})
	if p.EnableMemcpyHook() {
		t.Fatal("baseline claims memcpy hook support")
	}
}

func TestZeroOnFree(t *testing.T) {
	p := proc.New(detectors.None{})
	p.EnableZeroOnFree()
	th := p.NewThread()
	obj, _ := th.Malloc(64)
	th.StoreInt(obj, 0xDEAD)
	th.StoreInt(obj+56, 77)
	if err := th.Free(obj); err != nil {
		t.Fatal(err)
	}
	// The memory (still mapped, not yet reused) reads as zero: the secret
	// is gone even though the allocation was recycled, the secure
	// deallocation property.
	for off := uint64(0); off < 64; off += 8 {
		if v, _ := p.AddressSpace().LoadWord(obj + off); v != 0 {
			t.Fatalf("word +%d = 0x%x after zeroing free", off, v)
		}
	}
}

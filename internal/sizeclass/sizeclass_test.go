package sizeclass

import (
	"testing"
	"testing/quick"
)

func TestClassTableInvariants(t *testing.T) {
	if NumClasses() < 20 {
		t.Fatalf("suspiciously few classes: %d", NumClasses())
	}
	prev := uint64(0)
	for c := 0; c < NumClasses(); c++ {
		cl := ForClass(c)
		if cl.Size <= prev {
			t.Fatalf("class %d size %d not increasing (prev %d)", c, cl.Size, prev)
		}
		prev = cl.Size
		if cl.Align == 0 || cl.Align&(cl.Align-1) != 0 {
			t.Fatalf("class %d alignment %d not a power of two", c, cl.Align)
		}
		if cl.Size%cl.Align != 0 {
			t.Fatalf("class %d size %d not a multiple of alignment %d", c, cl.Size, cl.Align)
		}
		if cl.Pages < 1 {
			t.Fatalf("class %d has %d pages", c, cl.Pages)
		}
		spanBytes := uint64(cl.Pages) * PageSize
		if cl.ObjectsPerSpan != int(spanBytes/cl.Size) {
			t.Fatalf("class %d objectsPerSpan mismatch", c)
		}
		if cl.ObjectsPerSpan < 1 {
			t.Fatalf("class %d holds no objects", c)
		}
		// The waste heuristic: at most 1/8 of the span unusable.
		waste := spanBytes % cl.Size
		if waste > spanBytes/8 {
			t.Fatalf("class %d wastes %d of %d bytes", c, waste, spanBytes)
		}
	}
	if ForClass(NumClasses()-1).Size != MaxSmallSize {
		t.Fatalf("last class size = %d, want %d", ForClass(NumClasses()-1).Size, MaxSmallSize)
	}
}

func TestSizeToClassExact(t *testing.T) {
	// Every class size must map to its own class.
	for c := 0; c < NumClasses(); c++ {
		if got := SizeToClass(ForClass(c).Size); got != c {
			t.Fatalf("SizeToClass(%d) = %d, want %d", ForClass(c).Size, got, c)
		}
	}
}

func TestSizeToClassBounds(t *testing.T) {
	cases := []uint64{1, 7, 8, 9, 16, 100, 1024, 1025, 4096, 100000, MaxSmallSize}
	for _, size := range cases {
		c := SizeToClass(size)
		cl := ForClass(c)
		if cl.Size < size {
			t.Errorf("SizeToClass(%d) -> class size %d is too small", size, cl.Size)
		}
		if c > 0 && ForClass(c-1).Size >= size {
			t.Errorf("SizeToClass(%d) -> class %d, but class %d (size %d) suffices",
				size, c, c-1, ForClass(c-1).Size)
		}
	}
}

func TestSizeToClassPanics(t *testing.T) {
	for _, size := range []uint64{0, MaxSmallSize + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SizeToClass(%d) did not panic", size)
				}
			}()
			SizeToClass(size)
		}()
	}
}

// Property: SizeToClass returns the tightest class for every size, and the
// class size never shrinks a request and wastes at most 25% + alignment. The
// alignment ladder steps by 12.5%, but merging classes whose spans hold the
// same number of objects can double a step (8193 bytes get a 10240-byte class).
func TestSizeToClassProperty(t *testing.T) {
	f := func(raw uint32) bool {
		size := uint64(raw)%MaxSmallSize + 1
		c := SizeToClass(size)
		cl := ForClass(c)
		if cl.Size < size {
			return false
		}
		if c > 0 && ForClass(c-1).Size >= size {
			return false
		}
		return cl.Size-size <= size/4+MinAlign
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

package workloads

import (
	"strings"
	"testing"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/proc"
)

// The paper's §9 comparison of defense classes, as executable claims.

func TestQuarantineStopsNaiveUAF(t *testing.T) {
	p := proc.New(detectors.NewSecureAllocator(1 << 20)) // 1 MiB quarantine
	out, err := HeapSpray(p, 4)                          // too few allocations to flush it
	if err != nil {
		t.Fatal(err)
	}
	if !out.Prevented {
		t.Fatalf("quarantine failed against naive reuse: %s", out.Detail)
	}
}

func TestHeapSprayDefeatsQuarantine(t *testing.T) {
	p := proc.New(detectors.NewSecureAllocator(1 << 20))
	out, err := HeapSpray(p, 2000) // ~8 MiB of spray flushes 1 MiB quarantine
	if err != nil {
		t.Fatal(err)
	}
	if out.Prevented {
		t.Fatalf("spray did not defeat the quarantine: %s", out.Detail)
	}
	if !strings.Contains(out.Detail, "attacker marker") {
		t.Fatalf("unexpected detail: %s", out.Detail)
	}
}

func TestDangSanStopsHeapSprayToo(t *testing.T) {
	// Pointer invalidation does not care about reuse at all: however hard
	// the attacker sprays, the dangling pointer is already dead.
	p := proc.New(dangsan.New())
	out, err := HeapSpray(p, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Prevented {
		t.Fatalf("dangsan failed: %s", out.Detail)
	}
	if !strings.Contains(out.Detail, "non-canonical") {
		t.Fatalf("expected a fault, got: %s", out.Detail)
	}
}

func TestQuarantineDoubleFreeDetection(t *testing.T) {
	sa := detectors.NewSecureAllocator(1 << 20)
	p := proc.New(sa)
	th := p.NewThread()
	obj, _ := th.Malloc(64)
	if err := th.Free(obj); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(obj); err == nil {
		t.Fatal("double free while quarantined not detected")
	}
	p.Quiesce()
	if sa.Quarantined(obj) {
		t.Fatal("object still quarantined after Quiesce")
	}
	// The object is genuinely free now: reallocatable.
	if _, err := th.Malloc(64); err != nil {
		t.Fatal(err)
	}
}

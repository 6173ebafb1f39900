package pointerlog

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dangsan/internal/vmem"
)

func auditedLogger() *Logger {
	cfg := DefaultConfig()
	cfg.Audit = true
	return NewLogger(cfg)
}

// TestAuditFreeNamesMischargedObject: a log whose charge disagrees with its
// structures is reported at its object's free, by the object's base and
// both byte counts, and a correctly charged object freed beside it is not.
func TestAuditFreeNamesMischargedObject(t *testing.T) {
	lg := auditedLogger()
	good, gh := lg.MustCreateMeta(vmem.HeapBase, 64)
	bad, bh := lg.MustCreateMeta(vmem.HeapBase+4096, 64)
	for i := uint64(0); i < 40; i++ {
		lg.Register(good, vmem.GlobalsBase+i*64, 0)
		lg.Register(bad, vmem.GlobalsBase+i*64, 1)
	}
	walked, charged := bad.logFootprint()
	if walked != charged {
		t.Fatalf("before the mischarge: walked %d B, charged %d B", walked, charged)
	}
	bad.logs.Load().charged.Add(8)

	lg.ReleaseMeta(gh)
	if v := lg.AuditViolations(); len(v) != 0 {
		t.Fatalf("a correctly charged free was reported: %v", v)
	}
	lg.ReleaseMeta(bh)
	want := fmt.Sprintf("free of object %#x: walked %d B, its logs were charged %d B", bad.Base(), walked, charged+8)
	if v := lg.AuditViolations(); len(v) != 1 || !strings.Contains(v[0], want) {
		t.Fatalf("violations %q, want one containing %q", v, want)
	}
}

// TestAuditRegistryWalkMatchesLiveSet: the global check's walk over the
// registry measures exactly the objects still live — a released meta adds
// nothing, a recycled one only its new logs — on the seed-golden workload.
func TestAuditRegistryWalkMatchesLiveSet(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 64)
	lg := auditedLogger()
	goldenWorkload(lg, as)
	if got, want := lg.MeasureLiveLogBytes(), uint64(goldenLogBytes-goldenFoldedBytes); got != want {
		t.Fatalf("registry walk %d B, want the golden %d B", got, want)
	}

	// Release two of the eight golden objects, then recycle one of their
	// metas for a new object with its own log.
	live := map[uint64]*ObjectMeta{}
	for h := uint64(1); h <= 8; h++ {
		live[h] = lg.MetaAt(h)
	}
	for _, h := range []uint64{3, 6} {
		lg.ReleaseMeta(h)
		delete(live, h)
	}
	m, h := lg.MustCreateMeta(vmem.HeapBase+40*4096, 4096)
	if h != 6 {
		t.Fatalf("recycled handle %d, want 6", h)
	}
	for i := uint64(0); i < 30; i++ {
		lg.Register(m, vmem.GlobalsBase+i*8, 2)
	}
	live[h] = m

	var want uint64
	for _, meta := range live {
		fp, _ := meta.logFootprint()
		want += fp
	}
	if got := lg.MeasureLiveLogBytes(); got != want {
		t.Fatalf("registry walk %d B, the live objects' walks %d B", got, want)
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatal(err)
	}
	if v := lg.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit violations: %v", v)
	}
}

// TestAuditConcurrentFirstTouches: threads racing to push their first log
// onto the same objects — so some compare-and-swaps lose — leave every log
// charged exactly once, by each object's free and by the global identity.
func TestAuditConcurrentFirstTouches(t *testing.T) {
	const threads, objects = 4, 5000
	lg := auditedLogger()
	for i := 0; i < objects; i++ {
		m, h := lg.MustCreateMeta(vmem.HeapBase+uint64(i)*64, 64)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for tid := int32(0); tid < threads; tid++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				lg.Register(m, vmem.GlobalsBase+uint64(tid)*8, tid)
			}()
		}
		close(start)
		wg.Wait()
		if i%2 == 0 {
			lg.ReleaseMeta(h)
		}
	}
	if v := lg.AuditViolations(); len(v) != 0 {
		t.Errorf("%d audit violations at frees, first: %s", len(v), v[0])
	}
	if err := lg.AuditCheck(); err != nil {
		t.Error(err)
	}
}

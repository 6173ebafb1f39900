package proc_test

import (
	"runtime"
	"testing"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/proc"
)

// buildAndTouch builds a process under det and runs one thread through one
// malloc, one pointer store and one free: the smallest process that reaches
// every detector structure once.
func buildAndTouch(tb testing.TB, det detectors.Detector) {
	p := proc.New(det)
	th := p.NewThread()
	obj, err := th.Malloc(64)
	if err != nil {
		tb.Fatal(err)
	}
	if f := th.StorePtr(p.AllocGlobal(8), obj); f != nil {
		tb.Fatal(f)
	}
	if err := th.Free(obj); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkNewProcess is the construction cost every benchmark pass,
// differ cell and failover respawn pays before its first instruction.
func BenchmarkNewProcess(b *testing.B) {
	for _, c := range []struct {
		name string
		det  func() detectors.Detector
	}{
		{"dangsan", func() detectors.Detector { return dangsan.New() }},
		{"none", func() detectors.Detector { return detectors.None{} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildAndTouch(b, c.det())
			}
		})
	}
}

// TestNewProcessAllocatesLittle pins that a dangsan process is built in
// proportion to what it touches: the shadow arena and the metadata registry
// reserve 2.5 MiB of index space between them, but a process that stores one
// pointer backs only the pieces that pointer reaches.
func TestNewProcessAllocatesLittle(t *testing.T) {
	const iters, limit = 20, 1 << 20
	buildAndTouch(t, dangsan.New()) // warm package-level state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		buildAndTouch(t, dangsan.New())
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / iters; per > limit {
		t.Fatalf("a one-store dangsan process allocates %d bytes, want <= %d", per, limit)
	}
}

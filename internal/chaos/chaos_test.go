package chaos

import (
	"testing"
	"time"

	"dangsan/internal/workloads"
)

// testConfig keeps chaos cells quick enough for the race detector.
func testConfig() Config {
	return Config{
		Workers:  4,
		Requests: 120,
		Timeout:  90 * time.Second,
	}
}

// TestSweepInvariants is the chaos acceptance gate: a rate × seed grid of
// cells, each running the server workload concurrently and audited plus the
// exploit suite, with zero invariant violations — no false UAF, no hangs,
// no panics, no audit drift, no missed detections at full coverage.
func TestSweepInvariants(t *testing.T) {
	rates := []float64{0.02, 0.1, 0.3}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		rates = rates[:2]
		seeds = seeds[:2]
	}
	results := Sweep(testConfig(), rates, seeds, Run)
	for _, v := range Failed(results) {
		t.Error(v)
	}
	var injected uint64
	for _, r := range results {
		injected += r.Injected
		t.Logf("rate=%g seed=%d: %.3fs completed=%v oom=%v injected=%d degraded=%d dropped=%d",
			r.Rate, r.Seed, r.Seconds, r.Completed, r.OOMAborted, r.Injected, r.Degraded, r.Dropped)
	}
	if injected == 0 {
		t.Fatal("sweep injected nothing; the plane is not wired in")
	}
}

// TestZeroRateCellIsClean: with the plane armed at rate 0 nothing is
// injected, nothing degrades, and the run completes with full detection.
func TestZeroRateCellIsClean(t *testing.T) {
	r := Run(testConfig(), 0, 1)
	if len(r.Violations) != 0 {
		t.Fatalf("violations at rate 0: %v", r.Violations)
	}
	if !r.Completed || r.OOMAborted {
		t.Fatalf("rate-0 run should complete: completed=%v oom=%v", r.Completed, r.OOMAborted)
	}
	if r.Injected != 0 || r.Degraded != 0 || r.Dropped != 0 {
		t.Fatalf("rate-0 run should be untouched: injected=%d degraded=%d dropped=%d",
			r.Injected, r.Degraded, r.Dropped)
	}
	for _, e := range r.Exploits {
		if e.Skipped || !e.Prevented {
			t.Errorf("exploit %s at rate 0: skipped=%v prevented=%v (%s)",
				e.Name, e.Skipped, e.Prevented, e.Detail)
		}
	}
}

// TestMetadataPressureDegradesGracefully: a tiny MaxMetadataBytes budget
// (no injected faults at all) must push the detector into degraded mode —
// the server still completes every request, objects simply go untracked.
func TestMetadataPressureDegradesGracefully(t *testing.T) {
	cfg := testConfig()
	cfg.MaxMetadataBytes = 64 << 10
	cfg.SkipExploits = true // coverage is expected to be lost here
	r := Run(cfg, 0, 1)
	if len(r.Violations) != 0 {
		t.Fatalf("violations under metadata pressure: %v", r.Violations)
	}
	if !r.Completed {
		t.Fatalf("server must finish degraded instead of failing: oom=%v", r.OOMAborted)
	}
	if r.Degraded == 0 {
		t.Fatal("tiny metadata budget produced no degraded objects")
	}
}

// TestSweepGridShape: Sweep runs every cell of the grid.
func TestSweepGridShape(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 20
	cfg.Workers = 2
	cfg.SkipExploits = true
	results := Sweep(cfg, []float64{0, 0.5}, []int64{7, 8, 9}, Run)
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	seen := map[[2]int64]bool{}
	for _, r := range results {
		seen[[2]int64{int64(r.Rate * 10), r.Seed}] = true
	}
	if len(seen) != 6 {
		t.Fatalf("cells not distinct: %v", seen)
	}
}

// TestProfileOverride: a custom profile flows through to the runs.
func TestProfileOverride(t *testing.T) {
	prof, err := workloads.ServerProfileByName("cherokee")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Profile = prof
	cfg.Requests = 20
	cfg.SkipExploits = true
	r := Run(cfg, 0.05, 42)
	if len(r.Violations) != 0 {
		t.Fatalf("cherokee cell violations: %v", r.Violations)
	}
}

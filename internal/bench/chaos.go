package bench

import (
	"fmt"
	"strings"

	"dangsan/internal/chaos"
)

// runChaos sweeps the fault-injection grid and returns an error on any
// broken fail-open invariant. FaultRate/FaultSeed, when set, replace the
// default grid with a single cell axis; Scale scales the request count. The
// cold-tier stages run at chaos.Config's own defaults.
func runChaos(s *Session) (*Result, error) {
	rates := []float64{0.02, 0.1, 0.3}
	if s.FaultRate > 0 {
		rates = []float64{s.FaultRate}
	}
	seeds := []int64{1, 2, 3}
	if s.FaultSeed != 0 {
		seeds = []int64{s.FaultSeed}
	}
	cfg := chaos.Config{
		Requests:         max(int(300*s.Scale), 50),
		HeapBytes:        s.HeapBytes,
		MaxMetadataBytes: s.MaxMetadataBytes,
		Budget:           s.FaultBudget,
	}
	results := chaos.Sweep(cfg, rates, seeds)
	t := Table{
		Title: "Chaos sweep: fail-open invariants under injected resource failure",
		Head:  []string{"rate", "seed", "req/s", "completed", "oom", "injected", "degraded", "dropped", "violations"},
	}
	for _, r := range results {
		rps := "-"
		if r.Seconds > 0 && r.Completed {
			rps = fmt.Sprintf("%.0f", float64(cfg.Requests)/r.Seconds)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(r.Rate), fmt.Sprint(r.Seed), rps,
			fmt.Sprint(r.Completed), fmt.Sprint(r.OOMAborted), fmt.Sprint(r.Injected),
			fmt.Sprint(r.Degraded), fmt.Sprint(r.Dropped), fmt.Sprint(len(r.Violations))})
	}
	var err error
	if failures := chaos.Failed(results); len(failures) > 0 {
		err = fmt.Errorf("chaos: %d invariant violations:\n%s", len(failures), strings.Join(failures, "\n"))
	} else {
		t.Notes = []string{"all invariants held"}
	}
	return &Result{Tables: []Table{t}, Key: "chaos", Data: results}, err
}

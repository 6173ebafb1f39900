package bench

import (
	"fmt"
	"time"

	"dangsan/internal/differ"
)

// FuzzResult is one differential-fuzzing sweep: the differ's report plus the
// wall-clock cost, so the experiment can quote a programs/second rate
// alongside its verdict.
type FuzzResult struct {
	Report  differ.SweepReport
	Seconds float64
}

// Clean reports whether the sweep is clean: no divergence in any benign
// matrix cell and every mutation cell caught its injected dangling use.
func (r FuzzResult) Clean() bool {
	return len(r.Report.Divergences) == 0 &&
		r.Report.MutationDetected == r.Report.MutationDetectors
}

// runFuzz runs the differential-fuzzing experiment: Scale*500 seeds (minimum
// 50) starting at Seed, each swept through the full mode x detector x config
// matrix plus its mutated (known-dangling) variant. Options that shape the
// simulated process (fault injection, metadata caps) do not apply here — the
// differ owns its configurations so the oracle stays exact. The sweep summary
// lists every divergence (each one is a bug in the toolchain or the oracle,
// so none are elided); an unclean sweep is also the returned error.
func runFuzz(s *Session) (*Result, error) {
	seeds := max(int(500*s.Scale), 50)
	s.Progress(fmt.Sprintf("fuzz: sweeping %d seeds from %d", seeds, s.Seed))
	start := time.Now()
	rep := differ.Sweep(differ.SweepOptions{Start: s.Seed, Seeds: seeds, Mutate: true})
	r := FuzzResult{Report: rep, Seconds: time.Since(start).Seconds()}

	det := "-"
	if rep.MutationDetectors > 0 {
		det = fmt.Sprintf("%d/%d (%.1f%%)", rep.MutationDetected, rep.MutationDetectors,
			100*float64(rep.MutationDetected)/float64(rep.MutationDetectors))
	}
	t := Table{
		Title: "Differential fuzzing: generated programs vs cross-detector oracle",
		Head:  []string{"seeds", "matrix runs", "programs/s", "runs/s", "mutation detection", "divergences"},
		Rows: [][]string{{fmt.Sprint(rep.Seeds), fmt.Sprint(rep.Runs),
			fmt.Sprintf("%.1f", float64(rep.Seeds)/r.Seconds), fmt.Sprintf("%.0f", float64(rep.Runs)/r.Seconds),
			det, fmt.Sprint(len(rep.Divergences))}},
	}
	for _, d := range rep.Divergences {
		t.Notes = append(t.Notes, fmt.Sprintf("divergence: seed=%d run=%s: %s", d.Seed, d.Run, d.Msg))
	}
	res := &Result{Tables: []Table{t}, Key: "fuzz", Data: r}
	if !r.Clean() {
		return res, fmt.Errorf("fuzz: %d divergences, %d/%d mutations detected",
			len(rep.Divergences), rep.MutationDetected, rep.MutationDetectors)
	}
	return res, nil
}

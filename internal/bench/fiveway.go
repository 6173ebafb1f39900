package bench

import (
	"fmt"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/backends"
	"dangsan/internal/detectors/camp"
	"dangsan/internal/detectors/xtag"
	"dangsan/internal/instrument"
	"dangsan/internal/interp"
	"dangsan/internal/ir/opt"
	"dangsan/internal/irgen"
	"dangsan/internal/irparse"
)

// CheckPathStats are the check-path counters of a checked-dereference
// backend after one benign run. Objects is xtag's tagged / camp's tracked
// count, Checks the dereference checks actually performed, Faults the traps
// raised (must be 0 on a benign workload — runFiveWay fails otherwise), and
// Degraded the fail-open coverage losses.
type CheckPathStats struct {
	Objects    uint64 `json:"objects"`
	Checks     uint64 `json:"checks"`
	Faults     uint64 `json:"faults"`
	Tombstones uint64 `json:"tombstones,omitempty"` // camp only
	Degraded   uint64 `json:"degraded"`
}

// FiveWayRow is one SPEC analog's measurements across the full five-way
// detector matrix, with the checked-dereference backends' dynamic check
// counters alongside the timings.
type FiveWayRow struct {
	Benchmark string           `json:"benchmark"`
	Seconds   map[Kind]float64 `json:"seconds"`
	Footprint map[Kind]uint64  `json:"peak_footprint"`
	XTag      CheckPathStats   `json:"xtag"`
	CAMP      CheckPathStats   `json:"camp"`
}

// ElisionStats summarize the camp check-elision ablation over a seed sweep
// of generated programs: the static pass's emitted-vs-elided split, and the
// dynamic checks camp actually performed running each program with elision
// off and on. DynamicAvoided = DynamicChecks - DynamicChecksOpt is the
// run-time work the static proof saved.
type ElisionStats struct {
	Seeds int `json:"seeds"`
	// Static counts, from instrument.Pass with ElideDerefChecks on.
	DerefChecks  int `json:"deref_checks_emitted"`
	ElidedChecks int `json:"deref_checks_elided"`
	// Dynamic camp check counts: unoptimized vs elision-optimized runs.
	DynamicChecks    uint64 `json:"dynamic_checks"`
	DynamicChecksOpt uint64 `json:"dynamic_checks_opt"`
}

// FiveWayReport is the five-way ablation artifact: overhead rows per SPEC
// analog plus the camp elision sweep.
type FiveWayReport struct {
	Rows    []FiveWayRow `json:"rows"`
	Elision ElisionStats `json:"elision"`
}

// runFiveWay executes the five-way detector ablation: every SPEC analog
// under baseline, the three pointer-invalidation backends, and the two
// checked-dereference backends (xtag pointer tagging, camp range checks),
// then a seed sweep quantifying how many dereference checks camp's
// instrumentation elision proves away. Benign workloads must not trap:
// any xtag mismatch or camp fault fails the run.
func runFiveWay(s *Session) (*Result, error) {
	jobs := s.specJobs(backends.All())
	rep := &FiveWayReport{Rows: make([]FiveWayRow, len(jobs))}
	grid, err := s.runGrid("fiveway ", jobs, func(i int, det detectors.Detector) error {
		row := &rep.Rows[i]
		switch d := det.(type) {
		case *xtag.Detector:
			tagged, checks, mismatches := d.Stats()
			deg, _ := d.Degraded()
			row.XTag = CheckPathStats{Objects: tagged, Checks: checks, Faults: mismatches, Degraded: deg}
			if mismatches != 0 {
				return fmt.Errorf("xtag reported %d tag mismatches on a benign workload", mismatches)
			}
		case *camp.Detector:
			tracked, checks, faults, tombstones := d.Stats()
			deg, _ := d.Degraded()
			row.CAMP = CheckPathStats{Objects: tracked, Checks: checks, Faults: faults, Tombstones: tombstones, Degraded: deg}
			if faults != 0 {
				return fmt.Errorf("camp reported %d freed-range faults on a benign workload", faults)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rep.Elision, err = runElisionSweep(s); err != nil {
		return nil, err
	}

	kinds := backends.All()[1:]
	t := Table{
		Title: "Five-way ablation: run-time overhead on SPEC analogs (normalized to baseline)",
		Head:  []string{"benchmark", "baseline(s)", "dangsan", "dangnull", "freesentry", "xtag", "camp"},
	}
	ct := Table{
		Title: "Checked-dereference backends: dynamic check-path counters (benign runs; 0 faults required)",
		Head:  []string{"benchmark", "xtag objs", "xtag checks", "camp objs", "camp checks", "camp tombstones", "degraded"},
	}
	gm := map[Kind][]float64{}
	for i, g := range grid {
		r := &rep.Rows[i]
		r.Benchmark = g.Benchmark
		r.Seconds, r.Footprint = make(map[Kind]float64), make(map[Kind]uint64)
		for k, m := range g.ByKind {
			r.Seconds[k], r.Footprint[k] = m.Seconds, m.PeakFootprint
		}
		t.Rows = append(t.Rows, slowdowns(g, kinds, gm))
		ct.Rows = append(ct.Rows, []string{r.Benchmark,
			fmt.Sprint(r.XTag.Objects), fmt.Sprint(r.XTag.Checks),
			fmt.Sprint(r.CAMP.Objects), fmt.Sprint(r.CAMP.Checks), fmt.Sprint(r.CAMP.Tombstones),
			fmt.Sprint(r.XTag.Degraded + r.CAMP.Degraded)})
	}
	for _, k := range kinds {
		t.Notes = append(t.Notes, fmt.Sprintf("geomean %-10s %.2fx", k, Geomean(gm[k])))
	}

	e := rep.Elision
	total := e.DerefChecks + e.ElidedChecks
	staticPct, dynPct := 0.0, 0.0
	if total > 0 {
		staticPct = 100 * float64(e.ElidedChecks) / float64(total)
	}
	if e.DynamicChecks > 0 {
		dynPct = 100 * float64(e.DynamicChecks-e.DynamicChecksOpt) / float64(e.DynamicChecks)
	}
	elision := Table{Title: fmt.Sprintf("CAMP check elision over %d generated programs: %d/%d static checks proved safe (%.1f%%), dynamic checks %d -> %d (-%.1f%%)",
		e.Seeds, e.ElidedChecks, total, staticPct, e.DynamicChecks, e.DynamicChecksOpt, dynPct)}
	return &Result{Tables: []Table{t, ct, elision}, Key: "fiveway", Data: rep}, nil
}

// runElisionSweep runs generated programs under camp twice — once with every
// load/store checked, once after the ElideDerefChecks proof — and counts the
// static and dynamic checks the elision removes. Outputs and traps must
// agree between the two runs (the programs are benign: no traps at all).
func runElisionSweep(s *Session) (ElisionStats, error) {
	stats := ElisionStats{Seeds: max(int(50*s.Scale), 10)}
	for i := 0; i < stats.Seeds; i++ {
		seed := s.Seed*1000 + int64(i)
		if i%10 == 0 {
			s.Progress(fmt.Sprintf("fiveway elision seed %d/%d", i, stats.Seeds))
		}
		prog := irgen.Generate(seed, irgen.Config{})
		for _, elide := range []bool{false, true} {
			m, err := irparse.Parse(prog.Source)
			if err != nil {
				return stats, fmt.Errorf("fiveway elision seed %d: parse: %w", seed, err)
			}
			if _, err := opt.Optimize(m); err != nil {
				return stats, fmt.Errorf("fiveway elision seed %d: optimize: %w", seed, err)
			}
			iopts := instrument.DefaultOptions()
			iopts.ElideDerefChecks = elide
			res, err := instrument.Pass(m, iopts)
			if err != nil {
				return stats, fmt.Errorf("fiveway elision seed %d: instrument: %w", seed, err)
			}
			det := camp.New()
			rt := interp.New(m, det, interp.Options{})
			r, err := rt.Run()
			if err != nil {
				return stats, fmt.Errorf("fiveway elision seed %d: run: %w", seed, err)
			}
			if r.Trap != nil {
				return stats, fmt.Errorf("fiveway elision seed %d (elide=%v): benign program trapped: %v", seed, elide, r.Trap)
			}
			_, checks, faults, _ := det.Stats()
			if faults != 0 {
				return stats, fmt.Errorf("fiveway elision seed %d (elide=%v): camp reported %d faults on a benign program", seed, elide, faults)
			}
			if elide {
				stats.DerefChecks += res.DerefChecks
				stats.ElidedChecks += res.ElidedChecks
				stats.DynamicChecksOpt += checks
			} else {
				stats.DynamicChecks += checks
			}
		}
	}
	return stats, nil
}

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// compareRow is one (workload, metric) comparison of a new result set
// against a base one.
type compareRow struct {
	Workload string
	Metric   metricSpec
	Base     float64
	New      float64
	Worse    float64 // share of Base by which New is worse (negative: better)
	Bound    float64
	Gated    bool // false: reported only (see compareSuites)
	Fail     bool
}

// worseBy returns how much worse v is than base, as a share of base, for a
// metric with the given direction.
func worseBy(better string, base, v float64) float64 {
	d := v - base
	if better == "higher" {
		d = -d
	}
	if base == 0 {
		if d > 0 {
			return 1
		}
		return 0
	}
	return d / base
}

// compareSuites checks every end-to-end metric of every workload present
// in both sets, the share of failed ops among them. The bounds on timings,
// rates and peak RSS were calibrated at full size; at another scale a run
// lasts a fraction of a second and those metrics are reported, not gated —
// footprint_bytes and the metrics that may not worsen at all still are.
func compareSuites(base, next suiteResult) []compareRow {
	var rows []compareRow
	byName := map[string]workloadResult{}
	for _, r := range next.Workloads {
		byName[r.Workload] = r
	}
	for _, b := range base.Workloads {
		n, ok := byName[b.Workload]
		if !ok {
			continue
		}
		for _, m := range endToEndSpecs {
			if !m.appliesTo(b.Workload) {
				continue
			}
			bv, bok := b.EndToEnd[m.Name]
			nv, nok := n.EndToEnd[m.Name]
			if !bok || !nok {
				continue
			}
			row := compareRow{Workload: b.Workload, Metric: m, Base: bv.Value, New: nv.Value, Bound: m.boundFor(b.Workload)}
			row.Worse = worseBy(m.Better, bv.Value, nv.Value)
			row.Gated = base.Scale == 1 || row.Bound == 0 || m.Name == "footprint_bytes"
			// A zero bound is absolute: any worsening fails.
			row.Fail = row.Gated && row.Worse > row.Bound
			rows = append(rows, row)
		}
	}
	return rows
}

func printCompare(w io.Writer, rows []compareRow) (failed int) {
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Fprintf(w, "%s\n", r.Workload)
			last = r.Workload
		}
		verdict := "ok"
		switch {
		case r.Fail:
			verdict = "WORSE"
			failed++
		case !r.Gated:
			verdict = "not gated at this scale"
		}
		bound := fmt.Sprintf("%.0f%%", 100*r.Bound)
		if r.Bound == 0 {
			bound = "0 abs"
		}
		fmt.Fprintf(w, "   %-18s base %14.6g %-5s new %14.6g  worse by %+7.2f%% of base (bound %s, %s is better)  %s\n",
			r.Metric.Name, r.Base, r.Metric.Unit, r.New, 100*r.Worse, bound, r.Metric.Better, verdict)
	}
	return failed
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE.json NEW.json")
		return 2
	}
	var base, next suiteResult
	if err := readJSONFile(args[0], &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := readJSONFile(args[1], &next); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if base.Scale != next.Scale || base.Seed != next.Seed {
		fmt.Fprintf(os.Stderr, "benchmark: result sets differ in input (seed %d scale %g vs seed %d scale %g)\n",
			base.Seed, base.Scale, next.Seed, next.Scale)
		return 2
	}
	fmt.Printf("compare: base %s, new %s\n", args[0], args[1])
	if failed := printCompare(os.Stdout, compareSuites(base, next)); failed > 0 {
		fmt.Printf("compare: %d metric(s) worse than their bound\n", failed)
		return 1
	}
	fmt.Println("compare: every end-to-end metric within its bound")
	return 0
}

// selfcheckMain runs two full sets of runs of the current tree and compares
// them both ways: the benchmark must agree with itself within its own
// bounds.
func selfcheckMain(args []string) int {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input generation seed")
	scale := fs.Float64("scale", 1, "size multiplier")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suites, err := runSuites(runFlags{seed: *seed, seconds: nominalSeconds, scale: *scale}, 2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var paths [2]string
	for i, suite := range suites {
		if !suiteCorrect(suite) {
			fmt.Fprintln(os.Stderr, "benchmark: selfcheck: a run failed its correctness checks")
			return 1
		}
		paths[i] = filepath.Join(workRoot, fmt.Sprintf("selfcheck-%d-%d.json", os.Getpid(), i))
		if err := writeJSONFile(paths[i], suite); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		defer os.Remove(paths[i])
	}
	code := compareMain([]string{paths[0], paths[1]})
	if c := compareMain([]string{paths[1], paths[0]}); c != 0 {
		code = c
	}
	return code
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricValue is one measured metric. Min/Max are the extremes over the
// passes or op-count slices behind Value; Samples is how many
// measurements Value summarizes.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	Samples int      `json:"samples,omitempty"`
}

// workloadResult is one workload's outcome; the untraced run fills
// EndToEnd, the traced run PerLayer.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Scale     float64                `json:"scale"`
	Traced    bool                   `json:"traced,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Parity    string                 `json:"parity,omitempty"`
}

func (r *workloadResult) fail(msgs ...string) {
	r.Failed += uint64(len(msgs))
	r.Failures = append(r.Failures, msgs...)
}

func (r *workloadResult) layer(name string, v float64) {
	r.PerLayer[name] = metricValue{Value: v, Unit: layerSpec(name).Unit}
}

// suiteResult is one full set of runs: every workload, untraced and traced.
type suiteResult struct {
	Schema     string           `json:"schema"`
	Seed       int64            `json:"seed"`
	Scale      float64          `json:"scale"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
}

const resultSchema = "dangsan-benchmark/1"

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fmtBound(m metricSpec, workload string) string {
	if m.boundFor(workload) == 0 {
		return "0 abs"
	}
	return fmt.Sprintf("%.0f%%", 100*m.boundFor(workload))
}

func fmtRange(v metricValue) string {
	if v.Min == nil || v.Max == nil {
		return ""
	}
	return fmt.Sprintf("[%.6g .. %.6g]", *v.Min, *v.Max)
}

// printResult prints every metric of one workload result by name, with
// unit, direction, bound and sample count.
func printResult(w io.Writer, r workloadResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, scale %g): attempted %d, failed %d, correct %v\n",
		r.Workload, mode, r.Seed, r.Scale, r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	for _, m := range endToEndSpecs {
		v, ok := r.EndToEnd[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-34s %14.6g %-5s %-6s bound %-6s n=%-8d %s\n",
			m.Name, v.Value, v.Unit, m.Better, fmtBound(m, r.Workload), v.Samples, fmtRange(v))
	}
	for _, name := range perLayerNames {
		v, ok := r.PerLayer[name]
		if !ok || v.Value == 0 {
			continue // not measured on this workload (the result line still carries it)
		}
		m := layerSpec(name)
		fmt.Fprintf(w, "   %-34s %14.6g %-5s %-6s bound -\n", name, v.Value, v.Unit, m.Better)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// contractLine is the driver's result line: the last line of standard
// output of a single-workload run.
func contractLine(r workloadResult) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	if r.Traced {
		for _, name := range perLayerNames {
			v := r.PerLayer[name]
			out.Metrics[name] = mv{v.Value, v.Unit}
		}
	} else {
		for _, m := range endToEndSpecs {
			if !m.Contract {
				continue
			}
			v, ok := r.EndToEnd[m.Name]
			if !ok {
				return "", fmt.Errorf("%s: end-to-end metric %s missing", r.Workload, m.Name)
			}
			out.Metrics[m.Name] = mv{v.Value, v.Unit}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Table is one block of an experiment's output: a title line, an aligned
// table, and the summary lines under it. Any part may be empty; a block with
// no Head is plain text.
type Table struct {
	Title string
	Head  []string
	Rows  [][]string // one cell per Head column
	Notes []string
}

// Result is what every experiment returns: the blocks it prints, and the
// typed rows behind them, which -bench-json records under Key. Experiments
// that render the same run (fig9/fig11, fig10/fig12) share a Key.
type Result struct {
	Tables []Table
	Key    string
	Data   any
}

// String renders the blocks, separated by blank lines. Columns are
// left-aligned and padded to their widest cell, two spaces apart.
func (r *Result) String() string {
	var sb strings.Builder
	for i, t := range r.Tables {
		if i > 0 {
			sb.WriteByte('\n')
		}
		if t.Title != "" {
			sb.WriteString(t.Title + "\n")
		}
		lines := t.Rows
		if t.Head != nil {
			lines = append([][]string{t.Head}, t.Rows...)
		}
		widths := map[int]int{}
		for _, l := range lines {
			for j, c := range l {
				widths[j] = max(widths[j], len(c))
			}
		}
		for _, l := range lines {
			for j, c := range l {
				if j > 0 {
					sb.WriteString("  ")
				}
				fmt.Fprintf(&sb, "%-*s", widths[j], c)
			}
			sb.WriteByte('\n')
		}
		for _, n := range t.Notes {
			sb.WriteString(n + "\n")
		}
	}
	return sb.String()
}

func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

func mib(b uint64) string {
	return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
}

// BenchJSON accumulates experiment results for the machine-readable
// -bench-json document: each experiment that runs adds its typed rows under
// a stable name, and Write emits one indented JSON document. The schema is a
// flat result map so tooling can diff runs without knowing every experiment.
type BenchJSON struct {
	Schema  int            `json:"schema"`
	Results map[string]any `json:"results"`
}

// NewBenchJSON creates an empty collector (schema version 1).
func NewBenchJSON() *BenchJSON {
	return &BenchJSON{Schema: 1, Results: make(map[string]any)}
}

// Add records one experiment's rows under name, overwriting any earlier
// entry with the same name. A nil collector (no -bench-json) ignores it.
func (b *BenchJSON) Add(name string, v any) {
	if b == nil || v == nil {
		return
	}
	b.Results[name] = v
}

// Write marshals the collected results to path ("-" for stdout).
func (b *BenchJSON) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

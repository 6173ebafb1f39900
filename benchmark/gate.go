package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/instrument"
	"dangsan/internal/interp"
	"dangsan/internal/irparse"
	"dangsan/internal/proc"
	"dangsan/internal/workloads"
)

// The correctness gate runs in set-up: the exploit scenarios must be
// stopped under dangsan and the example IR programs must behave as their
// comments say, through the whole irparse + instrument + interp pipeline.
// Each check counts as one attempted op; a failed one counts into
// failed_share.

// repoRoot finds the module root from the working directory, so the gate
// reads examples/programs from a checkout root and from `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// runIR compiles and runs one example program under dangsan.
func runIR(root, name string) (*interp.Result, string, error) {
	src, err := os.ReadFile(filepath.Join(root, "examples", "programs", name))
	if err != nil {
		return &interp.Result{}, "", err
	}
	mod, err := irparse.Parse(string(src))
	if err != nil {
		return &interp.Result{}, "", err
	}
	if _, err := instrument.Pass(mod, instrument.DefaultOptions()); err != nil {
		return &interp.Result{}, "", err
	}
	var out bytes.Buffer
	res, err := interp.New(mod, dangsan.New(), interp.Options{Output: &out}).Run()
	if err != nil {
		return &interp.Result{}, "", err
	}
	return res, out.String(), nil
}

// runGate returns the number of checks made and a description of each one
// that failed.
func runGate() (attempted int, failures []string) {
	check := func(name string, ok bool, detail string) {
		attempted++
		if !ok {
			failures = append(failures, fmt.Sprintf("gate %s: %s", name, detail))
		}
	}

	exploits := []struct {
		name string
		run  func(p *proc.Process) (workloads.ExploitOutcome, error)
	}{
		{"double-free-openssl", workloads.DoubleFreeOpenSSL},
		{"heap-spray", func(p *proc.Process) (workloads.ExploitOutcome, error) { return workloads.HeapSpray(p, 4) }},
		{"uaf-wireshark", workloads.UAFWireshark},
		{"uaf-litespeed", workloads.UAFLitespeed},
	}
	for _, e := range exploits {
		out, err := e.run(proc.New(dangsan.New()))
		check(e.name, err == nil && out.Prevented, fmt.Sprintf("prevented=%v detail=%q err=%v", out.Prevented, out.Detail, err))
	}

	root, err := repoRoot()
	if err != nil {
		check("ir-programs", false, err.Error())
		return attempted, failures
	}
	for _, name := range []string{"uaf.ir", "threads.ir"} {
		res, _, err := runIR(root, name)
		ok := err == nil && res.Trap != nil && res.Trap.Fault != nil
		check(name, ok, fmt.Sprintf("want a fault trap, got trap=%v err=%v", res.Trap, err))
	}
	res, _, err := runIR(root, "doublefree.ir")
	check("doublefree.ir", err == nil && res.Trap != nil && res.Trap.Err != nil,
		fmt.Sprintf("want an allocator abort, got trap=%v err=%v", res.Trap, err))
	res, out, err := runIR(root, "linkedlist.ir")
	check("linkedlist.ir", err == nil && res.Trap == nil && strings.TrimSpace(out) == "4950",
		fmt.Sprintf("want output 4950, got %q trap=%v err=%v", out, res.Trap, err))
	return attempted, failures
}

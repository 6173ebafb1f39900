package differ

import (
	"fmt"

	"dangsan/internal/detectors/backends"
	"dangsan/internal/detectors/dangnull"
	"dangsan/internal/irgen"
	"dangsan/internal/pointerlog"
	"dangsan/internal/vmem"
)

// MutationResult summarizes one seed's mutation sweep: how many detector
// cells were exercised and how many trapped on the injected bug. Detected <
// Detectors is a false negative (also reported in Divergences).
type MutationResult struct {
	Divergences []Divergence
	// Detectors is the number of detector matrix cells exercised (baseline
	// cells excluded — they must NOT trap).
	Detectors int
	// Detected is the number of those cells that trapped on the injected
	// dangling dereference.
	Detected int
}

// CheckMutation generates the mutated variant of seed (one injected
// dangling dereference at the end of main) and asserts the no-false-negative
// contract: the baseline runs to completion — the bug is silent without a
// detector — while every detector in the matrix traps on the stale load,
// with a fault value that proves invalidation happened (address bits plus
// the invalid bit for dangsan/freesentry, the fixed nullification value for
// dangnull). Optimized instrumentation must catch it too: an optimizer that
// elides the registration of the planted pointer would show up here as a
// missed trap.
func CheckMutation(seed int64, cfg irgen.Config) MutationResult {
	cfg.Mutate = true
	prog := irgen.Generate(seed, cfg)
	var res MutationResult
	for _, sp := range MutationSpecs(prog.Multithreaded) {
		trapped, msgs := checkMutationCell(prog, sp)
		if sp.Det != backends.Baseline {
			res.Detectors++
			if trapped {
				res.Detected++
			}
		}
		for _, msg := range msgs {
			res.Divergences = append(res.Divergences, Divergence{Seed: seed, Run: sp.Name(), Msg: msg})
		}
	}
	return res
}

// MutationSpecs returns the matrix cells CheckMutation exercises for a
// program of the given threading; exported so callers can count detection
// opportunities.
func MutationSpecs(multithreaded bool) []Spec {
	var out []Spec
	seen := map[Mode]bool{}
	for _, sp := range Specs(multithreaded) {
		// One dangsan cell per instrumented mode, on the paper's default
		// config, which no sweep config is: the injected bug is caught by
		// the invalidation every config shares.
		if sp.Det == backends.DangSan {
			if seen[sp.Mode] {
				continue
			}
			seen[sp.Mode] = true
			sp.Cfg = pointerlog.DefaultConfig()
		}
		out = append(out, sp)
	}
	return out
}

// checkMutationCell runs one cell of the mutation matrix and reports
// whether the run trapped, plus any contract violations.
func checkMutationCell(prog *irgen.Program, sp Spec) (trapped bool, msgs []string) {
	ex, err := run(prog, sp)
	if err != nil {
		return false, []string{err.Error()}
	}
	fail := func(format string, a ...any) {
		msgs = append(msgs, fmt.Sprintf(format, a...))
	}
	trapped = ex.trap != nil
	// The benign prefix's prints all precede the injected bug, so output is
	// checked in every cell, trapping or not.
	if !int64SlicesEqual(ex.out, prog.Oracle.Output) {
		fail("output %v, want %v", ex.out, prog.Oracle.Output)
	}

	if sp.Det == backends.Baseline {
		// No detector: the dangling load reads recycled memory silently.
		if ex.trap != nil {
			fail("baseline trapped on the injected bug: %v", ex.trap)
		} else if int64(ex.ret) != prog.Oracle.Ret {
			fail("baseline ret %d, want %d", int64(ex.ret), prog.Oracle.Ret)
		}
		return trapped, msgs
	}

	if ex.trap == nil {
		fail("%s missed the injected use-after-free (false negative)", sp.Det)
		return trapped, msgs
	}
	if ex.trap.Fault == nil {
		fail("%s trapped without a memory fault: %v", sp.Det, ex.trap)
		return trapped, msgs
	}
	addr := ex.trap.Fault.Addr
	if sp.Det == backends.DangNULL {
		if addr != dangnull.InvalidValue {
			fail("dangnull fault at 0x%x, want the nullification value 0x%x",
				addr, uint64(dangnull.InvalidValue))
		}
		return trapped, msgs
	}
	if sp.Det == backends.XTag {
		// xtag must detect via a tag mismatch: the fault preserves the full
		// tagged pointer, whose stripped address is the freed object.
		if ex.trap.Fault.Kind != vmem.FaultTagMismatch {
			fail("xtag trapped with %v, want a tag-mismatch fault", ex.trap.Fault)
			return trapped, msgs
		}
		orig, _, tagged := vmem.DecodeTag(addr)
		if !tagged {
			fail("xtag tag-mismatch fault at 0x%x carries no tag", addr)
		} else if !heapRange(orig) {
			fail("xtag fault preserves 0x%x, not a heap address", orig)
		}
		return trapped, msgs
	}
	if sp.Det == backends.CAMP {
		// camp must detect via its freed-range registry: the fault reports
		// the raw accessed address inside the freed extent.
		if ex.trap.Fault.Kind != vmem.FaultFreedRange {
			fail("camp trapped with %v, want a freed-range fault", ex.trap.Fault)
			return trapped, msgs
		}
		if !heapRange(addr) {
			fail("camp freed-range fault at 0x%x outside the heap", addr)
		}
		return trapped, msgs
	}
	orig, invalidated := pointerlog.DecodeFault(addr)
	if !invalidated {
		fail("%s fault at 0x%x is not an invalidated pointer", sp.Det, addr)
	} else if !heapRange(orig) {
		fail("%s invalidated pointer preserves 0x%x, not a heap address", sp.Det, orig)
	}
	return trapped, msgs
}

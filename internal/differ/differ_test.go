package differ

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dangsan/internal/detectors/backends"
	"dangsan/internal/irgen"
	"dangsan/internal/pointerlog"
)

// TestDifferMatrix is the acceptance gate: it sweeps ≥500 seeded programs
// (≥150 under -short) across the full mode × detector × config matrix and
// requires zero divergences, and runs every seed's mutated variant
// requiring 100% detection from every detector.
func TestDifferMatrix(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 150
	}
	var detectors, detected, runs atomic.Int64
	t.Run("seeds", func(t *testing.T) {
		for i := 0; i < seeds; i++ {
			seed := int64(i)
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				t.Parallel()
				cfg := seedConfig(seed)
				for _, d := range CheckSeed(seed, cfg) {
					t.Errorf("benign divergence: %s", d)
				}
				res := CheckMutation(seed, cfg)
				for _, d := range res.Divergences {
					t.Errorf("mutation divergence: %s", d)
				}
				detectors.Add(int64(res.Detectors))
				detected.Add(int64(res.Detected))
				mt := cfg.Threads > 0
				runs.Add(int64(len(Specs(mt)) + len(MutationSpecs(mt))))
			})
		}
	})
	if detected.Load() != detectors.Load() {
		t.Errorf("mutation detection %d/%d: false negatives", detected.Load(), detectors.Load())
	}
	t.Logf("%d seeds, %d matrix runs, mutation detection %d/%d",
		seeds, runs.Load(), detected.Load(), detectors.Load())
}

// TestMatrixShape pins the matrix dimensions so a silently shrunken sweep
// cannot pass as a full one: 14 dangsan configs (incl. 2 tiered cells) × 2
// instrumented modes, 2 dangsan cells with a process extension
// (zero-on-free, memcpy hook), 3 baseline cells, 2 dangnull cells, 2 xtag
// cells, 2 camp cells, and 2 freesentry cells that must disappear exactly
// when the program is multi-threaded.
func TestMatrixShape(t *testing.T) {
	if n := len(DangSanConfigs()); n != 14 {
		t.Fatalf("dangsan configs = %d, want 14", n)
	}
	if n := len(Specs(false)); n != 3+28+2+2+2+2+2 {
		t.Fatalf("single-threaded specs = %d, want 41", n)
	}
	if n := len(Specs(true)); n != 3+28+2+2+2+2 {
		t.Fatalf("multi-threaded specs = %d, want 39", n)
	}
	exts := map[procExt]int{}
	for _, sp := range Specs(true) {
		if sp.Det == backends.FreeSentry {
			t.Fatalf("freesentry cell %s in a multi-threaded matrix", sp.Name())
		}
		if sp.Mode == ModeRef && sp.Det != backends.Baseline {
			t.Fatalf("uninstrumented cell %s with a detector", sp.Name())
		}
		exts[sp.ext]++
	}
	if exts[extZeroOnFree] != 1 || exts[extMemcpyHook] != 1 {
		t.Fatalf("extension cells %v, want one zero-on-free and one memcpy-hook", exts)
	}
}

// TestZeroOnFreeConforms: secure deallocation layered on dangsan keeps every
// oracle clause exact — zeroing follows the free's invalidation, and no cell
// the oracle reads lives in freed memory.
func TestZeroOnFreeConforms(t *testing.T) { checkExtension(t, extZeroOnFree) }

// TestMemcpyHookConforms: the §7 memcpy hook keeps every oracle clause exact,
// invalidation counts included — irgen zeroes pointer fields before a
// realloc, so a move copies no pointer for the hook to re-register.
func TestMemcpyHookConforms(t *testing.T) { checkExtension(t, extMemcpyHook) }

// checkExtension runs one extension cell over the first 30 seeds, which
// cover zero, one and two extra threads (a zero-on-free that wipes 16 bytes
// past the object first shows at seed 11).
func checkExtension(t *testing.T, ext procExt) {
	sp := Spec{Mode: ModeInstr, Det: backends.DangSan, Cfg: pointerlog.DefaultConfig(), ext: ext}
	threaded := false
	for seed := int64(0); seed < 30; seed++ {
		prog := irgen.Generate(seed, seedConfig(seed))
		threaded = threaded || prog.Multithreaded
		for _, msg := range checkCell(prog, sp) {
			t.Errorf("seed %d [%s]: %s", seed, sp.Name(), msg)
		}
	}
	if !threaded {
		t.Fatal("no threaded program among the seeds")
	}
}

// TestCheckerCatchesTampering is the negative control for the oracle
// checker itself: corrupt each oracle clause of a known-good program and
// require the corresponding check to fire. A checker that cannot fail
// proves nothing.
func TestCheckerCatchesTampering(t *testing.T) {
	var prog *irgen.Program
	var seed int64
	// Pick a seed whose program has output, dangling cells, and heap
	// invalidations, so every tampering case has something to corrupt.
	for seed = 0; seed < 500; seed++ {
		p := irgen.Generate(seed, irgen.Config{})
		dangling := false
		for _, c := range p.Oracle.Cells {
			if c.Kind == irgen.CellDangling {
				dangling = true
				break
			}
		}
		if dangling && len(p.Oracle.Output) > 0 && p.Oracle.InvalidatedAll > 0 &&
			p.Oracle.InvalidatedHeap > 0 && p.Oracle.LiveAtExit > 0 {
			prog = p
			break
		}
	}
	if prog == nil {
		t.Fatal("no seed with a rich enough oracle in 0..499")
	}
	sp := Spec{Mode: ModeInstr, Det: backends.DangSan, Cfg: pointerlog.DefaultConfig()}
	if msgs := checkCell(prog, sp); len(msgs) != 0 {
		t.Fatalf("untampered program diverges: %v", msgs)
	}

	cases := []struct {
		name   string
		tamper func(o *irgen.Oracle)
		spec   Spec
	}{
		{"output", func(o *irgen.Oracle) { o.Output[0]++ }, sp},
		{"ret", func(o *irgen.Oracle) { o.Ret++ }, sp},
		{"leak", func(o *irgen.Oracle) { o.LiveAtExit++ }, sp},
		{"invalidated-all", func(o *irgen.Oracle) { o.InvalidatedAll++ }, sp},
		{"tracked-objects", func(o *irgen.Oracle) { o.Mallocs += 5 }, sp},
		{"cell-int", func(o *irgen.Oracle) {
			for i := range o.Cells {
				if o.Cells[i].Kind == irgen.CellInt {
					o.Cells[i].Int += 3
					return
				}
			}
		}, sp},
		{"cell-kind", func(o *irgen.Oracle) {
			for i := range o.Cells {
				if o.Cells[i].Kind == irgen.CellDangling {
					o.Cells[i].Kind = irgen.CellInt
					return
				}
			}
		}, sp},
		{"invalidated-heap", func(o *irgen.Oracle) { o.InvalidatedHeap++ },
			Spec{Mode: ModeInstr, Det: backends.DangNULL}},
		{"xtag-tagged-objects", func(o *irgen.Oracle) { o.Mallocs += 5 },
			Spec{Mode: ModeInstr, Det: backends.XTag}},
		{"camp-tracked-objects", func(o *irgen.Oracle) { o.Mallocs += 5 },
			Spec{Mode: ModeInstr, Det: backends.CAMP}},
		{"xtag-cell-kind", func(o *irgen.Oracle) {
			for i := range o.Cells {
				if o.Cells[i].Kind == irgen.CellDangling {
					o.Cells[i].Kind = irgen.CellInt
					return
				}
			}
		}, Spec{Mode: ModeInstr, Det: backends.XTag}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *prog
			bad.Oracle = *prog.Oracle.Clone()
			tc.tamper(&bad.Oracle)
			if msgs := checkCell(&bad, tc.spec); len(msgs) == 0 {
				t.Errorf("checker missed tampered %s", tc.name)
			}
		})
	}
}

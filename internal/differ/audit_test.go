package differ

import (
	"strings"
	"testing"

	"dangsan/internal/detectors/backends"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/irgen"
)

// withMidRunDrift is a run's real audit view plus the entry a Register
// racing one of the every-free checks would have left behind (the race
// itself cannot be forced: the window is a few instructions wide).
type withMidRunDrift struct{ auditSource }

func (a withMidRunDrift) AuditViolations() []string {
	return append([]string{"pointerlog audit (free): LogBytes=8192 but measured live=8128 + released=0 + spilled=0 = 8128 (drift +64)"},
		a.auditSource.AuditViolations()...)
}

// TestAuditClauseThreadedVsSingle is the regression test for the "audit
// drift" flake of TestDifferMatrix: a drift entry recorded while a threaded
// program's threads ran must not fail the cell, the same entry on a
// single-threaded program must, and an imbalance that is still there at
// the quiescent end must fail a threaded cell too.
func TestAuditClauseThreadedVsSingle(t *testing.T) {
	sp := Spec{Mode: ModeInstr, Det: backends.DangSan, Cfg: DangSanConfigs()[0]}
	for _, threads := range []int{0, 2} {
		prog := irgen.Generate(11, irgen.Config{Threads: threads})
		ex, err := run(prog, sp)
		if err != nil {
			t.Fatal(err)
		}
		ds := ex.det.(*dangsan.Detector)
		defer ds.Close()
		check := func() []string { return checkCounters(&prog.Oracle, sp, ex, prog.Multithreaded) }

		ex.audit = withMidRunDrift{ex.audit}
		msgs := check()
		if threads > 0 && len(msgs) != 0 {
			t.Errorf("threads=%d: mid-run drift entry failed the cell: %v", threads, msgs)
		}
		if threads == 0 && (len(msgs) != 1 || !strings.Contains(msgs[0], "drift +64")) {
			t.Errorf("threads=0: mid-run drift entry not reported: %v", msgs)
		}

		// A real imbalance that outlives the run: bytes charged through a
		// released meta are in LogBytes but in no set the walk measures.
		lg := ds.Logger()
		m, h, err := lg.CreateMeta(0x1000, 64)
		if err != nil {
			t.Fatal(err)
		}
		lg.ReleaseMeta(h)
		lg.Register(m, 0x2000, 0)
		if msgs := check(); len(msgs) == 0 {
			t.Errorf("threads=%d: end-state imbalance passed the cell", threads)
		}
	}
}

package differ

import (
	"strings"
	"testing"

	"dangsan/internal/detectors/backends"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/irgen"
)

// perObjectEntry is the violation a free records when the walked footprint
// of the freed object's logs differs from what they were charged.
const perObjectEntry = "pointerlog audit: free of object 0x100000: walked 288 B, its logs were charged 160 B"

// withFreeViolation is a run's real audit view plus one per-object entry
// recorded at a free.
type withFreeViolation struct{ auditSource }

func (a withFreeViolation) AuditViolations() []string {
	return append([]string{perObjectEntry}, a.auditSource.AuditViolations()...)
}

// TestAuditClauseThreadedVsSingle: threaded and single-threaded cells are
// held to the same audit. A violation recorded at a free fails both kinds
// of cell, and so does an imbalance of the global identity that is still
// there at the quiescent end.
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
		check := func() []string { return checkCounters(&prog.Oracle, sp, ex) }
		if msgs := check(); len(msgs) != 0 {
			t.Fatalf("threads=%d: clean run failed the cell: %v", threads, msgs)
		}

		view := ex.audit
		ex.audit = withFreeViolation{view}
		if msgs := check(); len(msgs) != 1 || !strings.Contains(msgs[0], perObjectEntry) {
			t.Errorf("threads=%d: per-object violation not reported: %v", threads, msgs)
		}
		ex.audit = view

		// A real imbalance that outlives the run: bytes charged through a
		// released meta are dropped uncounted when the meta is recycled.
		lg := ds.Logger()
		m, h, err := lg.CreateMeta(0x1000, 64)
		if err != nil {
			t.Fatal(err)
		}
		lg.ReleaseMeta(h)
		lg.Register(m, 0x2000, 0)
		if _, _, err := lg.CreateMeta(0x1000, 64); err != nil {
			t.Fatal(err)
		}
		if msgs := check(); len(msgs) == 0 {
			t.Errorf("threads=%d: end-state imbalance passed the cell", threads)
		}
	}
}

// Package differ is the differential oracle harness: it runs irgen-generated
// programs through the full irparse → (ir/opt) → instrument → interp pipeline
// under every detector and pointer-log configuration, and compares each run
// against the program's recorded ground truth.
//
// The matrix has three axes:
//
//   - instrumentation mode: the uninstrumented reference (baseline detector
//     only — it establishes what the program itself computes), plain
//     instrumentation, and optimize-then-instrument with the static
//     hoisting/elision optimizations on. Divergence here means the
//     instrumentation or optimizer changed program-visible behaviour.
//   - detector: dangsan, dangnull, freesentry, xtag and camp, plus the
//     no-op baseline. Divergence means a detector perturbed the program or
//     missed/over-did an invalidation relative to its published contract
//     (dangsan and freesentry invalidate pointers anywhere; dangnull only
//     heap-resident ones; the checked-dereference pair — xtag's generation
//     tags and camp's freed-range registry — never rewrite memory at all,
//     so their dangling cells keep baseline-like values and the oracle
//     instead probes that a use of the stale pointer would trap). FreeSentry
//     is thread-unsafe by design and is skipped for multi-threaded
//     programs, as in the paper. Under xtag every pointer in memory carries
//     its object's tag, so the cell checks also verify tagged pointers
//     round-trip through stores, loads and gep arithmetic bit-for-bit.
//   - dangsan pointer-log config: lookback {0,4,8} × compression {on,off} ×
//     hash fallback {forced, effectively off}, plus two tiered cells. The
//     invalidation count must be identical across all of them — dedup,
//     representation and tiering may never change what gets invalidated.
//     Audit mode is always on, so every free checks the freed object's
//     log bytes against their charges.
//
// Mutation mode (CheckMutation) generates the same program with one injected
// dangling dereference and asserts every detector traps on it (no false
// negatives) while the baseline runs to completion.
package differ

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/backends"
	"dangsan/internal/detectors/camp"
	"dangsan/internal/detectors/dangnull"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/detectors/freesentry"
	"dangsan/internal/detectors/xtag"
	"dangsan/internal/instrument"
	"dangsan/internal/interp"
	"dangsan/internal/ir/opt"
	"dangsan/internal/irgen"
	"dangsan/internal/irparse"
	"dangsan/internal/pointerlog"
	"dangsan/internal/vmem"
)

// Mode selects the instrumentation pipeline variant.
type Mode int

const (
	// ModeRef runs the parsed module as-is: no RegPtr instrumentation. Only
	// meaningful with the baseline detector.
	ModeRef Mode = iota
	// ModeInstr instruments with all static optimizations off.
	ModeInstr
	// ModeInstrOpt runs ir/opt first, then instruments with hoisting and
	// arithmetic elision enabled.
	ModeInstrOpt
)

func (m Mode) String() string {
	switch m {
	case ModeRef:
		return "ref"
	case ModeInstr:
		return "instr"
	default:
		return "instr+opt"
	}
}

// Spec is one cell of the run matrix.
type Spec struct {
	Mode Mode
	Det  backends.Kind
	Cfg  pointerlog.Config // dangsan only
}

// Name renders a stable human-readable cell label for divergence reports.
func (s Spec) Name() string {
	if s.Det != backends.DangSan {
		return fmt.Sprintf("%s/%s", s.Mode, s.Det)
	}
	hash := "off"
	if s.Cfg.MaxLogEntries < pointerlog.DefaultMaxLogEntries {
		hash = "on"
	}
	comp := "off"
	if s.Cfg.Compression {
		comp = "on"
	}
	spill := ""
	if s.Cfg.ColdSpillBytes > 0 {
		spill = fmt.Sprintf(",spill=%dB", s.Cfg.ColdSpillBytes)
	}
	return fmt.Sprintf("%s/dangsan[lb=%d,comp=%s,hash=%s%s]",
		s.Mode, s.Cfg.Lookback, comp, hash, spill)
}

// DangSanConfigs enumerates the pointer-log configurations the sweep
// crosses: lookback 0/4/8 × compression on/off × hash fallback forced or
// effectively disabled. MaxLogEntries=12 is the validated minimum, so the
// hash fallback engages after the embedded entries fill; 1<<20 entries is
// never reached by generated programs, keeping the log in list mode.
func DangSanConfigs() []pointerlog.Config {
	var out []pointerlog.Config
	for _, lb := range []int{0, 4, 8} {
		for _, comp := range []bool{true, false} {
			for _, maxEntries := range []int{1 << 20, 12} {
				out = append(out, pointerlog.Config{
					Lookback:      lb,
					MaxLogEntries: maxEntries,
					Compression:   comp,
				})
			}
		}
	}
	// Tiered cells: hash fallback forced and the cold tier armed at the
	// minimum spill threshold, so location sets that outgrow one table
	// spill to disk segments and free-time invalidation streams them back.
	// One cell with the lookback and compression off, one with the paper's
	// lookback 4 and compression on.
	out = append(out, pointerlog.Config{
		Lookback:       0,
		MaxLogEntries:  12,
		Compression:    false,
		ColdSpillBytes: pointerlog.MinColdSpillBytes,
	})
	out = append(out, pointerlog.Config{
		Lookback:       4,
		MaxLogEntries:  12,
		Compression:    true,
		ColdSpillBytes: pointerlog.MinColdSpillBytes,
	})
	return out
}

// Specs builds the full matrix for one program, one backend of the table
// at a time. Backends that are not thread-safe (FreeSentry) are omitted for
// multi-threaded programs. The checked-dereference pair's optimized cells
// additionally elide statically-safe checks (ElideDerefChecks), so instr vs
// instr+opt differentially tests the elision proof.
func Specs(multithreaded bool) []Spec {
	var specs []Spec
	for _, k := range backends.All() {
		switch {
		case k == backends.Baseline:
			specs = append(specs, Spec{Mode: ModeRef, Det: k}, Spec{Mode: ModeInstr, Det: k}, Spec{Mode: ModeInstrOpt, Det: k})
		case k == backends.DangSan:
			for _, cfg := range DangSanConfigs() {
				specs = append(specs, Spec{Mode: ModeInstr, Det: k, Cfg: cfg}, Spec{Mode: ModeInstrOpt, Det: k, Cfg: cfg})
			}
		case k.ThreadSafe() || !multithreaded:
			specs = append(specs, Spec{Mode: ModeInstr, Det: k}, Spec{Mode: ModeInstrOpt, Det: k})
		}
	}
	return specs
}

// Divergence is one oracle violation in one matrix cell.
type Divergence struct {
	Seed int64
	Run  string
	Msg  string
}

func (d Divergence) String() string {
	return fmt.Sprintf("seed %d [%s]: %s", d.Seed, d.Run, d.Msg)
}

// execution is one finished run plus handles for state inspection.
type execution struct {
	out  []int64
	ret  uint64
	trap *interp.Trap
	rt   *interp.Runtime
	det  detectors.Detector
	// audit is dangsan's audit-mode view (nil under the other backends); the
	// regression test scripts its own.
	audit auditSource
}

// run parses the program source fresh (instrumentation mutates the module,
// so cells must not share one), applies the spec's pipeline, and executes.
func run(prog *irgen.Program, sp Spec) (*execution, error) {
	m, err := irparse.Parse(prog.Source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	var iopts instrument.Options
	switch sp.Mode {
	case ModeInstr:
		iopts = instrument.Options{}
	case ModeInstrOpt:
		if _, err := opt.Optimize(m); err != nil {
			return nil, fmt.Errorf("optimize: %w", err)
		}
		iopts = instrument.DefaultOptions()
	}
	cfg := sp.Cfg
	cfg.Audit = true
	det, err := backends.New(sp.Det, dangsan.Options{Config: cfg})
	if err != nil {
		return nil, err
	}
	ex := &execution{det: det}
	if ds, ok := det.(*dangsan.Detector); ok {
		ex.audit = ds.Logger()
	}
	if sp.Mode != ModeRef {
		if _, err := instrument.Pass(m, iopts); err != nil {
			return nil, fmt.Errorf("instrument: %w", err)
		}
	}
	var buf bytes.Buffer
	ex.rt = interp.New(m, det, interp.Options{Output: &buf})
	res, err := ex.rt.Run()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	ex.ret = res.Ret
	ex.trap = res.Trap
	ex.out, err = parseOutput(buf.String())
	if err != nil {
		return nil, fmt.Errorf("output: %w", err)
	}
	return ex, nil
}

func parseOutput(s string) ([]int64, error) {
	var out []int64
	for _, ln := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if ln == "" {
			continue
		}
		v, err := strconv.ParseInt(ln, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// seedConfig is the per-seed program shape policy: thread count cycles
// through 0/1/2 so a seed sweep covers single-threaded programs (where the
// freesentry cells run) and racy multi-threaded ones.
func seedConfig(seed int64) irgen.Config {
	return irgen.Config{Threads: int(seed % 3)}
}

// CheckSeed generates the benign program for (seed, cfg), runs the full
// matrix, and returns every divergence found (nil means the oracle held in
// all cells).
func CheckSeed(seed int64, cfg irgen.Config) []Divergence {
	cfg.Mutate = false
	prog := irgen.Generate(seed, cfg)
	var divs []Divergence
	for _, sp := range Specs(prog.Multithreaded) {
		for _, msg := range checkCell(prog, sp) {
			divs = append(divs, Divergence{Seed: seed, Run: sp.Name(), Msg: msg})
		}
	}
	return divs
}

// checkCell runs one matrix cell and verifies every oracle clause that
// applies to it.
func checkCell(prog *irgen.Program, sp Spec) []string {
	ex, err := run(prog, sp)
	if err != nil {
		return []string{err.Error()}
	}
	if ds, ok := ex.det.(*dangsan.Detector); ok {
		// Tiered cells hold a spill file's descriptor and mapping; Close
		// releases them. The run is quiescent (interp.Run drains before
		// returning) and stats stay readable.
		defer ds.Close()
	}
	var msgs []string
	fail := func(format string, a ...any) {
		msgs = append(msgs, fmt.Sprintf(format, a...))
	}
	o := &prog.Oracle

	// Program-visible behaviour: no trap, exact output, exact return value.
	if ex.trap != nil {
		return append(msgs, fmt.Sprintf("unexpected trap: %v", ex.trap))
	}
	if !int64SlicesEqual(ex.out, o.Output) {
		fail("output %v, want %v", ex.out, o.Output)
	}
	if int64(ex.ret) != o.Ret {
		fail("ret %d, want %d", int64(ex.ret), o.Ret)
	}

	// Allocator-visible behaviour: leak check.
	if live := ex.rt.Process().Allocator().Stats().LiveObjects; live != uint64(o.LiveAtExit) {
		fail("live objects %d, want %d", live, o.LiveAtExit)
	}

	// Counters first: checkCells' latent-detection probes (xtag's CheckDeref
	// on dangling cells) bump the detector's check/mismatch stats, so the
	// benign-run accounting must be read before probing.
	msgs = append(msgs, checkCounters(o, sp, ex)...)
	msgs = append(msgs, checkCells(prog, sp, ex)...)
	return msgs
}

// checkCells verifies the final state of every oracle cell: global slots
// and fields of live objects. Live object base addresses are recovered
// through their anchor slots, so the check is address-relocation-independent
// (AllocPad differs across detectors).
func checkCells(prog *irgen.Program, sp Spec, ex *execution) []string {
	var msgs []string
	fail := func(format string, a ...any) {
		msgs = append(msgs, fmt.Sprintf(format, a...))
	}
	as := ex.rt.Process().AddressSpace()
	o := &prog.Oracle

	// Under xtag, pointers in memory carry the object's tag in their high
	// bits: range checks and address arithmetic use the stripped form, while
	// the base map keeps the tagged value so CellLivePtr comparisons verify
	// tagged pointers round-trip through memory bit-for-bit.
	base := make(map[int]uint64, len(o.Live))
	for _, lo := range o.Live {
		v, f := as.LoadWord(irgen.SlotAddr(lo.AnchorSlot))
		if f != nil {
			fail("anchor slot %d: %v", lo.AnchorSlot, f)
			continue
		}
		if raw := vmem.StripTag(v); raw < vmem.HeapBase || raw >= vmem.HeapBase+vmem.HeapMax {
			fail("anchor slot %d of object %d: 0x%x not a heap address", lo.AnchorSlot, lo.ID, v)
			continue
		}
		if sp.Det == backends.XTag && vmem.PointerTag(v) == 0 {
			fail("anchor slot %d of object %d: 0x%x untagged under xtag", lo.AnchorSlot, lo.ID, v)
			continue
		}
		base[lo.ID] = v
	}

	// danglingBase collects, per freed object, the inferred free-time base
	// from each dangling cell (value minus recorded offset). All cells that
	// dangled into the same object must agree — the invalidation scheme
	// preserves address bits (or the baseline preserves the raw pointer),
	// so disagreement means a cell was corrupted.
	danglingBase := make(map[int][]uint64)

	for i, cell := range o.Cells {
		var addr uint64
		var where string
		if cell.Global {
			addr = irgen.SlotAddr(cell.Slot)
			where = fmt.Sprintf("slot %d", cell.Slot)
		} else {
			b, ok := base[cell.Obj]
			if !ok {
				continue // anchor already reported
			}
			addr = vmem.StripTag(b) + cell.Off
			where = fmt.Sprintf("obj %d+%d", cell.Obj, cell.Off)
		}
		v, f := as.LoadWord(addr)
		if f != nil {
			fail("cell %d (%s): %v", i, where, f)
			continue
		}
		switch cell.Kind {
		case irgen.CellInt:
			if int64(v) != cell.Int {
				fail("cell %d (%s): int %d, want %d", i, where, int64(v), cell.Int)
			}
		case irgen.CellLivePtr:
			b, ok := base[cell.TargetObj]
			if !ok {
				continue
			}
			if v != b+cell.TargetOff {
				fail("cell %d (%s): ptr 0x%x, want 0x%x (obj %d+%d)",
					i, where, v, b+cell.TargetOff, cell.TargetObj, cell.TargetOff)
			}
		case irgen.CellDangling:
			orig, ok := checkDangling(sp, ex, cell, v, fail, i, where)
			if ok {
				danglingBase[cell.TargetObj] = append(danglingBase[cell.TargetObj], orig-cell.TargetOff)
			}
		}
	}

	for id, bases := range danglingBase {
		for _, b := range bases[1:] {
			if b != bases[0] {
				fail("dangling cells into freed obj %d disagree on its base: %x", id, bases)
				break
			}
		}
	}
	return msgs
}

// checkDangling verifies one dangling cell per the run's detector contract
// and returns the recovered original pointer value when it is comparable
// across cells.
func checkDangling(sp Spec, ex *execution, cell irgen.Cell, v uint64, fail func(string, ...any), i int, where string) (orig uint64, comparable bool) {
	heapPtr := heapRange
	switch {
	case sp.Det == backends.XTag:
		// xTag never rewrites memory: the cell keeps the tagged pointer it
		// always held. Detection is latent — probe that dereferencing the
		// stale pointer now would trap on a tag mismatch. Tags cannot wrap at
		// differ scales (far fewer than 2^15 allocations), so the only
		// legitimate pass is the fail-open slot-0 read: a freed span recycled
		// for a different alignment gets a fresh zeroed shadow array, wiping
		// the freed marker. Distinguish that from a revived tag by probing
		// with a second, different tag — slot 0 passes any tag, a live tag
		// only its own.
		addr, tag, tagged := vmem.DecodeTag(v)
		if !tagged || !heapPtr(addr) {
			fail("cell %d (%s): dangling cell 0x%x not a tagged heap pointer under xtag", i, where, v)
			return 0, false
		}
		xt := ex.det.(*xtag.Detector)
		if _, f := xt.CheckDeref(v); f == nil {
			alt := tag%vmem.MaxTag + 1
			if _, f2 := xt.CheckDeref(vmem.WithTag(addr, alt)); f2 != nil {
				fail("cell %d (%s): stale tagged pointer 0x%x passes the deref check against a live mapping", i, where, v)
				return 0, false
			}
		}
		return addr, true
	case sp.Det == backends.CAMP:
		// CAMP keeps memory untouched too, so the cell holds the raw dangling
		// address, exactly like the baseline. A CheckDeref probe here would be
		// unsound — the freed range may have been reused by a later live
		// allocation, legitimately clearing the tombstone — so camp's
		// detection is asserted only in mutation mode, at the access itself.
		if !heapPtr(v) {
			fail("cell %d (%s): dangling raw value 0x%x not a heap address under camp", i, where, v)
			return 0, false
		}
		return v, true
	case sp.Det == backends.Baseline:
		// Baseline: raw dangling address, untouched.
		if !heapPtr(v) {
			fail("cell %d (%s): dangling raw value 0x%x not a heap address", i, where, v)
			return 0, false
		}
		return v, true
	case sp.Det == backends.DangNULL && cell.Global:
		// DangNull tracks heap locations only: global dangling cells keep
		// their raw value — the coverage gap the paper's Table 1 quantifies.
		if !heapPtr(v) {
			fail("cell %d (%s): dangling global 0x%x not raw under dangnull", i, where, v)
			return 0, false
		}
		return v, true
	case sp.Det == backends.DangNULL:
		if v != dangnull.InvalidValue {
			fail("cell %d (%s): dangling heap cell 0x%x, want nullified 0x%x",
				i, where, v, uint64(dangnull.InvalidValue))
		}
		return 0, false // address bits destroyed by design
	default:
		// DangSan and FreeSentry: high bit set, address bits preserved.
		orig, invalidated := pointerlog.DecodeFault(v)
		if !invalidated {
			fail("cell %d (%s): dangling cell 0x%x not invalidated", i, where, v)
			return 0, false
		}
		if !heapPtr(orig) {
			fail("cell %d (%s): invalidated cell preserves 0x%x, not a heap address", i, where, orig)
			return 0, false
		}
		return orig, true
	}
}

// auditSource is what the audit clause reads of dangsan's audit mode
// (*pointerlog.Logger).
type auditSource interface {
	AuditCheck() error
	AuditViolations() []string
}

// auditClause asserts dangsan's log-byte accounting for one finished run:
// every per-object check the logger made at a free, and the global identity
// once more here, at the quiescent end (threads joined). Threaded runs are
// held to both: a free's check walks only the freed object's logs, so only
// a store into that object while it is freed could race it (see
// pointerlog/audit.go).
func auditClause(a auditSource) string {
	a.AuditCheck()
	if aud := a.AuditViolations(); len(aud) > 0 {
		return fmt.Sprintf("audit violations: %v", aud)
	}
	return ""
}

// checkCounters verifies the detector-side accounting against the oracle:
// exact invalidation counts per detector class, object tracking bounds, and
// dangsan's audit-mode log-byte identity.
func checkCounters(o *irgen.Oracle, sp Spec, ex *execution) []string {
	var msgs []string
	fail := func(format string, a ...any) {
		msgs = append(msgs, fmt.Sprintf(format, a...))
	}
	lo, hi := uint64(o.Mallocs), uint64(o.Mallocs+o.Reallocs)
	switch d := ex.det.(type) {
	case *dangsan.Detector:
		snap := d.Stats()
		if snap.Invalidated != o.InvalidatedAll {
			fail("dangsan invalidated %d, want %d", snap.Invalidated, o.InvalidatedAll)
		}
		// Whether a realloc moves (and allocates) depends on size classes
		// and AllocPad, so tracked objects are only bounded.
		if snap.ObjectsTracked < lo || snap.ObjectsTracked > hi {
			fail("dangsan tracked %d objects, want %d..%d", snap.ObjectsTracked, lo, hi)
		}
		if msg := auditClause(ex.audit); msg != "" {
			fail("%s", msg)
		}
	case *dangnull.Detector:
		_, inv := d.Stats()
		if inv != o.InvalidatedHeap {
			fail("dangnull invalidated %d, want %d (heap-resident only)", inv, o.InvalidatedHeap)
		}
		if live := d.LiveObjects(); live != o.LiveAtExit {
			fail("dangnull tracks %d live objects, want %d", live, o.LiveAtExit)
		}
	case *freesentry.Detector:
		_, inv := d.Stats()
		if inv != o.InvalidatedAll {
			fail("freesentry invalidated %d, want %d", inv, o.InvalidatedAll)
		}
	case *xtag.Detector:
		tagged, _, mismatches := d.Stats()
		if mismatches != 0 {
			fail("xtag saw %d tag mismatches in a benign program", mismatches)
		}
		if tagged < lo || tagged > hi {
			fail("xtag tagged %d objects, want %d..%d", tagged, lo, hi)
		}
	case *camp.Detector:
		tracked, _, faults, _ := d.Stats()
		if faults != 0 {
			fail("camp saw %d freed-range faults in a benign program", faults)
		}
		if tracked < lo || tracked > hi {
			fail("camp tracked %d objects, want %d..%d", tracked, lo, hi)
		}
	}
	if cl, ok := ex.det.(detectors.CoverageLoss); ok {
		if objs, regs := cl.Degraded(); objs != 0 || regs != 0 {
			fail("%s degraded=%d dropped=%d without fault injection", sp.Det, objs, regs)
		}
	}
	return msgs
}

// heapRange reports whether p lies inside the simulated heap segment.
func heapRange(p uint64) bool {
	return p >= vmem.HeapBase && p < vmem.HeapBase+vmem.HeapMax
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

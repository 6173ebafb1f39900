package bench

import (
	"fmt"
	"math"
	"time"

	"dangsan/internal/detectors/backends"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/rbtree"
	"dangsan/internal/shadow"
	"dangsan/internal/vmem"
	"dangsan/internal/workloads"
)

// LookbackPoint is one lookback-sweep measurement (paper §4.4: "overall
// performance is generally similar in the range between one and four, and
// begins to degrade with higher numbers"; the lookback also bounds log
// growth).
type LookbackPoint struct {
	Lookback int
	Seconds  float64
	LogBytes uint64
}

// lookbackSweep measures a duplicate-heavy workload (the perlbench analog)
// across lookback windows.
func lookbackSweep(s *Session) ([]LookbackPoint, Table, error) {
	t := Table{
		Title: "Ablation: lookback window on the perlbench analog (paper §4.4: flat 1-4, memory grows without lookback)",
		Head:  []string{"lookback", "seconds", "log bytes"},
	}
	prof, err := workloads.SPECProfileByName("perlbench")
	if err != nil {
		return nil, t, err
	}
	prof = scaleSPEC(prof, s.Scale)
	var points []LookbackPoint
	for _, lb := range []int{0, 1, 2, 4, 8, 12, pointerlog.MaxLookback} {
		s.Progress(fmt.Sprintf("lookback %d", lb))
		m, _, err := s.measure(backends.DangSan, func(c *pointerlog.Config) { c.Lookback = lb }, func(p *proc.Process) error {
			return workloads.RunSPEC(p, prof, s.Seed)
		})
		if err != nil {
			return nil, t, fmt.Errorf("lookback %d: %w", lb, err)
		}
		points = append(points, LookbackPoint{Lookback: lb, Seconds: m.Seconds, LogBytes: m.Stats.LogBytes})
		t.Rows = append(t.Rows, []string{fmt.Sprint(lb), fmt.Sprintf("%.3f", m.Seconds), mib(m.Stats.LogBytes)})
	}
	return points, t, nil
}

// CompressionPoint is one compression-ablation measurement (paper §6:
// pointer compression saves up to 3x log space on spatially local stores).
type CompressionPoint struct {
	Compression bool
	Seconds     float64
	LogBytes    uint64
	Compressed  uint64
}

// compressionAblation measures a locality-heavy workload — array-style
// pointer fills into adjacent slots, the access pattern compression was
// designed for — with compression on and off. Duplicates are disabled so
// every store reaches the log and the entry-packing effect is isolated.
func compressionAblation(s *Session) ([]CompressionPoint, Table, error) {
	t := Table{
		Title: "Ablation: pointer compression on an adjacent-slot fill workload (paper §6: up to 3x log-space saving)",
		Head:  []string{"compression", "seconds", "log bytes", "entries folded"},
	}
	prof := scaleSPEC(workloads.SPECProfile{
		Name:        "compression-ablation",
		Objects:     4000,
		TotalStores: 1_200_000,
		DupRate:     0, // every store is a distinct adjacent slot
		StaleRate:   0,
		LiveWindow:  1000,
		SizeMin:     64,
		SizeMax:     1024,
		ComputeOps:  50_000,
	}, s.Scale)
	var points []CompressionPoint
	for _, comp := range []bool{false, true} {
		s.Progress(fmt.Sprintf("compression=%v", comp))
		m, _, err := s.measure(backends.DangSan, func(c *pointerlog.Config) { c.Compression = comp }, func(p *proc.Process) error {
			return workloads.RunSPEC(p, prof, s.Seed)
		})
		if err != nil {
			return nil, t, fmt.Errorf("compression=%v: %w", comp, err)
		}
		points = append(points, CompressionPoint{
			Compression: comp,
			Seconds:     m.Seconds,
			LogBytes:    m.Stats.LogBytes,
			Compressed:  m.Stats.Compressed,
		})
		t.Rows = append(t.Rows, []string{fmt.Sprint(comp), fmt.Sprintf("%.3f", m.Seconds),
			mib(m.Stats.LogBytes), fmt.Sprint(m.Stats.Compressed)})
	}
	return points, t, nil
}

// ShadowPoint compares the two shadow-memory schemes of the paper's §4.3
// on one object size: DangSan's variable-compression-ratio metapagetable
// against a traditional constant-ratio (8:8) shadow, on the two axes the
// paper names — metadata bytes per object and the cost of initializing the
// shadow at allocation time.
type ShadowPoint struct {
	ObjectBytes   uint64
	FixedBytes    uint64
	VariableBytes uint64
	FixedNs       float64
	VariableNs    float64
}

// shadowAblation measures both schemes.
func shadowAblation(s *Session) ([]ShadowPoint, Table) {
	t := Table{
		Title: "Ablation: constant vs variable compression-ratio shadow (paper §4.3: constant ratio pays O(size) init and ~1:1 metadata)",
		Head:  []string{"object size", "fixed-ratio meta", "variable meta", "fixed create", "variable create"},
	}
	var points []ShadowPoint
	for _, size := range []uint64{4 << 10, 64 << 10, 1 << 20, 4 << 20} {
		s.Progress(fmt.Sprintf("shadow ablation %d KiB", size>>10))
		iters := max(int(64<<20/size), 8) // bound total work

		ft := shadow.NewFixedTable()
		before := ft.Bytes()
		start := time.Now()
		for i := 0; i < iters; i++ {
			ft.CreateObject(vmem.HeapBase, size, uint64(i+1))
		}
		fixedNs := float64(time.Since(start).Nanoseconds()) / float64(iters)
		fixedBytes := ft.Bytes() - before

		vt := shadow.NewTable()
		beforeV := vt.Bytes()
		start = time.Now()
		for i := 0; i < iters; i++ {
			vt.CreateObject(vmem.HeapBase, size, vmem.PageSize, uint64(i+1))
		}
		variableNs := float64(time.Since(start).Nanoseconds()) / float64(iters)
		variableBytes := vt.Bytes() - beforeV

		points = append(points, ShadowPoint{
			ObjectBytes:   size,
			FixedBytes:    fixedBytes,
			VariableBytes: variableBytes,
			FixedNs:       fixedNs,
			VariableNs:    variableNs,
		})
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%dKiB", size>>10), mib(fixedBytes), mib(variableBytes),
			fmt.Sprintf("%.0fns", fixedNs), fmt.Sprintf("%.0fns", variableNs)})
	}
	return points, t
}

// MapperPoint compares pointer-to-object lookup cost at a given live-object
// count: the constant-time shadow map against the balanced tree DangNULL
// uses (paper §4.3's design argument).
type MapperPoint struct {
	Objects  int
	ShadowNs float64
	TreeNs   float64
}

// mapperAblation measures both mappers' lookup latency.
func mapperAblation(s *Session) ([]MapperPoint, Table) {
	t := Table{
		Title: "Ablation: pointer-to-object mapper (paper §4.3: trees degrade with object count, shadow stays constant)",
		Head:  []string{"live objects", "shadow ns/lookup", "rbtree ns/lookup", "tree/shadow"},
	}
	// The object counts are the x-axis; -scale shrinks only the probes.
	lookups := max(int(2_000_000*s.Scale), 20_000)
	var points []MapperPoint
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		s.Progress(fmt.Sprintf("mapper n=%d", n))
		// Lay out n 64-byte objects.
		tbl := shadow.NewTable()
		var tree rbtree.Tree
		for i := 0; i < n; i++ {
			base := vmem.HeapBase + uint64(i)*64
			tbl.CreateObject(base, 64, 8, uint64(i+1))
			tree.Insert(base, base+64, uint64(i+1))
		}
		// One untimed pass over all n objects in the probes' order, then the
		// fastest of five rounds: a round shorter than n probes times no first
		// touches, and a pause inside one short round does not decide the row.
		probe := func(lookup func(addr uint64) bool) float64 {
			best := math.Inf(1)
			addr := uint64(vmem.HeapBase)
			stride := uint64(64*2654435761) % (uint64(n) * 64)
			pass := func(k int) {
				for range k {
					if !lookup(vmem.HeapBase + addr%uint64(n*64)) {
						panic("bench: mapper lookup miss")
					}
					addr += stride
				}
			}
			pass(n)
			for range 5 {
				start := time.Now()
				pass(lookups / 5)
				best = min(best, float64(time.Since(start).Nanoseconds())/float64(lookups/5))
			}
			return best
		}
		shadowNs := probe(func(a uint64) bool { return tbl.Lookup(a) != 0 })
		treeNs := probe(func(a uint64) bool {
			_, ok := tree.LookupContaining(a)
			return ok
		})
		points = append(points, MapperPoint{Objects: n, ShadowNs: shadowNs, TreeNs: treeNs})
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.1f", shadowNs),
			fmt.Sprintf("%.1f", treeNs), fmt.Sprintf("%.1fx", treeNs/shadowNs)})
	}
	return points, t
}

// AblationReport is the typed data behind the four design-choice tables.
type AblationReport struct {
	Lookback    []LookbackPoint
	Compression []CompressionPoint
	Mapper      []MapperPoint
	Shadow      []ShadowPoint
}

// runAblation runs the four design-choice ablations of §4.3, §4.4 and §6.
func runAblation(s *Session) (*Result, error) {
	var rep AblationReport
	var lb, cp, mp, sp Table
	var err error
	if rep.Lookback, lb, err = lookbackSweep(s); err != nil {
		return nil, err
	}
	if rep.Compression, cp, err = compressionAblation(s); err != nil {
		return nil, err
	}
	rep.Mapper, mp = mapperAblation(s)
	rep.Shadow, sp = shadowAblation(s)
	return &Result{Tables: []Table{lb, cp, mp, sp}, Key: "ablation", Data: rep}, nil
}

package bench

import (
	"fmt"
	"slices"
	"strings"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/backends"
	"dangsan/internal/detectors/dangnull"
	"dangsan/internal/obs"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/workloads"
)

// Options scale and seed an experiment run.
type Options struct {
	// Scale multiplies workload sizes (1.0 = the calibrated defaults; use
	// ~0.1 for smoke runs).
	Scale float64
	// Seed makes runs deterministic.
	Seed int64
	// Repeat runs each measurement this many times and keeps the fastest
	// (default 1; use 3 on noisy machines).
	Repeat int
	// Metrics, when non-nil, is attached to every measured process;
	// counters accumulate across runs.
	Metrics *obs.Registry
	// Audit enables DangSan's log-byte accounting cross-check on every
	// DangSan detector the run builds.
	Audit bool
}

// scaleSPEC shrinks or grows a SPEC analog by s, keeping every dimension
// large enough to run.
func scaleSPEC(p workloads.SPECProfile, s float64) workloads.SPECProfile {
	if s == 1 {
		return p
	}
	p.Objects = max(int(float64(p.Objects)*s), 16)
	p.TotalStores = max(int(float64(p.TotalStores)*s), 8)
	p.ComputeOps = max(int(float64(p.ComputeOps)*s), 8)
	p.LiveWindow = max(int(float64(p.LiveWindow)*s), 8)
	return p
}

// scaleParallel is scaleSPEC for a PARSEC/SPLASH-2X analog.
func scaleParallel(p workloads.ParallelProfile, s float64) workloads.ParallelProfile {
	if s == 1 {
		return p
	}
	p.TotalObjects = max(int(float64(p.TotalObjects)*s), 64)
	p.TotalStores = max(int(float64(p.TotalStores)*s), 64)
	p.TotalCompute = max(int(float64(p.TotalCompute)*s), 64)
	p.LeakPerThread = int(float64(p.LeakPerThread) * s)
	p.LiveWindowPerThread = max(int(float64(p.LiveWindowPerThread)*s), 8)
	return p
}

// Experiment is one row of the experiment table.
type Experiment struct {
	Name string
	Run  func(*Session) (*Result, error)
}

// experiments is the one list of what dangsan-bench can run, in the order
// "all" prints them. Usage strings, the unknown-name error and the
// documentation check are all derived from it.
var experiments = []Experiment{
	{"fig9", runFig9},
	{"fig11", runFig11},
	{"fig10", runFig10},
	{"fig12", runFig12},
	{"table1", runTable1},
	{"servers", runServers},
	{"fiveway", runFiveWay},
	{"exploits", runExploits},
	{"ablation", runAblation},
}

// Names lists every accepted -experiment value: "all", then the table in
// order.
func Names() []string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.Name)
	}
	return names
}

// Select resolves an -experiment value: one experiment by name, or for
// "all" every experiment. An unknown name is an error that lists the valid
// ones, returned before anything has run.
func Select(name string) ([]Experiment, error) {
	var sel []Experiment
	for _, e := range experiments {
		if e.Name == name || name == "all" {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return sel, nil
}

// Session is one harness invocation: the options every experiment reads,
// the thread sweep of fig10/fig12, a progress sink, and the two grids that
// fig9/fig11 and fig10/fig12 each render a different column of — memoized,
// so asking for both figures runs the workloads once.
type Session struct {
	Options
	Threads  []int
	Progress func(string)

	spec, parallel []GridRow
}

// NewSession fills the defaults: scale 1, the paper's 1..64 thread sweep,
// silent progress.
func NewSession(opts Options, threads []int, progress func(string)) *Session {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if len(threads) == 0 {
		threads = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if progress == nil {
		progress = func(string) {}
	}
	return &Session{Options: opts, Threads: threads, Progress: progress}
}

// GridRow is one workload's measurements across detectors: a SPEC analog, a
// parallel analog at one thread count, or a server at one request count.
type GridRow struct {
	Benchmark string
	Threads   int `json:",omitempty"`
	Requests  int `json:",omitempty"`
	ByKind    map[Kind]Measurement
}

// gridJob is one row of a profile × detector grid before it is measured.
type gridJob struct {
	row   GridRow
	kinds []Kind
	run   func(*proc.Process) error
}

// runGrid measures every job under each of its detectors — the loop the
// SPEC, scalability, server and five-way experiments share. prefix labels
// progress and errors; inspect, when non-nil, sees each cell's detector
// after its run.
func (s *Session) runGrid(prefix string, jobs []gridJob, inspect func(row int, det detectors.Detector) error) ([]GridRow, error) {
	rows := make([]GridRow, len(jobs))
	for i, job := range jobs {
		label := prefix + job.row.Benchmark
		if job.row.Threads > 0 {
			label += fmt.Sprintf(" / %d threads", job.row.Threads)
		}
		rows[i] = job.row
		rows[i].ByKind = make(map[Kind]Measurement)
		for _, kind := range job.kinds {
			s.Progress(label + " / " + string(kind))
			m, det, err := s.measure(kind, nil, job.run)
			if err == nil && inspect != nil {
				err = inspect(i, det)
			}
			if err != nil {
				return nil, fmt.Errorf("%s / %s: %w", label, kind, err)
			}
			rows[i].ByKind[kind] = m
		}
	}
	return rows, nil
}

// specJobs is the SPEC half of a grid: every analog, scaled, under kinds.
// FreeSentry runs too: these benchmarks are single-threaded, the only
// configuration the real FreeSentry supports.
func (s *Session) specJobs(kinds []Kind) []gridJob {
	var jobs []gridJob
	for _, prof := range workloads.SPECProfiles() {
		prof := scaleSPEC(prof, s.Scale)
		jobs = append(jobs, gridJob{GridRow{Benchmark: prof.Name}, kinds,
			func(p *proc.Process) error { return workloads.RunSPEC(p, prof, s.Seed) }})
	}
	return jobs
}

// specGrid is the run Figures 9 and 11 share.
func (s *Session) specGrid() ([]GridRow, error) {
	if s.spec != nil {
		return s.spec, nil
	}
	rows, err := s.runGrid("", s.specJobs(backends.Paper()), nil)
	s.spec = rows
	return rows, err
}

// parallelGrid is the run Figures 10 and 12 share: the PARSEC/SPLASH-2X
// analogs across the thread sweep. FreeSentry only runs at one thread — its
// data structures are not thread-safe, exactly as in the paper.
func (s *Session) parallelGrid() ([]GridRow, error) {
	if s.parallel != nil {
		return s.parallel, nil
	}
	var jobs []gridJob
	for _, prof := range workloads.ParallelProfiles() {
		prof := scaleParallel(prof, s.Scale)
		for _, threads := range s.Threads {
			kinds := backends.Paper()
			if threads > 1 {
				kinds = threadSafe()
			}
			jobs = append(jobs, gridJob{GridRow{Benchmark: prof.Name, Threads: threads}, kinds,
				func(p *proc.Process) error { return workloads.RunParallel(p, prof, threads, s.Seed) }})
		}
	}
	rows, err := s.runGrid("", jobs, nil)
	s.parallel = rows
	return rows, err
}

// threadSafe returns the paper's systems that can run a multi-threaded
// program: all but FreeSentry.
func threadSafe() []Kind {
	return slices.DeleteFunc(backends.Paper(), func(k Kind) bool { return !k.ThreadSafe() })
}

// slowdowns renders one row's run times as its baseline seconds followed by
// each kind's factor of it, and collects the factors for the geomeans.
func slowdowns(r GridRow, kinds []Kind, factors map[Kind][]float64) []string {
	base := r.ByKind[backends.Baseline].Seconds
	cells := []string{r.Benchmark, fmt.Sprintf("%.3f", base)}
	for _, k := range kinds {
		cells = append(cells, ratio(r.ByKind[k].Seconds, base))
		factors[k] = append(factors[k], r.ByKind[k].Seconds/base)
	}
	return cells
}

// runFig9 renders the SPEC run-time overhead table: per-benchmark slowdown
// factors normalized to the baseline, plus the geometric means the paper
// quotes against DangNULL and FreeSentry (here every system runs every
// analog, so "the same set" is the full set).
func runFig9(s *Session) (*Result, error) {
	rows, err := s.specGrid()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Figure 9: run-time overhead on SPEC CPU2006 analogs (normalized to baseline)",
		Head:  []string{"benchmark", "baseline(s)", "dangsan", "dangnull", "freesentry"},
	}
	gm := map[Kind][]float64{}
	for _, r := range rows {
		t.Rows = append(t.Rows, slowdowns(r, backends.Paper()[1:], gm))
	}
	ds := Geomean(gm[backends.DangSan])
	t.Notes = []string{
		fmt.Sprintf("geomean dangsan    %.2fx  (paper: 1.41x)", ds),
		fmt.Sprintf("geomean dangnull   %.2fx  vs dangsan %.2fx on same set (paper: 1.55x vs 1.22x)", Geomean(gm[backends.DangNULL]), ds),
		fmt.Sprintf("geomean freesentry %.2fx  vs dangsan %.2fx on same set (paper: 1.30x vs 1.23x)", Geomean(gm[backends.FreeSentry]), ds),
	}
	return &Result{Tables: []Table{t}, Key: "spec", Data: rows}, nil
}

// runFig11 renders the SPEC memory overhead table from the same runs.
func runFig11(s *Session) (*Result, error) {
	rows, err := s.specGrid()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Figure 11: memory overhead on SPEC CPU2006 analogs (peak RSS + metadata)",
		Head:  []string{"benchmark", "baseline", "dangsan", "overhead", "dangnull"},
	}
	var gm []float64
	for _, r := range rows {
		base, ds := r.ByKind[backends.Baseline].PeakFootprint, r.ByKind[backends.DangSan].PeakFootprint
		t.Rows = append(t.Rows, []string{r.Benchmark, mib(base), mib(ds),
			ratio(float64(ds), float64(base)),
			ratio(float64(r.ByKind[backends.DangNULL].PeakFootprint), float64(base))})
		gm = append(gm, float64(ds)/float64(base))
	}
	t.Notes = []string{fmt.Sprintf("geomean dangsan %.2fx  (paper: 2.4x)", Geomean(gm))}
	return &Result{Tables: []Table{t}, Key: "spec", Data: rows}, nil
}

// perThread lays out a parallel grid the way Figures 10 and 12 print it: one
// table per benchmark with a row per thread count, then the geomean of
// DangSan's overhead at each thread count. cells returns a row's columns
// after the label and that row's overhead factor.
func (s *Session) perThread(title string, head []string, cells func(GridRow) ([]string, float64), sumTitle, sumHead string) (*Result, error) {
	rows, err := s.parallelGrid()
	if err != nil {
		return nil, err
	}
	var tables []Table
	overheads := map[int][]float64{}
	for _, r := range rows {
		if n := len(tables); n == 0 || tables[n-1].Head[0] != r.Benchmark {
			tables = append(tables, Table{Head: append([]string{r.Benchmark}, head...)})
		}
		c, over := cells(r)
		t := &tables[len(tables)-1]
		t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%d threads", r.Threads)}, c...))
		overheads[r.Threads] = append(overheads[r.Threads], over)
	}
	tables[0].Title = title
	sum := Table{Title: sumTitle, Head: []string{"threads", sumHead}}
	for _, n := range s.Threads {
		sum.Rows = append(sum.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.2fx", Geomean(overheads[n]))})
	}
	return &Result{Tables: append(tables, sum), Key: "scalability", Data: rows}, nil
}

// runFig10 renders the scalability series: run time per thread count, with
// the DangSan overhead factor per point.
func runFig10(s *Session) (*Result, error) {
	return s.perThread(
		"Figure 10: scalability on PARSEC and SPLASH-2X analogs (seconds; overhead vs baseline)",
		[]string{"baseline(s)", "dangsan(s)", "overhead", "dangnull(s)"},
		func(r GridRow) ([]string, float64) {
			base, ds := r.ByKind[backends.Baseline].Seconds, r.ByKind[backends.DangSan].Seconds
			return []string{fmt.Sprintf("%.3f", base), fmt.Sprintf("%.3f", ds), ratio(ds, base),
				fmt.Sprintf("%.3f", r.ByKind[backends.DangNULL].Seconds)}, ds / base
		},
		"summary (paper: 1.12x @1T, 1.17-1.21x @2-16T, 1.30x @32T, 1.34x @64T):",
		"geomean dangsan overhead")
}

// runFig12 renders the scalability memory series from the same runs.
func runFig12(s *Session) (*Result, error) {
	return s.perThread(
		"Figure 12: memory usage on PARSEC and SPLASH-2X analogs (peak RSS + metadata)",
		[]string{"baseline", "dangsan", "overhead"},
		func(r GridRow) ([]string, float64) {
			base, ds := float64(r.ByKind[backends.Baseline].PeakFootprint), float64(r.ByKind[backends.DangSan].PeakFootprint)
			return []string{mib(uint64(base)), mib(uint64(ds)), ratio(ds, base)}, ds / base
		},
		"summary (paper: 1.56x @1T growing to 1.67x @16T, then level):",
		"geomean dangsan memory overhead")
}

// runServers executes the web-server analogs (§8.2/§8.3) with the paper's
// 32 workers and renders throughput and memory. The servers are
// multithreaded, so FreeSentry cannot run them.
func runServers(s *Session) (*Result, error) {
	requests := max(int(20000*s.Scale), 500)
	const workers = 32
	var jobs []gridJob
	for _, prof := range workloads.ServerProfiles() {
		jobs = append(jobs, gridJob{GridRow{Benchmark: prof.Name, Requests: requests}, threadSafe(),
			func(p *proc.Process) error { return workloads.RunServer(p, prof, workers, requests, s.Seed) }})
	}
	rows, err := s.runGrid("server ", jobs, nil)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Web servers (paper: apache -21% 4.5x mem, nginx -30% 1.8x mem, cherokee ~0% 1.1x mem)",
		Head:  []string{"server", "baseline req/s", "dangsan req/s", "slowdown", "mem baseline", "mem dangsan", "mem overhead"},
	}
	for _, r := range rows {
		base, ds := r.ByKind[backends.Baseline], r.ByKind[backends.DangSan]
		baseRPS := float64(r.Requests) / base.Seconds
		dsRPS := float64(r.Requests) / ds.Seconds
		t.Rows = append(t.Rows, []string{r.Benchmark,
			fmt.Sprintf("%.0f", baseRPS),
			fmt.Sprintf("%.0f", dsRPS),
			fmt.Sprintf("%.0f%%", (1-dsRPS/baseRPS)*100),
			mib(base.PeakFootprint), mib(ds.PeakFootprint),
			ratio(float64(ds.PeakFootprint), float64(base.PeakFootprint))})
	}
	return &Result{Tables: []Table{t}, Key: "servers", Data: rows}, nil
}

// Table1Row mirrors the columns of the paper's Table 1: DangSan's counters
// plus the DangNULL comparison columns.
type Table1Row struct {
	Benchmark string
	DangSan   pointerlog.Snapshot
	// DangNULL coverage comparison.
	DangNULLPtrs  uint64
	DangNULLInval uint64
}

// runTable1 gathers and renders the statistics table.
func runTable1(s *Session) (*Result, error) {
	t := Table{
		Title: "Table 1: pointer-tracking statistics on the SPEC analogs (scaled counts)",
		Head:  []string{"benchmark", "#obj", "#hashtable", "#ptrs", "#inval", "#stale", "#dup", "dangnull #ptrs", "dangnull #inval"},
	}
	var rows []Table1Row
	for _, prof := range workloads.SPECProfiles() {
		prof := scaleSPEC(prof, s.Scale)
		s.Progress(prof.Name)
		run := func(p *proc.Process) error { return workloads.RunSPEC(p, prof, s.Seed) }
		m, _, err := s.measure(backends.DangSan, nil, run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prof.Name, err)
		}
		_, dn, err := s.measure(backends.DangNULL, nil, run)
		if err != nil {
			return nil, fmt.Errorf("%s dangnull: %w", prof.Name, err)
		}
		r := Table1Row{Benchmark: prof.Name, DangSan: m.Stats}
		r.DangNULLPtrs, r.DangNULLInval = dn.(*dangnull.Detector).Stats()
		rows = append(rows, r)
		c := r.DangSan
		t.Rows = append(t.Rows, []string{r.Benchmark,
			fmt.Sprint(c.ObjectsTracked), fmt.Sprint(c.HashTables), fmt.Sprint(c.Registered),
			fmt.Sprint(c.Invalidated), fmt.Sprint(c.Stale), fmt.Sprint(c.Duplicates),
			fmt.Sprint(r.DangNULLPtrs), fmt.Sprint(r.DangNULLInval)})
	}
	return &Result{Tables: []Table{t}, Key: "table1", Data: rows}, nil
}

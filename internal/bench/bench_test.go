package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dangsan/internal/detectors/backends"
	"dangsan/internal/obs"
	"dangsan/internal/proc"
	"dangsan/internal/workloads"
)

// Every experiment of the table runs at most once per test binary, at the
// smoke scale, in one session — so fig9/fig11 and fig10/fig12 share their
// runs exactly as they do in the command.
var (
	smokeSession = NewSession(Options{Scale: 0.02, Seed: 1}, nil, nil)
	smokeResults = map[string]*Result{}
)

func smokeResult(t *testing.T, name string) *Result {
	t.Helper()
	if r, ok := smokeResults[name]; ok {
		return r
	}
	sel, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sel[0].Run(smokeSession)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	smokeResults[name] = r
	return r
}

// The metrics/audit path through the harness: a session with a registry
// and audit mode must accumulate counters across its DangSan runs and pass
// the accounting audit.
func TestMeasureWithMetricsAndAudit(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSession(Options{Metrics: reg, Audit: true}, nil, nil)
	prof, err := workloads.SPECProfileByName("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	prof = scaleSPEC(prof, 0.02)
	var mallocs uint64
	for run := 0; run < 2; run++ {
		if _, _, err := s.measure(backends.DangSan, nil, func(p *proc.Process) error {
			return workloads.RunSPEC(p, prof, 1)
		}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if got := snap.Counters["proc.mallocs"]; got <= mallocs {
			t.Fatalf("run %d: proc.mallocs = %d, want > %d (accumulating)", run, got, mallocs)
		} else {
			mallocs = got
		}
		if snap.Histograms["pointerlog.register_ns"].Count == 0 {
			t.Fatalf("run %d: register_ns histogram empty", run)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("Geomean(2,8) = %f", g)
	}
	if g := Geomean([]float64{1, 1, 1}); g != 1 {
		t.Fatalf("Geomean(1s) = %f", g)
	}
	if g := Geomean(nil); g == g { // NaN check
		t.Fatalf("Geomean(nil) = %f, want NaN", g)
	}
}

// mask reduces an experiment's output to its shape: titles, headers, row
// labels and summary wording stay, every measured value becomes N, and
// column padding collapses (widths follow the digits). A sign belongs to the
// number only at the start of a token, so "CVE-2010-2939" keeps its dashes.
var (
	hexRE    = regexp.MustCompile(`0x[0-9a-f]+`)
	signedRE = regexp.MustCompile(`(?m)(^|[\s(])-(\d)`)
	numRE    = regexp.MustCompile(`\d+(\.\d+)?`)
)

func mask(out string) string {
	out = hexRE.ReplaceAllString(out, "N")
	out = signedRE.ReplaceAllString(out, "$1$2")
	out = numRE.ReplaceAllString(out, "N")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, l := range lines {
		lines[i] = strings.Join(strings.Fields(l), " ")
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestExperiments is the one smoke test over the experiment table: every
// experiment runs at the smoke scale, every row has as many cells as its
// header, and the masked output equals testdata/<name>.golden — generated
// from the output of the per-experiment formatters this table replaced, so a
// table that gains, loses or renames a title, column, row or summary line
// fails here. The typed rows behind the tables are asserted by the tests
// below, which read the same cached results.
func TestExperiments(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.Name, func(t *testing.T) {
			res := smokeResult(t, e.Name)
			for _, tb := range res.Tables {
				for i, row := range tb.Rows {
					if len(row) != len(tb.Head) {
						t.Errorf("%q row %d: %d cells under %d headers: %q", tb.Title, i, len(row), len(tb.Head), row)
					}
				}
			}
			want, err := os.ReadFile(filepath.Join("testdata", e.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := mask(res.String()); got != string(want) {
				t.Errorf("shape differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s", e.Name, got, want)
			}
		})
	}
}

// An unknown name is refused before anything runs, naming every valid one;
// "all" is the whole table, in order.
func TestSelect(t *testing.T) {
	sel, err := Select("wire")
	if err == nil || sel != nil {
		t.Fatalf("Select(wire) = %v, %v; want an error and nothing to run", sel, err)
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
		if _, err := Select(name); err != nil {
			t.Errorf("Select(%s): %v", name, err)
		}
	}
	all, _ := Select("all")
	if len(all) != len(experiments) {
		t.Errorf("all runs %d of %d experiments", len(all), len(experiments))
	}
	for i, e := range all {
		if e.Name != experiments[i].Name {
			t.Errorf("all[%d] = %s, want %s", i, e.Name, experiments[i].Name)
		}
	}
}

// The experiment names live in the table. The two places that spell them
// out for readers — the command's usage comment and DESIGN.md's package
// table — must list exactly the table's names (the -experiment flag's help
// string is built from Names() and cannot drift).
func TestExperimentNamesDocumented(t *testing.T) {
	listRE := regexp.MustCompile(`-experiment ((?:\w+\|)+\w+)`)
	want := Names()
	slices.Sort(want)
	for _, path := range []string{"../../cmd/dangsan-bench/main.go", "../../DESIGN.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m := listRE.FindSubmatch(data)
		if m == nil {
			t.Errorf("%s: no -experiment a|b|c list", path)
			continue
		}
		got := strings.Split(string(m[1]), "|")
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s lists %v, the table has %v", path, got, want)
		}
	}
}

func TestRunSPECSmoke(t *testing.T) {
	for _, name := range []string{"fig9", "fig11"} {
		res := smokeResult(t, name)
		rows := res.Data.([]GridRow)
		if len(rows) != 19 || len(res.Tables[0].Rows) != 19 {
			t.Fatalf("%s: %d rows measured, %d printed", name, len(rows), len(res.Tables[0].Rows))
		}
		for _, r := range rows {
			for _, k := range backends.Paper() {
				m, ok := r.ByKind[k]
				if !ok || m.Seconds <= 0 {
					t.Fatalf("%s/%s: measurement %+v, %v", r.Benchmark, k, m, ok)
				}
			}
			if r.ByKind[backends.DangSan].PeakFootprint == 0 {
				t.Fatalf("%s: zero footprint", r.Benchmark)
			}
		}
	}
	if &smokeResult(t, "fig9").Data.([]GridRow)[0] != &smokeResult(t, "fig11").Data.([]GridRow)[0] {
		t.Fatal("fig9 and fig11 did not share one run")
	}
}

func TestRunScalabilitySmoke(t *testing.T) {
	rows := smokeResult(t, "fig10").Data.([]GridRow)
	if len(rows) == 0 || len(rows)%len(smokeSession.Threads) != 0 {
		t.Fatalf("%d rows for %d thread counts", len(rows), len(smokeSession.Threads))
	}
	// FreeSentry only at one thread.
	for _, r := range rows {
		if _, ok := r.ByKind[backends.FreeSentry]; ok != (r.Threads == 1) {
			t.Fatalf("%s at %d threads: freesentry ran = %v", r.Benchmark, r.Threads, ok)
		}
	}
	if &rows[0] != &smokeResult(t, "fig12").Data.([]GridRow)[0] {
		t.Fatal("fig10 and fig12 did not share one run")
	}
}

func TestRunServersSmoke(t *testing.T) {
	rows := smokeResult(t, "servers").Data.([]GridRow)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if _, ok := r.ByKind[backends.FreeSentry]; ok {
			t.Fatalf("%s: freesentry ran a multithreaded server", r.Benchmark)
		}
	}
}

func TestRunTable1Smoke(t *testing.T) {
	rows := smokeResult(t, "table1").Data.([]Table1Row)
	if len(rows) != 19 {
		t.Fatalf("rows = %d", len(rows))
	}
	// DangSan must track at least as many pointers as DangNULL everywhere.
	for _, r := range rows {
		if r.DangNULLPtrs > r.DangSan.Registered {
			t.Errorf("%s: dangnull tracked more (%d > %d)",
				r.Benchmark, r.DangNULLPtrs, r.DangSan.Registered)
		}
	}
}

func TestLookbackSweepSmoke(t *testing.T) {
	points := smokeResult(t, "ablation").Data.(AblationReport).Lookback
	if len(points) != 7 || points[0].Lookback != 0 || points[3].Lookback != 4 {
		t.Fatalf("points = %+v", points)
	}
	// Without lookback the logs must be (weakly) larger.
	if points[0].LogBytes < points[3].LogBytes {
		t.Errorf("no-lookback logs (%d) smaller than lookback-4 logs (%d)",
			points[0].LogBytes, points[3].LogBytes)
	}
}

func TestCompressionAblationSmoke(t *testing.T) {
	points := smokeResult(t, "ablation").Data.(AblationReport).Compression
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	off, on := points[0], points[1]
	if on.Compressed == 0 {
		t.Error("compression never fired on the locality-heavy analog")
	}
	if on.LogBytes > off.LogBytes {
		t.Errorf("compressed logs larger: %d > %d", on.LogBytes, off.LogBytes)
	}
}

func TestMapperAblationSmoke(t *testing.T) {
	points := smokeResult(t, "ablation").Data.(AblationReport).Mapper
	if len(points) != 4 || points[0].Objects != 1000 || points[2].Objects != 100000 {
		t.Fatalf("points = %+v", points)
	}
	// The tree must degrade relative to the shadow map as objects grow —
	// the paper's §4.3 argument.
	small := points[0].TreeNs / points[0].ShadowNs
	large := points[2].TreeNs / points[2].ShadowNs
	if large <= small*0.8 {
		t.Errorf("tree did not degrade: %.1fx at 1e3 vs %.1fx at 1e5", small, large)
	}
}

func TestShadowAblationSmoke(t *testing.T) {
	points := smokeResult(t, "ablation").Data.(AblationReport).Shadow
	if len(points) != 4 || points[2].ObjectBytes != 1<<20 {
		t.Fatalf("points = %+v", points)
	}
	big := points[2]
	// The §4.3 claims: fixed-ratio metadata ~1:1 with the object, and far
	// more expensive to initialize than the variable-ratio scheme.
	if big.FixedBytes < big.ObjectBytes {
		t.Fatalf("fixed metadata %d below object size %d", big.FixedBytes, big.ObjectBytes)
	}
	if big.FixedNs < 4*big.VariableNs {
		t.Fatalf("fixed create %.0fns not clearly above variable %.0fns", big.FixedNs, big.VariableNs)
	}
}

func TestRunFiveWaySmoke(t *testing.T) {
	rep := smokeResult(t, "fiveway").Data.(*FiveWayReport)
	if len(rep.Rows) != 19 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		for _, k := range backends.All() {
			if r.Seconds[k] <= 0 {
				t.Fatalf("%s/%s: no measurement", r.Benchmark, k)
			}
			if r.Footprint[k] == 0 {
				t.Fatalf("%s/%s: zero footprint", r.Benchmark, k)
			}
		}
		// Benign workloads: the check paths must have run and stayed silent.
		if r.XTag.Objects == 0 || r.XTag.Checks == 0 {
			t.Fatalf("%s: xtag check path idle: %+v", r.Benchmark, r.XTag)
		}
		if r.CAMP.Objects == 0 || r.CAMP.Checks == 0 {
			t.Fatalf("%s: camp check path idle: %+v", r.Benchmark, r.CAMP)
		}
		if r.XTag.Faults != 0 || r.CAMP.Faults != 0 {
			t.Fatalf("%s: faults on benign run: xtag=%d camp=%d",
				r.Benchmark, r.XTag.Faults, r.CAMP.Faults)
		}
	}
	e := rep.Elision
	if e.Seeds < 10 {
		t.Fatalf("elision seeds = %d", e.Seeds)
	}
	if e.DerefChecks == 0 {
		t.Fatal("elision sweep emitted no checks")
	}
	if e.DynamicChecksOpt > e.DynamicChecks {
		t.Fatalf("elision increased dynamic checks: %d -> %d",
			e.DynamicChecks, e.DynamicChecksOpt)
	}
}

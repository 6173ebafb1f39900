package main

import (
	"os"
	"sync/atomic"
	"testing"

	"dangsan/internal/service"
)

// TestMain lets the test binary be re-exec'd as a wire worker or as the
// echo server of the traced pass.
func TestMain(m *testing.M) {
	service.RunWorkerIfSpawned()
	runEchoServerIfSpawned()
	os.Exit(m.Run())
}

// The committed fingerprints are reproduced from their seeds (same seed,
// same input) and the two seeds give different inputs.
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloadSpecs {
		var got [2]fingerprint
		for i, seed := range []int64{1, 2} {
			fp, err := computeFingerprint(w, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			want, ok, err := committedFingerprint(seed, w.Name)
			if err != nil || !ok {
				t.Fatalf("%s seed %d: no committed fingerprint (%v)", w.Name, seed, err)
			}
			if !fp.equal(want) {
				t.Errorf("%s seed %d: fingerprint %+v, committed %+v", w.Name, seed, fp, want)
			}
			got[i] = fp
		}
		if got[0].equal(got[1]) {
			t.Errorf("%s: seeds 1 and 2 generate the same input", w.Name)
		}
	}
}

func TestFingerprintMismatchIsAnError(t *testing.T) {
	w, _ := workloadByName("svc-chan")
	fp, _ := computeFingerprint(w, 1)
	fp.Digest = "0000000000000000"
	want, _, _ := committedFingerprint(1, w.Name)
	if fp.equal(want) {
		t.Fatal("a changed digest compares equal")
	}
}

func TestServiceStreamPrefix(t *testing.T) {
	long := genClientStream(7, 1, 5000)
	short := genClientStream(7, 1, 1200)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("op %d differs: a shorter stream must be a prefix of a longer one", i)
		}
	}
	other := genClientStream(7, 0, 1200)
	same := 0
	for i := range short {
		if short[i] == other[i] {
			same++
		}
	}
	if same == len(short) {
		t.Fatal("two clients got the same stream")
	}
}

func TestStatsHelpers(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentileSorted(sorted, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentileSorted(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if lo, hi := minMax([]float64{3, -1, 7}); lo != -1 || hi != 7 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
}

// modelVerdicts replays ops against the model with the verdict a correct
// service gives, optionally tampered at one op, and returns the
// contradictions the model reports.
func modelVerdicts(ops []svcOp, tamperAt int) []string {
	clock := &freeClock{shardOf: func(string, uint64) int { return 0 }, frees: make([]atomic.Uint64, 1)}
	m := newVerdictModel("c0", ops, clock)
	var bad []string
	for i, o := range ops {
		if o.Kind != opCheck {
			m.intend(o)
			m.sending(o)
			m.answered(o)
			continue
		}
		var v service.Verdict
		switch m.state[o.Key] {
		case keyLive:
			v = service.Verdict{Known: true}
		case keyFreed:
			v = service.Verdict{Known: true, Freed: true, UAF: true}
		}
		if i == tamperAt {
			v.UAF = !v.UAF
		}
		if msg := m.check(o, v); msg != "" {
			bad = append(bad, msg)
		}
	}
	return bad
}

func TestModelRejectsTamperedVerdicts(t *testing.T) {
	ops := genClientStream(3, 0, 4000)
	if bad := modelVerdicts(ops, -1); len(bad) != 0 {
		t.Fatalf("model rejects a correct verdict stream: %v", bad)
	}
	liveCheck, freedCheck := -1, -1
	state := map[uint32]uint8{}
	for i, o := range ops {
		switch o.Kind {
		case opAlloc:
			state[o.Key] = opAlloc
		case opFree:
			state[o.Key] = opFree
		case opCheck:
			if state[o.Key] == opAlloc && liveCheck < 0 {
				liveCheck = i
			}
			if state[o.Key] == opFree && freedCheck < 0 {
				freedCheck = i
			}
		}
	}
	if liveCheck < 0 || freedCheck < 0 {
		t.Fatal("stream has no check of a live and of a freed key")
	}
	for _, at := range []int{liveCheck, freedCheck} {
		if bad := modelVerdicts(ops, at); len(bad) != 1 {
			t.Errorf("tampered verdict at op %d: model reported %v, want exactly one contradiction", at, bad)
		}
	}
}

func TestModelAcceptsPendingAndAgedOut(t *testing.T) {
	ops := []svcOp{{Kind: opAlloc, Key: 1, Size: 64, Stores: 4}, {Kind: opFree, Key: 1}, {Kind: opCheck, Key: 1}}
	clock := &freeClock{shardOf: func(string, uint64) int { return 0 }, frees: make([]atomic.Uint64, 1)}
	m := newVerdictModel("c0", ops, clock)
	m.intend(ops[0])
	m.sending(ops[0])
	m.answered(ops[0])
	m.intend(ops[1])
	m.sending(ops[1])
	m.pending[1]++ // the free came back degraded and is queued
	if msg := m.check(ops[2], service.Verdict{Known: true}); msg != "" {
		t.Errorf("verdict on a pending key rejected: %s", msg)
	}
	m.pending[1]--
	m.sending(ops[1])
	m.answered(ops[1])
	if msg := m.check(ops[2], service.Verdict{}); msg == "" {
		t.Error("a just-freed key reported unknown was accepted")
	}
	clock.frees[0].Add(svcFreedWindow)
	if msg := m.check(ops[2], service.Verdict{}); msg != "" || m.AgedOut != 1 {
		t.Errorf("a key past the freed window reported unknown was rejected: %q (aged out %d)", msg, m.AgedOut)
	}
}

func suiteWith(workload string, metrics map[string]float64) suiteResult {
	r := workloadResult{Workload: workload, Correct: true, EndToEnd: map[string]metricValue{}}
	for k, v := range metrics {
		r.EndToEnd[k] = metricValue{Value: v}
	}
	return suiteResult{Schema: resultSchema, Seed: 1, Scale: 1, Workloads: []workloadResult{r}}
}

func failedRows(rows []compareRow) []string {
	var names []string
	for _, r := range rows {
		if r.Fail {
			names = append(names, r.Metric.Name)
		}
	}
	return names
}

func TestCompare(t *testing.T) {
	base := map[string]float64{"setup_s": 0.1, "run_s": 1, "ops_per_s": 1000, "footprint_bytes": 1 << 20,
		"peak_rss_bytes": 1 << 26, "latency_us_p50": 4, "latency_us_p99": 90, "degraded_share": 0, "failed_share": 0}
	a := suiteWith("svc-chan", base)
	if bad := failedRows(compareSuites(a, a)); len(bad) != 0 {
		t.Fatalf("identical pair flagged: %v", bad)
	}
	for _, m := range endToEndSpecs {
		if _, ok := base[m.Name]; !ok {
			continue
		}
		worse := map[string]float64{}
		for k, v := range base {
			worse[k] = v
		}
		step := 2 * m.boundFor("svc-chan")
		switch {
		case step == 0:
			worse[m.Name] = 0.001 // absolute bound: any worsening
		case m.Better == "higher":
			worse[m.Name] = base[m.Name] * (1 - step)
		default:
			worse[m.Name] = base[m.Name] * (1 + step)
		}
		bad := failedRows(compareSuites(a, suiteWith("svc-chan", worse)))
		if len(bad) != 1 || bad[0] != m.Name {
			t.Errorf("2x-bound regression of %s: flagged %v", m.Name, bad)
		}
		// The same change the other way round is an improvement.
		if bad := failedRows(compareSuites(suiteWith("svc-chan", worse), a)); len(bad) != 0 {
			t.Errorf("improvement of %s flagged: %v", m.Name, bad)
		}
	}
	// Below full size only footprint_bytes and the absolute bounds gate.
	small, slow := suiteWith("svc-chan", base), suiteWith("svc-chan", base)
	small.Scale, slow.Scale = 0.05, 0.05
	slow.Workloads[0].EndToEnd["run_s"] = metricValue{Value: 2}
	slow.Workloads[0].EndToEnd["footprint_bytes"] = metricValue{Value: 2 << 20}
	if bad := failedRows(compareSuites(small, slow)); len(bad) != 1 || bad[0] != "footprint_bytes" {
		t.Errorf("5%% scale: flagged %v, want only footprint_bytes", bad)
	}
	// Within the bound passes.
	near := map[string]float64{}
	for k, v := range base {
		near[k] = v
	}
	near["run_s"] = 1.05
	if bad := failedRows(compareSuites(a, suiteWith("svc-chan", near))); len(bad) != 0 {
		t.Errorf("5%% slower run_s (bound 8%%) flagged: %v", bad)
	}
}

func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSONFile(root+"/BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(decl.Workloads), len(workloadSpecs))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadSpecs[i].Name {
			t.Errorf("workload %d: %q, want %q", i, w.Name, workloadSpecs[i].Name)
		}
	}
	var contract []metricSpec
	for _, m := range endToEndSpecs {
		if m.Contract {
			contract = append(contract, m)
		}
	}
	if len(decl.EndToEnd) != len(contract) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(decl.EndToEnd), len(contract))
	}
	for i, m := range decl.EndToEnd {
		if m.Name != contract[i].Name || m.Unit != contract[i].Unit || m.Better != contract[i].Better {
			t.Errorf("end-to-end metric %d: %+v, want %s %s %s", i, m, contract[i].Name, contract[i].Unit, contract[i].Better)
		}
	}
	if len(decl.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(decl.PerLayer), len(perLayerNames))
	}
	for i, m := range decl.PerLayer {
		want := layerSpec(perLayerNames[i])
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d: %+v, want %s %s %s", i, m, want.Name, want.Unit, want.Better)
		}
	}
}

// A 1% smoke run of all six workloads, untraced, plus the traced pass of
// one detector and one wire workload (a real worker process and the echo
// server process).
func TestSmokeAllWorkloads(t *testing.T) {
	root := t.TempDir()
	var parity [2]string
	for _, w := range workloadSpecs {
		res, err := runWorkload(runOptions{Workload: w, Seed: 1, Scale: 0.01, WorkRoot: root, SetupRepeats: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d: %v", w.Name, res.Attempted, res.Failed, res.Failures)
		}
		if _, err := contractLine(res); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for _, m := range endToEndSpecs {
			v, ok := res.EndToEnd[m.Name]
			if ok != m.appliesTo(w.Name) {
				t.Errorf("%s: metric %s reported=%v, applies=%v", w.Name, m.Name, ok, m.appliesTo(w.Name))
			}
			if ok && m.Contract && v.Value <= 0 {
				t.Errorf("%s: %s = %v, must be positive", w.Name, m.Name, v.Value)
			}
		}
		switch w.Name {
		case "svc-chan":
			parity[0] = res.Parity
		case "svc-unix":
			parity[1] = res.Parity
		}
	}
	if parity[0] == "" || parity[0] != parity[1] {
		t.Errorf("svc-chan and svc-unix verdict streams differ on the common prefix: %q vs %q", parity[0], parity[1])
	}
	for _, name := range []string{"spec-churn", "svc-unix"} {
		w, _ := workloadByName(name)
		res, err := runWorkload(runOptions{Workload: w, Seed: 1, Scale: 0.01, Traced: true, WorkRoot: root, SetupRepeats: 1})
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %v", name, res.Failures)
		}
		for _, layer := range perLayerNames {
			if _, ok := res.PerLayer[layer]; !ok {
				t.Errorf("%s traced: per-layer metric %s missing", name, layer)
			}
		}
	}
}

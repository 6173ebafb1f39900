// Command benchmark is the repository's one fixed benchmark: six named
// workloads, end-to-end metrics measured with tracing off, per-layer
// metrics from a separate traced pass, every output verified.
//
//	go run ./benchmark                         all six workloads, untraced and traced
//	go run ./benchmark -workload svc-unix      one workload, untraced (-trace 1: traced)
//	go run ./benchmark compare A.json B.json   fail when B is worse than A beyond a bound
//	go run ./benchmark selfcheck               two full sets of runs, compared both ways
//	go run ./benchmark fingerprints            print corpus/fingerprints.json for seeds 1 and 2
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"dangsan/internal/service"
)

func main() {
	// Wire workers and the echo server of the traced pass re-exec this
	// binary.
	service.RunWorkerIfSpawned()
	runEchoServerIfSpawned()
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "selfcheck":
			return selfcheckMain(args[1:])
		case "fingerprints":
			return fingerprintsMain()
		case "run":
			args = args[1:]
		}
	}
	return runMain(args)
}

// workRoot hosts everything a run leaves behind: work directories with
// sockets and cold segments, result files. Relative to the working
// directory, which keeps unix socket paths short and every write inside
// the checkout.
const workRoot = ".bench_build"

// runFlags are the flags of a run: one workload when -workload is given,
// the whole suite otherwise.
type runFlags struct {
	workload   string
	seed       int64
	seconds    float64
	scale      float64
	trace      int
	traceOut   string
	jsonOut    string
	resultJSON string
}

func parseRunFlags(name string, args []string) (runFlags, error) {
	var f runFlags
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "run only this workload (default: all six, each in its own child process)")
	fs.Int64Var(&f.seed, "seed", 1, "input generation seed")
	fs.Float64Var(&f.seconds, "seconds", nominalSeconds, "size the measured part for this many seconds on the reference box (scales the fixed op counts; never read from the clock)")
	fs.Float64Var(&f.scale, "scale", 1, "extra size multiplier (0.01 for a smoke run)")
	fs.IntVar(&f.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&f.traceOut, "trace-out", "", "write the traced run's spans to this file")
	fs.StringVar(&f.jsonOut, "json", "", "suite mode: write the full result set to this file")
	fs.StringVar(&f.resultJSON, "result-json", "", "single-workload mode: also write the full result to this file")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if fs.NArg() > 0 {
		return f, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if f.seconds <= 0 || f.scale <= 0 {
		return f, fmt.Errorf("-seconds and -scale must be positive")
	}
	return f, nil
}

func (f runFlags) sizeScale() float64 { return f.scale * f.seconds / nominalSeconds }

func runMain(args []string) int {
	f, err := parseRunFlags("benchmark", args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if f.workload == "" {
		suites, err := runSuites(f, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		suite := suites[0]
		if f.jsonOut != "" {
			if err := writeJSONFile(f.jsonOut, suite); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		if !suiteCorrect(suite) {
			return 1
		}
		return 0
	}
	w, ok := workloadByName(f.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", f.workload)
		return 2
	}
	opts := runOptions{
		Workload: w, Seed: f.seed, Scale: f.sizeScale(), Traced: f.trace != 0,
		TraceOut: f.traceOut, WorkRoot: workRoot, SetupRepeats: setupRepeats,
	}
	if opts.Traced {
		opts.SetupRepeats = 1 // the traced run does not report setup_s
	}
	res, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(os.Stdout, res)
	if f.resultJSON != "" {
		if err := writeJSONFile(f.resultJSON, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := contractLine(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runSuites runs sets full sets of runs: every workload untraced, then
// traced, each run in its own child process so peak RSS and Go heap state
// are per run. With more than one set the sets are interleaved workload by
// workload, so that a slow phase of the machine, which lasts minutes here,
// hits all sets alike.
func runSuites(f runFlags, sets int) ([]suiteResult, error) {
	suites := make([]suiteResult, sets)
	for i := range suites {
		suites[i] = suiteResult{Schema: resultSchema, Seed: f.seed, Scale: f.sizeScale(), GoMaxProcs: goMaxProcs}
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	for _, w := range workloadSpecs {
		for i := range suites {
			merged, err := runChild(f, w, 0)
			if err != nil {
				return nil, err
			}
			traced, err := runChild(f, w, 1)
			if err != nil {
				return nil, err
			}
			merged.PerLayer = traced.PerLayer
			merged.Attempted += traced.Attempted
			merged.Failed += traced.Failed
			merged.Failures = append(merged.Failures, traced.Failures...)
			merged.Notes = append(merged.Notes, traced.Notes...)
			merged.Correct = merged.Correct && traced.Correct
			suites[i].Workloads = append(suites[i].Workloads, merged)
		}
	}
	for i := range suites {
		checkParity(&suites[i])
		fmt.Printf("\n==== summary, set %d of %d ====\n", i+1, sets)
		for _, r := range suites[i].Workloads {
			printResult(os.Stdout, r)
		}
	}
	return suites, nil
}

// runChild runs one workload once in a child process and reads its result.
func runChild(f runFlags, w workloadSpec, trace int) (workloadResult, error) {
	var res workloadResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	out := filepath.Join(workRoot, fmt.Sprintf("result-%d-%s-%d.json", os.Getpid(), w.Name, trace))
	args := []string{"run", "-workload", w.Name,
		"-seed", fmt.Sprint(f.seed), "-seconds", fmt.Sprint(f.seconds), "-scale", fmt.Sprint(f.scale),
		"-trace", fmt.Sprint(trace), "-result-json", out}
	if trace == 1 && f.traceOut != "" {
		args = append(args, "-trace-out", f.traceOut+"."+w.Name)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	defer os.Remove(out)
	if err := readJSONFile(out, &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s (trace %d): %w", w.Name, trace, runErr)
		}
		return res, err
	}
	return res, nil
}

// checkParity requires svc-chan and svc-unix to have produced identical
// per-client verdict streams on their common prefix.
func checkParity(suite *suiteResult) {
	var chanRes, unixRes *workloadResult
	for i := range suite.Workloads {
		switch suite.Workloads[i].Workload {
		case "svc-chan":
			chanRes = &suite.Workloads[i]
		case "svc-unix":
			unixRes = &suite.Workloads[i]
		}
	}
	if chanRes == nil || unixRes == nil || chanRes.Parity == unixRes.Parity {
		return
	}
	unixRes.fail(fmt.Sprintf("verdict streams differ on the common prefix: svc-chan %s, svc-unix %s", chanRes.Parity, unixRes.Parity))
	unixRes.Correct = false
}

func suiteCorrect(s suiteResult) bool {
	for _, r := range s.Workloads {
		if !r.Correct {
			return false
		}
	}
	return true
}

// fingerprintsMain prints the corpus file for the default and the held-out
// seed.
func fingerprintsMain() int {
	all := map[string]map[string]fingerprint{}
	for _, seed := range []int64{1, 2} {
		per := map[string]fingerprint{}
		for _, w := range workloadSpecs {
			fp, err := computeFingerprint(w, seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			per[w.Name] = fp
		}
		all[fmt.Sprint(seed)] = per
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

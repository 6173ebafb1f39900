// Command dangsan-bench regenerates the paper's evaluation: every figure
// and table of §8 plus the design ablations.
//
// Usage:
//
//	dangsan-bench -experiment all|fig9|fig11|fig10|fig12|table1|servers|fiveway|exploits|ablation
//	              [-scale 1.0] [-seed 1] [-repeat 1] [-threads 1,2,4,8,16,32,64] [-v]
//	              [-metrics out.json] [-audit]
//	              [-bench-json out.json] [-cpuprofile prof.out] [-memprofile mem.out]
//
// The experiments are the rows of one table in internal/bench; "all" runs
// every row. Results go to stdout; progress (with -v) to stderr. Every
// timed data point is measured the same way: -repeat runs, the fastest
// kept. -metrics writes a final JSON snapshot of every instrument to the
// given file ("-" for stdout); feed it to `dangsan-stats` for a
// human-readable rendering. -audit turns on DangSan's log-byte accounting
// cross-check; any drift fails the run. -bench-json writes the typed rows
// of every experiment that ran as one JSON document to the path it is
// given.
//
// The fiveway experiment runs the SPEC analogs under the full five-way
// detector matrix — baseline, the three pointer-invalidation backends, and
// the checked-dereference xtag and camp backends — and quantifies camp's
// static dereference-check elision on a sweep of generated programs.
//
// The fail-open invariants under injected faults are checked by
// `go test ./internal/chaos`, the differential oracle by
// `go test ./internal/differ`.
// The service and the cold tier are measured by `go run ./benchmark`, the
// free path by `go test ./internal/detectors/dangsan -bench BenchmarkFree`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dangsan/internal/bench"
	"dangsan/internal/obs"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: "+strings.Join(bench.Names(), ", "))
	scale := flag.Float64("scale", 1.0, "workload scale factor (0.1 for a quick run)")
	seed := flag.Int64("seed", 1, "workload random seed")
	repeat := flag.Int("repeat", 1, "measurements per data point; the fastest is kept")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts for fig10/fig12 (default 1,2,4,8,16,32,64)")
	verbose := flag.Bool("v", false, "print progress to stderr")
	metricsFile := flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit (\"-\" for stdout)")
	audit := flag.Bool("audit", false, "enable DangSan's log-byte accounting cross-check (fails on drift)")
	benchJSONFile := flag.String("bench-json", "", "write the machine-readable results of every experiment run to this JSON file (\"-\" for stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	selected, err := bench.Select(*experiment)
	check(err)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	var progress func(string)
	if *verbose {
		progress = func(s string) { fmt.Fprintf(os.Stderr, "... %s\n", s) }
	}
	opts := bench.Options{Scale: *scale, Seed: *seed, Repeat: *repeat, Audit: *audit}

	var benchJSON *bench.BenchJSON
	if *benchJSONFile != "" {
		benchJSON = bench.NewBenchJSON()
		defer func() {
			check(benchJSON.Write(*benchJSONFile))
		}()
	}

	if *metricsFile != "" {
		reg := obs.NewRegistry()
		opts.Metrics = reg
		defer func() {
			data, err := reg.Snapshot().MarshalJSONIndent()
			check(err)
			if *metricsFile == "-" {
				fmt.Printf("%s\n", data)
				return
			}
			check(os.WriteFile(*metricsFile, append(data, '\n'), 0o644))
		}()
	}

	var threads []int
	if *threadsFlag != "" {
		for _, tok := range strings.Split(*threadsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n < 1 {
				fatalf("bad -threads value %q", tok)
			}
			threads = append(threads, n)
		}
	}

	session := bench.NewSession(opts, threads, progress)
	for _, e := range selected {
		res, err := e.Run(session)
		check(err)
		fmt.Println(res)
		benchJSON.Add(res.Key, res.Data)
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dangsan-bench: "+format+"\n", args...)
	os.Exit(1)
}

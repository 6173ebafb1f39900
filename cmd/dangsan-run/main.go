// Command dangsan-run compiles (instruments) and executes a textual IR
// program on the simulated process runtime — the equivalent of building a C
// program with the DangSan compiler flags and running it.
//
// Usage:
//
//	dangsan-run [-detector dangsan|baseline|dangnull|freesentry|xtag|camp]
//	            [-no-instrument] [-no-opt] [-O] [-dump] [-entry main] program.ir
//
// The process's exit status reflects the program's fate: 0 on clean exit,
// 2 on a trap (e.g. a use-after-free caught by DangSan).
package main

import (
	"flag"
	"fmt"
	"os"

	"dangsan/internal/detectors/backends"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/instrument"
	"dangsan/internal/interp"
	"dangsan/internal/ir/opt"
	"dangsan/internal/irparse"
)

func main() {
	detector := flag.String("detector", "dangsan", fmt.Sprintf("detector, one of %v", backends.All()))
	noInstrument := flag.Bool("no-instrument", false, "skip the pointer-tracker pass")
	noOpt := flag.Bool("no-opt", false, "run the pass without the static optimizations")
	optimize := flag.Bool("O", false, "run the optimizer (constant folding, DCE, CFG simplification) before instrumenting")
	dump := flag.Bool("dump", false, "print the (instrumented) IR before running")
	entry := flag.String("entry", "main", "entry function")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dangsan-run [flags] program.ir")
		os.Exit(1)
	}
	src, err := os.ReadFile(flag.Arg(0))
	check(err)
	mod, err := irparse.Parse(string(src))
	check(err)

	if *optimize {
		ores, err := opt.Optimize(mod)
		check(err)
		fmt.Fprintf(os.Stderr, "optimized: %d folded, %d eliminated, %d blocks removed\n",
			ores.Folded, ores.Eliminated, ores.BlocksRemoved)
	}
	if !*noInstrument {
		opts := instrument.DefaultOptions()
		if *noOpt {
			opts = instrument.Options{}
		}
		res, err := instrument.Pass(mod, opts)
		check(err)
		fmt.Fprintf(os.Stderr, "instrumented: %d pointer stores, %d hooks inserted, %d hoisted, %d elided, %d/%d deref checks elided\n",
			res.PtrStores, res.Inserted, res.Hoisted, res.ElidedArithmetic,
			res.ElidedChecks, res.ElidedChecks+res.DerefChecks)
	}
	if *dump {
		fmt.Print(mod.String())
	}

	det, err := backends.New(backends.Kind(*detector), dangsan.Options{})
	check(err)
	rt := interp.New(mod, det, interp.Options{Entry: *entry, Output: os.Stdout})
	res, err := rt.Run()
	check(err)
	if res.Trap != nil {
		fmt.Fprintf(os.Stderr, "%v\n", res.Trap)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "exit value: %d\n", res.Ret)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dangsan-run: %v\n", err)
		os.Exit(1)
	}
}

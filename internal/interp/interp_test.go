package interp_test

import (
	"os"
	"strings"
	"testing"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/instrument"
	"dangsan/internal/interp"
	"dangsan/internal/ir"
	"dangsan/internal/irparse"
	"dangsan/internal/vmem"
)

func run(t *testing.T, src string, det detectors.Detector, instrumented bool) *interp.Result {
	t.Helper()
	m, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if instrumented {
		if _, err := instrument.Pass(m, instrument.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := interp.New(m, det, interp.Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestArithmeticAndControlFlow(t *testing.T) {
	// Sum of 1..10 via a loop.
	src := `
func main() i64 {
entry:
  r0 = mov 0
  r1 = mov 1
  br head
head:
  r2 = icmp le r1, 10
  br r2, body, exit
body:
  r0 = add r0, r1
  r1 = add r1, 1
  br head
exit:
  ret r0
}`
	res := run(t, src, detectors.None{}, false)
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if res.Ret != 55 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestOpcodes(t *testing.T) {
	src := `
func main() i64 {
entry:
  r0 = mov 100
  r1 = sub r0, 30     ; 70
  r2 = mul r1, 2      ; 140
  r3 = div r2, 7      ; 20
  r4 = rem r3, 6      ; 2
  r5 = shl r4, 4      ; 32
  r6 = shr r5, 1      ; 16
  r7 = or r6, 1       ; 17
  r8 = and r7, 0xFE   ; 16
  r9 = xor r8, 3      ; 19
  ret r9
}`
	res := run(t, src, detectors.None{}, false)
	if res.Trap != nil || res.Ret != 19 {
		t.Fatalf("ret = %d, trap = %v", res.Ret, res.Trap)
	}
}

func TestSignedCompare(t *testing.T) {
	src := `
func main() i64 {
entry:
  r0 = mov -5
  r1 = icmp slt r0, 3   ; signed: true
  r2 = icmp lt r0, 3    ; unsigned: false (huge value)
  r3 = shl r1, 1
  r4 = or r3, r2
  ret r4
}`
	res := run(t, src, detectors.None{}, false)
	if res.Ret != 2 {
		t.Fatalf("ret = %d, want 2", res.Ret)
	}
}

func TestHeapAndMemory(t *testing.T) {
	src := `
func main() i64 {
entry:
  r0 = malloc 64
  store i64 [r0], 41
  r1 = load i64 [r0]
  r2 = add r1, 1
  r3 = gep r0, 8
  store i64 [r3], r2
  r4 = load i64 [r3]
  free r0
  ret r4
}`
	res := run(t, src, detectors.None{}, false)
	if res.Trap != nil || res.Ret != 42 {
		t.Fatalf("ret = %d, trap = %v", res.Ret, res.Trap)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	src := `
func fib(n i64) i64 {
entry:
  r1 = icmp lt n, 2
  br r1, base, rec
base:
  ret n
rec:
  r2 = sub n, 1
  r3 = call fib(r2)
  r4 = sub n, 2
  r5 = call fib(r4)
  r6 = add r3, r5
  ret r6
}
func main() i64 {
entry:
  r0 = call fib(10)
  ret r0
}`
	res := run(t, src, detectors.None{}, false)
	if res.Trap != nil || res.Ret != 55 {
		t.Fatalf("fib(10) = %d, trap = %v", res.Ret, res.Trap)
	}
}

func TestAllocaStackDiscipline(t *testing.T) {
	src := `
func child() i64 {
entry:
  r0 = alloca 32
  store i64 [r0], 7
  r1 = load i64 [r0]
  ret r1
}
func main() i64 {
entry:
  r0 = call child()
  r1 = call child()
  r2 = add r0, r1
  ret r2
}`
	res := run(t, src, detectors.None{}, false)
	if res.Trap != nil || res.Ret != 14 {
		t.Fatalf("ret = %d, trap = %v", res.Ret, res.Trap)
	}
}

func TestPrintOutput(t *testing.T) {
	src := `
func main() {
entry:
  print 1
  print -2
  ret
}`
	m, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res, err := interp.New(m, detectors.None{}, interp.Options{Output: &sb}).Run()
	if err != nil || res.Trap != nil {
		t.Fatal(err, res.Trap)
	}
	if sb.String() != "1\n-2\n" {
		t.Fatalf("output = %q", sb.String())
	}
}

func TestSpawnJoin(t *testing.T) {
	src := `
global sum 8
func worker(n i64) {
entry:
  r1 = global sum
  r2 = load i64 [r1]
  r3 = add r2, n
  store i64 [r1], r3
  ret
}
func main() i64 {
entry:
  r0 = spawn worker(40)
  join r0
  r1 = spawn worker(2)
  join r1
  r2 = global sum
  r3 = load i64 [r2]
  ret r3
}`
	res := run(t, src, detectors.None{}, false)
	if res.Trap != nil || res.Ret != 42 {
		t.Fatalf("ret = %d, trap = %v", res.Ret, res.Trap)
	}
}

const uafProgram = `
global slot 8
func main() i64 {
entry:
  r0 = malloc 64
  r1 = global slot
  store ptr [r1], r0
  free r0
  r2 = load ptr [r1]     ; dangling (or invalidated) pointer
  r3 = load i64 [r2]     ; use after free
  ret r3
}`

func TestUAFUndetectedWithoutInstrumentation(t *testing.T) {
	// The baseline program reads freed memory successfully: the bug is
	// silent, which is the threat the paper addresses.
	res := run(t, uafProgram, detectors.None{}, false)
	if res.Trap != nil {
		t.Fatalf("baseline trapped: %v", res.Trap)
	}
}

func TestUAFTrappedUnderDangSan(t *testing.T) {
	res := run(t, uafProgram, dangsan.New(), true)
	if res.Trap == nil {
		t.Fatal("use-after-free not trapped")
	}
	if res.Trap.Fault == nil || res.Trap.Fault.Kind != vmem.FaultNonCanonical {
		t.Fatalf("trap = %v, want non-canonical fault", res.Trap)
	}
	// The fault address reveals the original pointer (top bit set).
	if res.Trap.Fault.Addr>>63 != 1 {
		t.Fatalf("fault address 0x%x lacks the invalid bit", res.Trap.Fault.Addr)
	}
}

func TestDoubleFreeTrappedUnderDangSan(t *testing.T) {
	src := `
global slot 8
func main() {
entry:
  r0 = malloc 64
  r1 = global slot
  store ptr [r1], r0
  r2 = load ptr [r1]
  free r2
  r3 = load ptr [r1]
  free r3             ; frees the invalidated pointer
  ret
}`
	res := run(t, src, dangsan.New(), true)
	if res.Trap == nil || res.Trap.Err == nil {
		t.Fatalf("trap = %v", res.Trap)
	}
	if !strings.Contains(res.Trap.Err.Error(), "attempt to free invalid pointer 0x8") {
		t.Fatalf("unexpected abort: %v", res.Trap.Err)
	}
}

func TestHoistedRegistrationStillProtects(t *testing.T) {
	// The loop optimization must not lose protection: the pointer stored in
	// the (free-less) loop is still invalidated at the later free.
	src := `
global slot 8
func main() i64 {
entry:
  r0 = malloc 64
  r1 = global slot
  r2 = mov 0
  br head
head:
  r3 = icmp lt r2, 50
  br r3, body, exit
body:
  store ptr [r1], r0
  r2 = add r2, 1
  br head
exit:
  free r0
  r4 = load ptr [r1]
  r5 = load i64 [r4]   ; must trap
  ret r5
}`
	m, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := instrument.Pass(m, instrument.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res0.Hoisted == 0 {
		t.Fatalf("expected hoisting to fire: %+v", res0)
	}
	res, err := interp.New(m, dangsan.New(), interp.Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil || res.Trap.Fault == nil {
		t.Fatalf("hoisted program not protected: %v", res.Trap)
	}
}

func TestArithmeticElisionStillProtects(t *testing.T) {
	// p = p + 8 elides re-registration, but the original registration must
	// still invalidate the (now interior) pointer at free time.
	src := `
global slot 8
func main() i64 {
entry:
  r0 = malloc 64
  r1 = global slot
  store ptr [r1], r0
  r2 = load ptr [r1]
  r3 = gep r2, 8
  store ptr [r1], r3
  free r0
  r4 = load ptr [r1]
  r5 = load i64 [r4]
  ret r5
}`
	m, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := instrument.Pass(m, instrument.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pres.ElidedArithmetic != 1 {
		t.Fatalf("elision did not fire: %+v", pres)
	}
	res, err := interp.New(m, dangsan.New(), interp.Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil || res.Trap.Fault == nil {
		t.Fatalf("elided program not protected: %v", res.Trap)
	}
}

func TestMultithreadedUAFTrapped(t *testing.T) {
	// One thread stores a pointer; main frees; the worker's later use
	// traps. Join ordering makes the race deterministic.
	src := `
global slot 8
global obj 8
func storer() {
entry:
  r0 = malloc 64
  r1 = global obj
  store ptr [r1], r0
  r2 = global slot
  store ptr [r2], r0
  ret
}
func user() i64 {
entry:
  r0 = global slot
  r1 = load ptr [r0]
  r2 = load i64 [r1]
  ret r2
}
func main() {
entry:
  r0 = spawn storer()
  join r0
  r1 = global obj
  r2 = load ptr [r1]
  free r2
  r3 = spawn user()
  join r3
  ret
}`
	res := run(t, src, dangsan.New(), true)
	if res.Trap == nil || res.Trap.Fault == nil {
		t.Fatalf("cross-thread UAF not trapped: %v", res.Trap)
	}
	if res.Trap.Func != "user" {
		t.Fatalf("trap in %s, want user", res.Trap.Func)
	}
}

// TestRegisterResidentPointerEscapes documents the §7 limitation shared by
// every pointer-invalidation system: a pointer that lives only in a
// register (here: an IR register) is never stored to memory, so free-time
// invalidation cannot reach it, and its use after free is a silent false
// negative.
func TestRegisterResidentPointerEscapes(t *testing.T) {
	src := `
func main() i64 {
entry:
  r0 = malloc 64
  store i64 [r0], 7      ; plain data write, not a tracked pointer store
  free r0
  r1 = load i64 [r0]     ; UAF through the register copy: NOT caught
  ret r1
}`
	res := run(t, src, dangsan.New(), true)
	if res.Trap != nil {
		t.Fatalf("register-resident UAF unexpectedly trapped: %v", res.Trap)
	}
	if res.Ret != 7 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestStepLimit(t *testing.T) {
	src := `
func main() {
entry:
  br entry
}`
	m, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.New(m, detectors.None{}, interp.Options{MaxSteps: 1000}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil || !strings.Contains(res.Trap.Err.Error(), "step limit") {
		t.Fatalf("empty-loop trap = %v", res.Trap)
	}
	src2 := `
func main() {
entry:
  r0 = mov 0
  br entry
}`
	m2, _ := irparse.Parse(src2)
	res2, err := interp.New(m2, detectors.None{}, interp.Options{MaxSteps: 1000}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trap == nil || !strings.Contains(res2.Trap.Err.Error(), "step limit") {
		t.Fatalf("trap = %v", res2.Trap)
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	src := `
func main() i64 {
entry:
  r0 = mov 0
  r1 = div 5, r0
  ret r1
}`
	res := run(t, src, detectors.None{}, false)
	if res.Trap == nil || !strings.Contains(res.Trap.Err.Error(), "division by zero") {
		t.Fatalf("trap = %v", res.Trap)
	}
}

func TestNullDereferenceTraps(t *testing.T) {
	src := `
func main() i64 {
entry:
  r0 = mov 0
  r1 = load i64 [r0]
  ret r1
}`
	res := run(t, src, detectors.None{}, false)
	if res.Trap == nil || res.Trap.Fault == nil || res.Trap.Fault.Kind != vmem.FaultNoSegment {
		t.Fatalf("trap = %v", res.Trap)
	}
}

func TestReallocProgram(t *testing.T) {
	src := `
global slot 8
func main() i64 {
entry:
  r0 = malloc 64
  store i64 [r0], 99
  r1 = global slot
  store ptr [r1], r0
  r2 = realloc r0, 2097152   ; forces a move
  r3 = load i64 [r2]         ; data preserved
  r4 = load ptr [r1]         ; old pointer was invalidated
  r5 = shr r4, 63
  r6 = mul r5, 100
  r7 = add r3, r6            ; 99 + 100
  free r2
  ret r7
}`
	res := run(t, src, dangsan.New(), true)
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if res.Ret != 199 {
		t.Fatalf("ret = %d, want 199", res.Ret)
	}
}

func TestMissingEntry(t *testing.T) {
	m, _ := irparse.Parse("func f() {\nentry:\n  ret\n}")
	if _, err := interp.New(m, detectors.None{}, interp.Options{}).Run(); err == nil {
		t.Fatal("missing main accepted")
	}
}

func mustOp(t *testing.T, f *ir.Func, op ir.Op) {
	t.Helper()
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				return
			}
		}
	}
	t.Fatalf("op %v not found", op)
}

func TestInstrumentedModulePrintsAndReruns(t *testing.T) {
	m, err := irparse.Parse(uafProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := instrument.Pass(m, instrument.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	mustOp(t, m.Funcs["main"], ir.OpRegPtr)
	// The instrumented module's textual form re-parses and still protects.
	m2, err := irparse.Parse(m.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, m.String())
	}
	res, err := interp.New(m2, dangsan.New(), interp.Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil {
		t.Fatal("reparsed instrumented program not protected")
	}
}

// examples/programs/hoist.ir is the §6 static optimizations on one program:
// the pass hoists the build loop's invariant registration and elides the
// cursor's pointer-arithmetic one, and the teardown's use-after-free reads
// the freed head node (value 15) unprotected but traps under DangSan.
func TestHoistExampleProgram(t *testing.T) {
	src, err := os.ReadFile("../../examples/programs/hoist.ir")
	if err != nil {
		t.Fatal(err)
	}
	m, err := irparse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	pass, err := instrument.Pass(m, instrument.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pass.Hoisted < 1 || pass.ElidedArithmetic < 1 {
		t.Fatalf("pass hoisted %d and elided %d registrations, want at least one each", pass.Hoisted, pass.ElidedArithmetic)
	}
	if res := run(t, string(src), detectors.None{}, true); res.Trap != nil || res.Ret != 15 {
		t.Fatalf("unprotected run: trap %v, ret %d; want the freed node's value 15", res.Trap, res.Ret)
	}
	if res := run(t, string(src), dangsan.New(), true); res.Trap == nil || res.Trap.Fault == nil {
		t.Fatalf("dangsan run: trap %v, want a fault", res.Trap)
	}
}

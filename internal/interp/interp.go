// Package interp executes ir.Module programs on the simulated process
// runtime. It is the "instrumented binary" of the paper's Figure 1: raw
// stores write simulated memory directly, while the OpRegPtr hooks that the
// instrumentation pass inserted invoke the detector — so running the same
// program with and without the pass (or with different detectors) measures
// exactly the instrumentation cost.
//
// A simulated crash (segmentation fault, allocator abort, division by zero)
// stops the faulting thread and surfaces as a Trap; for a DangSan-protected
// program with a use-after-free bug, that Trap carries the non-canonical
// fault address that proves the dangling dereference was caught.
package interp

import (
	"fmt"
	"io"
	"sync"

	"dangsan/internal/detectors"
	"dangsan/internal/ir"
	"dangsan/internal/proc"
	"dangsan/internal/vmem"
)

// Trap describes an abnormal program stop.
type Trap struct {
	// Fault is set for simulated memory faults.
	Fault *vmem.Fault
	// Err is set for allocator aborts and runtime errors.
	Err error
	// Func and Instr locate the trapping instruction.
	Func  string
	Instr string
}

func (t *Trap) Error() string {
	loc := fmt.Sprintf("%s: %s", t.Func, t.Instr)
	if t.Fault != nil {
		return fmt.Sprintf("trap at %s: %v", loc, t.Fault)
	}
	return fmt.Sprintf("trap at %s: %v", loc, t.Err)
}

// Options configure a run.
type Options struct {
	// Entry is the function to run; defaults to "main".
	Entry string
	// Output receives OpPrint output; nil discards it.
	Output io.Writer
	// MaxSteps bounds instructions per thread (0 = default 100M).
	MaxSteps uint64
}

// Result reports a completed run.
type Result struct {
	// Ret is the entry function's return value (0 for void).
	Ret uint64
	// Trap is non-nil if any thread trapped; the entry thread's trap takes
	// priority, otherwise the first spawned thread's.
	Trap *Trap
}

// Runtime executes one module against one process.
type Runtime struct {
	mod  *ir.Module
	p    *proc.Process
	opts Options

	globalMu sync.Mutex
	globals  map[string]uint64

	threadMu  sync.Mutex
	threads   map[uint64]*threadState
	nextTh    uint64
	firstTrap *Trap
}

type threadState struct {
	done chan struct{}
	trap *Trap
}

// New creates a runtime for the module over a fresh process guarded by det.
func New(mod *ir.Module, det detectors.Detector, opts Options) *Runtime {
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 100_000_000
	}
	rt := &Runtime{
		mod:     mod,
		p:       proc.New(det),
		opts:    opts,
		globals: make(map[string]uint64),
		threads: make(map[uint64]*threadState),
	}
	for _, g := range mod.Globals {
		rt.globals[g.Name] = rt.p.AllocGlobal(g.Size)
	}
	return rt
}

// Process exposes the underlying process (for inspecting memory after a
// run).
func (rt *Runtime) Process() *proc.Process { return rt.p }

// Run executes the entry function to completion, waiting for all spawned
// threads that were joined; unjoined threads are not waited for.
func (rt *Runtime) Run() (*Result, error) {
	entry, ok := rt.mod.Funcs[rt.opts.Entry]
	if !ok {
		return nil, fmt.Errorf("interp: no function %q", rt.opts.Entry)
	}
	if len(entry.Params) != 0 {
		return nil, fmt.Errorf("interp: entry function %s takes %d args, want none",
			entry.Name, len(entry.Params))
	}
	th := rt.p.NewThread()
	ex := &executor{rt: rt, th: th}
	ret, trap := ex.callFunc(entry, nil)
	// Release anything a deferred-free detector withholds before
	// reporting: post-run checks (LiveObjects) must see the state an
	// inline-free run would have reached.
	rt.p.Quiesce()
	res := &Result{Ret: ret, Trap: trap}
	if res.Trap == nil {
		rt.threadMu.Lock()
		res.Trap = rt.firstTrap
		rt.threadMu.Unlock()
	}
	return res, nil
}

// executor runs code on one thread.
type executor struct {
	rt    *Runtime
	th    *proc.Thread
	steps uint64
}

func (ex *executor) trapf(f *ir.Func, in *ir.Instr, fault *vmem.Fault, err error) *Trap {
	instr := "<terminator>"
	if in != nil {
		instr = in.String()
	}
	return &Trap{Fault: fault, Err: err, Func: f.Name, Instr: instr}
}

// traperr wraps an error from an allocator-facing operation, recognizing
// detected use-after-frees: checked-dereference detectors report a stale
// free/realloc as a *vmem.Fault, which must surface in Trap.Fault like any
// other simulated memory fault.
func (ex *executor) traperr(f *ir.Func, in *ir.Instr, err error) *Trap {
	if fault, ok := err.(*vmem.Fault); ok {
		return ex.trapf(f, in, fault, nil)
	}
	return ex.trapf(f, in, nil, err)
}

// callFunc executes f with the given arguments, returning its value.
func (ex *executor) callFunc(f *ir.Func, args []uint64) (uint64, *Trap) {
	regs := make([]uint64, f.NumRegs)
	copy(regs, args)
	mark := ex.th.StackMark()
	defer ex.th.FreeStack(mark)

	val := func(v ir.Value) uint64 {
		if v.IsReg {
			return regs[v.Reg]
		}
		return v.Imm
	}

	bi := 0
	for {
		b := f.Blocks[bi]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			ex.steps++
			if ex.steps > ex.rt.opts.MaxSteps {
				return 0, ex.trapf(f, in, nil, fmt.Errorf("step limit exceeded"))
			}
			switch in.Op {
			case ir.OpMov:
				regs[in.Dst] = val(in.A)
			case ir.OpAdd:
				regs[in.Dst] = val(in.A) + val(in.B)
			case ir.OpSub:
				regs[in.Dst] = val(in.A) - val(in.B)
			case ir.OpMul:
				regs[in.Dst] = val(in.A) * val(in.B)
			case ir.OpDiv:
				d := val(in.B)
				if d == 0 {
					return 0, ex.trapf(f, in, nil, fmt.Errorf("division by zero"))
				}
				regs[in.Dst] = val(in.A) / d
			case ir.OpRem:
				d := val(in.B)
				if d == 0 {
					return 0, ex.trapf(f, in, nil, fmt.Errorf("division by zero"))
				}
				regs[in.Dst] = val(in.A) % d
			case ir.OpAnd:
				regs[in.Dst] = val(in.A) & val(in.B)
			case ir.OpOr:
				regs[in.Dst] = val(in.A) | val(in.B)
			case ir.OpXor:
				regs[in.Dst] = val(in.A) ^ val(in.B)
			case ir.OpShl:
				regs[in.Dst] = val(in.A) << (val(in.B) & 63)
			case ir.OpShr:
				regs[in.Dst] = val(in.A) >> (val(in.B) & 63)
			case ir.OpICmp:
				regs[in.Dst] = icmp(in.Pred, val(in.A), val(in.B))
			case ir.OpGep:
				regs[in.Dst] = val(in.A) + val(in.B)
			case ir.OpLoad:
				var v uint64
				var fault *vmem.Fault
				if in.NoCheck {
					v, fault = ex.th.LoadNoCheck(val(in.A))
				} else {
					v, fault = ex.th.Load(val(in.A))
				}
				if fault != nil {
					return 0, ex.trapf(f, in, fault, nil)
				}
				regs[in.Dst] = v
			case ir.OpStore:
				// Raw store: instrumentation is explicit via OpRegPtr.
				var fault *vmem.Fault
				if in.NoCheck {
					fault = ex.th.StoreIntNoCheck(val(in.A), val(in.B))
				} else {
					fault = ex.th.StoreInt(val(in.A), val(in.B))
				}
				if fault != nil {
					return 0, ex.trapf(f, in, fault, nil)
				}
			case ir.OpRegPtr:
				ex.th.RegisterPtr(val(in.A), val(in.B))
			case ir.OpAlloca:
				regs[in.Dst] = ex.th.Alloca(in.Size)
			case ir.OpGlobal:
				regs[in.Dst] = ex.rt.globals[in.Name]
			case ir.OpMalloc:
				addr, err := ex.th.Malloc(val(in.A))
				if err != nil {
					return 0, ex.trapf(f, in, nil, err)
				}
				regs[in.Dst] = addr
			case ir.OpFree:
				if err := ex.th.Free(val(in.A)); err != nil {
					return 0, ex.traperr(f, in, err)
				}
			case ir.OpRealloc:
				addr, err := ex.th.Realloc(val(in.A), val(in.B))
				if err != nil {
					return 0, ex.traperr(f, in, err)
				}
				regs[in.Dst] = addr
			case ir.OpCall:
				callee := ex.rt.mod.Funcs[in.Name]
				args := make([]uint64, len(in.Args))
				for j, a := range in.Args {
					args[j] = val(a)
				}
				ret, trap := ex.callFunc(callee, args)
				if trap != nil {
					return 0, trap
				}
				if in.Dst >= 0 {
					regs[in.Dst] = ret
				}
			case ir.OpSpawn:
				args := make([]uint64, len(in.Args))
				for j, a := range in.Args {
					args[j] = val(a)
				}
				regs[in.Dst] = ex.rt.spawn(in.Name, args)
			case ir.OpJoin:
				if trap := ex.rt.join(val(in.A)); trap != nil {
					return 0, trap
				}
			case ir.OpPrint:
				if ex.rt.opts.Output != nil {
					fmt.Fprintf(ex.rt.opts.Output, "%d\n", int64(val(in.A)))
				}
			default:
				return 0, ex.trapf(f, in, nil, fmt.Errorf("bad opcode %v", in.Op))
			}
		}
		// Terminators count as steps too, so an empty infinite loop still
		// hits the step limit.
		ex.steps++
		if ex.steps > ex.rt.opts.MaxSteps {
			return 0, ex.trapf(f, nil, nil, fmt.Errorf("step limit exceeded"))
		}
		switch b.Term.Kind {
		case ir.TermBr:
			bi = b.Term.Then
		case ir.TermCondBr:
			if val(b.Term.Cond) != 0 {
				bi = b.Term.Then
			} else {
				bi = b.Term.Else
			}
		case ir.TermRet:
			if b.Term.HasVal {
				return val(b.Term.Cond), nil
			}
			return 0, nil
		}
	}
}

// spawn starts fn in a new simulated thread and returns a join handle.
func (rt *Runtime) spawn(fnName string, args []uint64) uint64 {
	fn := rt.mod.Funcs[fnName]
	rt.threadMu.Lock()
	rt.nextTh++
	handle := rt.nextTh
	st := &threadState{done: make(chan struct{})}
	rt.threads[handle] = st
	rt.threadMu.Unlock()
	go func() {
		th := rt.p.NewThread()
		ex := &executor{rt: rt, th: th}
		_, trap := ex.callFunc(fn, args)
		st.trap = trap
		if trap != nil {
			rt.threadMu.Lock()
			if rt.firstTrap == nil {
				rt.firstTrap = trap
			}
			rt.threadMu.Unlock()
		}
		th.Exit()
		close(st.done)
	}()
	return handle
}

// join waits for the thread and propagates its trap (like a crash taking
// down the process).
func (rt *Runtime) join(handle uint64) *Trap {
	rt.threadMu.Lock()
	st := rt.threads[handle]
	rt.threadMu.Unlock()
	if st == nil {
		return &Trap{Err: fmt.Errorf("join of unknown thread %d", handle), Func: "<join>", Instr: "join"}
	}
	<-st.done
	return st.trap
}

func icmp(p ir.Pred, a, b uint64) uint64 {
	var r bool
	switch p {
	case ir.PredEQ:
		r = a == b
	case ir.PredNE:
		r = a != b
	case ir.PredLT:
		r = a < b
	case ir.PredLE:
		r = a <= b
	case ir.PredGT:
		r = a > b
	case ir.PredGE:
		r = a >= b
	case ir.PredSLT:
		r = int64(a) < int64(b)
	case ir.PredSGT:
		r = int64(a) > int64(b)
	}
	if r {
		return 1
	}
	return 0
}

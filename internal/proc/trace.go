package proc

// Trace event kinds. They are defined here — next to the operations that
// emit them — and recorded by the benchmark harness (benchmark/). The
// (a, b, c) payload meaning per kind is documented on the corresponding
// constant.
const (
	// TraceThreadStart: a thread was created.
	TraceThreadStart uint8 = iota + 1
	// TraceThreadExit: the thread exited.
	TraceThreadExit
	// TraceGlobal: a = size, b = resulting address.
	TraceGlobal
	// TraceMalloc: a = requested size, b = resulting base.
	TraceMalloc
	// TraceFree: a = base.
	TraceFree
	// TraceRealloc: a = old base, b = new size, c = resulting base.
	TraceRealloc
	// TraceAlloca: a = size, b = resulting address.
	TraceAlloca
	// TraceStackMark: a = mark.
	TraceStackMark
	// TraceFreeStack: a = restored mark.
	TraceFreeStack
	// TraceStorePtr: a = location, b = value.
	TraceStorePtr
	// TraceStoreInt: a = location, b = value.
	TraceStoreInt
	// TraceMemcpy: nothing emits it any more (a realloc move is one
	// TraceRealloc); it stays only because the benchmark's event-name
	// table (benchmark/gen.go) still names it.
	TraceMemcpy
	// TraceKindMax bounds the kind space.
	TraceKindMax
)

// TraceSink receives every traced operation of a process. Implementations
// must be safe for concurrent use; the order in which they serialize
// concurrent events defines the replay order.
type TraceSink interface {
	TraceEvent(kind uint8, tid int32, a, b, c uint64)
}

// SetTracer installs a trace sink. Install it before creating threads;
// operations performed earlier are not captured.
func (p *Process) SetTracer(t TraceSink) { p.tracer = t }

// emit reports an event if tracing is active.
func (p *Process) emit(kind uint8, tid int32, a, b, c uint64) {
	if p.tracer != nil {
		p.tracer.TraceEvent(kind, tid, a, b, c)
	}
}

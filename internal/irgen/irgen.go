// Package irgen generates random, well-defined IR programs together with a
// ground-truth oracle of their observable behaviour: printed output, return
// value, final heap/global state, and the exact number of dangling pointers
// each detector class must invalidate. The differential harness
// (internal/differ) runs each program through the full
// irparse → instrument → ir/opt → interp pipeline under every detector and
// pointer-log configuration and compares against the oracle.
//
// Programs are well-defined by construction: a location that ends up
// dangling (deliberately left pointing into a freed object) is never loaded
// and dereferenced again, so the uninstrumented reference run and every
// instrumented run must agree on all program-visible state. Mutation mode
// (Config.Mutate) appends one dangling load+dereference so that every
// detector's catch behaviour can be asserted too.
//
// Determinism: Generate(seed, cfg) is a pure function of its arguments —
// same seed, same program, same oracle.
package irgen

import (
	"fmt"
	"math/rand"
	"strings"

	"dangsan/internal/vmem"
)

// Config shapes generated programs.
type Config struct {
	// Stmts is the number of top-level statements in main (default 12).
	Stmts int
	// MaxLive bounds concurrently-live objects owned by main (default 4).
	MaxLive int
	// Threads is the number of spawned worker threads (0..4). Workers own
	// disjoint global-slot ranges and private objects, so their effects on
	// the oracle are order-independent.
	Threads int
	// Mutate appends a use-after-free tail: main stores a pointer to a
	// victim object into a heap field, frees the victim, and dereferences
	// the stale pointer. Detectors must trap; the baseline must not.
	Mutate bool
}

func (c Config) withDefaults() Config {
	if c.Stmts <= 0 {
		c.Stmts = 12
	}
	if c.MaxLive <= 0 {
		c.MaxLive = 4
	}
	if c.Threads < 0 {
		c.Threads = 0
	}
	if c.Threads > 4 {
		c.Threads = 4
	}
	return c
}

// CellKind classifies the expected final state of one 8-byte cell.
type CellKind int

const (
	// CellInt is a known integer value (all generated ints are small
	// non-negative constants, far below the heap base).
	CellInt CellKind = iota
	// CellLivePtr points at offset TargetOff into live object TargetObj.
	CellLivePtr
	// CellDangling held a pointer to offset TargetOff of freed object
	// TargetObj when that object was freed, and was deliberately never
	// overwritten afterwards. Detectors must have invalidated it per their
	// contract; the baseline must have left the raw address intact.
	CellDangling
)

// Cell is the expected final state of one memory cell: either a global slot
// (Global true) or a field of a live-at-exit object (Obj/Off).
type Cell struct {
	Global bool
	Slot   int    // global slot index when Global
	Obj    int    // owning live object id when !Global
	Off    uint64 // byte offset of the field when !Global

	Kind      CellKind
	Int       int64  // CellInt: the value
	TargetObj int    // CellLivePtr / CellDangling: pointee object id
	TargetOff uint64 // CellLivePtr / CellDangling: offset into pointee
}

// LiveObject describes an object expected to be live at exit. AnchorSlot is
// a global slot guaranteed to hold a pointer to the object's base, letting
// a checker recover the object's runtime address.
type LiveObject struct {
	ID         int
	Size       uint64
	AnchorSlot int
}

// Oracle is the recorded ground truth for a benign run. When Config.Mutate
// is set, only Output is meaningful (the run ends in a deliberate
// use-after-free, so final-state and counter fields describe the benign
// prefix and are not checked).
type Oracle struct {
	// Output is the exact sequence of printed values.
	Output []int64
	// Ret is main's return value.
	Ret int64
	// Mallocs counts explicit allocations (reallocs excluded: whether a
	// realloc moves — and therefore allocates — depends on the detector's
	// AllocPad, so tracked-object counts are only bounded by
	// [Mallocs, Mallocs+Reallocs]).
	Mallocs  int
	Reallocs int
	Frees    int
	// LiveAtExit is the number of heap objects still allocated at exit.
	LiveAtExit int
	// InvalidatedAll is the exact number of cells holding a dangling
	// pointer at the moment of the corresponding free, counting cells
	// anywhere in memory — the invalidation count for detectors that track
	// every location (dangsan, freesentry).
	InvalidatedAll uint64
	// InvalidatedHeap counts only the heap-resident subset — the
	// invalidation count for dangnull, which tracks heap locations only.
	InvalidatedHeap uint64
	// Live lists the objects expected to be live at exit.
	Live []LiveObject
	// Cells is the expected final state of every global slot and every
	// field of every live object.
	Cells []Cell
}

// Clone deep-copies the oracle (the slices are shared otherwise), letting
// harness tests tamper with a copy.
func (o *Oracle) Clone() *Oracle {
	c := *o
	c.Output = append([]int64(nil), o.Output...)
	c.Live = append([]LiveObject(nil), o.Live...)
	c.Cells = append([]Cell(nil), o.Cells...)
	return &c
}

// Program is one generated program plus its oracle.
type Program struct {
	Seed          int64
	Config        Config
	Source        string
	Multithreaded bool
	NumSlots      int
	Oracle        Oracle
}

// SlotAddr returns the simulated address of global slot i. The generated
// program's only global is the cells array, and the globals segment hands
// out addresses from its base, so slot addresses are known statically.
func SlotAddr(i int) uint64 { return vmem.GlobalsBase + 8*uint64(i) }

// cellState is the generator's model of one cell.
type cellState struct {
	kind CellKind
	ival int64
	obj  *genObj // pointee (live for CellLivePtr, freed for CellDangling)
	off  uint64
}

// genObj models one heap object.
type genObj struct {
	id         int
	size       uint64
	anchorSlot int
	fields     []cellState
}

// gen is the shared generator state.
type gen struct {
	rng    *rand.Rand
	cfg    Config
	slots  []cellState
	nextID int
	oracle *Oracle
}

func (g *gen) newObj(size uint64, anchor int) *genObj {
	o := &genObj{id: g.nextID, size: size, anchorSlot: anchor,
		fields: make([]cellState, size/8)}
	g.nextID++
	g.oracle.Mallocs++
	return o
}

// Generate builds the program for (seed, cfg).
func Generate(seed int64, cfg Config) *Program {
	cfg = cfg.withDefaults()
	g := &gen{rng: rand.New(rand.NewSource(seed)), cfg: cfg, oracle: &Oracle{}}

	// Slot layout: main owns [0, mainSlots) with anchors first, then the
	// accumulator, then scratch; each worker owns a disjoint 6-slot range.
	const mainScratch = 6
	const wAnchors, wScratch = 2, 4
	mainSlots := cfg.MaxLive + 1 + mainScratch
	numSlots := mainSlots + cfg.Threads*(wAnchors+wScratch)
	g.slots = make([]cellState, numSlots) // zero-initialized, like the segment

	main := &ctx{
		g: g, name: "main", isMain: true,
		slotLo: 0, slotHi: mainSlots, baseSlot: 0,
		accSlot: cfg.MaxLive,
	}
	for a := 0; a < cfg.MaxLive; a++ {
		main.anchorFree = append(main.anchorFree, a)
	}
	for s := cfg.MaxLive + 1; s < mainSlots; s++ {
		main.scratch = append(main.scratch, s)
	}
	main.emit("r0 = global cells")
	main.baseReg = "r0"

	// Straight-line prefix. The first statement is always an allocation so
	// later statements have material to work with.
	main.stMalloc()
	for i := 1; i < cfg.Stmts; i++ {
		main.stmt(0)
	}

	// Thread section: generate each worker's body (applying its model
	// effects immediately — ranges are disjoint, so ordering against main's
	// remaining statements cannot matter), then spawn and join them all.
	var workers []*ctx
	for w := 0; w < cfg.Threads; w++ {
		lo := mainSlots + w*(wAnchors+wScratch)
		wc := &ctx{
			g: g, name: fmt.Sprintf("worker%d", w),
			slotLo: lo, slotHi: lo + wAnchors + wScratch,
			baseSlot: lo, baseReg: "base", accSlot: -1,
		}
		for a := 0; a < wAnchors; a++ {
			wc.anchorFree = append(wc.anchorFree, lo+a)
		}
		for s := lo + wAnchors; s < lo+wAnchors+wScratch; s++ {
			wc.scratch = append(wc.scratch, s)
		}
		wc.maxLive = wAnchors
		wc.stMalloc()
		for i := 1; i < 5; i++ {
			wc.stmt(0)
		}
		workers = append(workers, wc)
	}
	if cfg.Threads > 0 {
		var handles []string
		for w, wc := range workers {
			rb := main.reg()
			main.emit("%s = gep r0, %d", rb, 8*wc.slotLo)
			rh := main.reg()
			main.emit("%s = spawn worker%d(%s)", rh, w, rb)
			handles = append(handles, rh)
		}
		for _, rh := range handles {
			main.emit("join %s", rh)
		}
		// A short post-join tail keeps main active after the barrier.
		for i := 0; i < cfg.Stmts/3; i++ {
			main.stmt(0)
		}
	}

	// Make sure the program prints something.
	main.stPrintAcc()

	if cfg.Mutate {
		main.emitMutationTail()
	} else {
		ra := main.slotAddr(main.accSlot)
		rv := main.reg()
		main.emit("%s = load i64 [%s]", rv, ra)
		main.emit("ret %s", rv)
		g.oracle.Ret = main.accVal
	}

	// Assemble the module source.
	var sb strings.Builder
	fmt.Fprintf(&sb, "; generated by irgen: seed=%d stmts=%d threads=%d mutate=%v\n",
		seed, cfg.Stmts, cfg.Threads, cfg.Mutate)
	fmt.Fprintf(&sb, "global cells %d\n\n", 8*numSlots)
	sb.WriteString("func sink(v i64) i64 {\nentry:\n  r1 = mul v, 3\n  r2 = add r1, 7\n  ret r2\n}\n\n")
	sb.WriteString("func freeIt(p ptr) {\nentry:\n  free p\n  ret\n}\n\n")
	for w, wc := range workers {
		fmt.Fprintf(&sb, "func worker%d(base ptr) {\n", w)
		sb.WriteString(wc.body.String())
		sb.WriteString("  ret\n}\n\n")
	}
	sb.WriteString("func main() i64 {\nentry:\n")
	sb.WriteString(main.body.String())
	sb.WriteString("}\n")

	// Record the final expected state: every slot, then every live field.
	ctxs := append([]*ctx{main}, workers...)
	for i := range g.slots {
		g.oracle.Cells = append(g.oracle.Cells, stateToCell(g.slots[i], Cell{Global: true, Slot: i}))
	}
	for _, c := range ctxs {
		for _, o := range c.live {
			g.oracle.Live = append(g.oracle.Live, LiveObject{ID: o.id, Size: o.size, AnchorSlot: o.anchorSlot})
			g.oracle.LiveAtExit++
			for fi := range o.fields {
				g.oracle.Cells = append(g.oracle.Cells,
					stateToCell(o.fields[fi], Cell{Obj: o.id, Off: 8 * uint64(fi)}))
			}
		}
	}

	return &Program{
		Seed:          seed,
		Config:        cfg,
		Source:        sb.String(),
		Multithreaded: cfg.Threads > 0,
		NumSlots:      numSlots,
		Oracle:        *g.oracle,
	}
}

func stateToCell(st cellState, c Cell) Cell {
	c.Kind = st.kind
	switch st.kind {
	case CellInt:
		c.Int = st.ival
	case CellLivePtr, CellDangling:
		c.TargetObj = st.obj.id
		c.TargetOff = st.off
	}
	return c
}

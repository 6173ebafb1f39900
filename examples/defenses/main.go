// Defenses: the paper's §9 comparison of use-after-free defense classes as
// one runnable demonstration.
//
// The same attack — free a victim object, groom the heap, use the dangling
// pointer — runs against four configurations:
//
//  1. no defense: the attack reads attacker-controlled memory;
//  2. a secure allocator (ASan-style quarantine): stops the naive attack,
//     but heap spraying flushes the quarantine and the attack succeeds —
//     the paper's §1 argument for why secure allocators are insufficient;
//  3. conservative garbage collection (Boehm-style): the dangling pointer
//     keeps the object alive, so the attack is downgraded to a stale read
//     and a memory leak;
//  4. DangSan: the dangling pointer itself is dead — the attack faults no
//     matter how hard the attacker sprays.
//
// Run with: go run ./examples/defenses
package main

import (
	"fmt"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/gc"
	"dangsan/internal/proc"
	"dangsan/internal/vmem"
	"dangsan/internal/workloads"
)

func main() {
	const quarantineBytes = 1 << 20
	const bigSpray = 2000
	const smallSpray = 4

	fmt.Println("1. no defense")
	p := proc.New(detectors.None{})
	report(workloads.HeapSpray(p, smallSpray))

	fmt.Printf("\n2. secure allocator (%d KiB quarantine)\n", quarantineBytes>>10)
	p = proc.New(detectors.NewSecureAllocator(quarantineBytes))
	fmt.Printf("   naive attack (%d allocations):\n", smallSpray)
	report(workloads.HeapSpray(p, smallSpray))
	p = proc.New(detectors.NewSecureAllocator(quarantineBytes))
	fmt.Printf("   heap spray (%d allocations):\n", bigSpray)
	report(workloads.HeapSpray(p, bigSpray))

	fmt.Println("\n3. conservative garbage collection")
	gcDemo()

	fmt.Println("\n4. dangsan")
	p = proc.New(dangsan.New())
	report(workloads.HeapSpray(p, bigSpray))
}

func report(out workloads.ExploitOutcome, err error) {
	if err != nil {
		panic(err)
	}
	verdict := "ATTACK SUCCEEDED"
	if out.Prevented {
		verdict = "prevented"
	}
	fmt.Printf("   %-16s %s\n", verdict+":", out.Detail)
}

func gcDemo() {
	p := proc.New(detectors.None{})
	c := gc.New(p)
	th := p.NewThread()
	c.AddRootThread(th)

	victim, err := c.Alloc(th, 4096)
	must(err)
	must(fault(th.StoreInt(victim, 0x736563726574)))
	ref := p.AllocGlobal(8)
	must(fault(th.StorePtr(ref, victim)))

	c.GCFree(victim) // the program "frees" the object
	if _, err := c.Collect(th); err != nil {
		panic(err)
	}
	v, f := th.Deref(ref)
	must(fault(f))
	fmt.Printf("   prevented:       dangling read returned the ORIGINAL data 0x%x "+
		"(object kept alive: %d object leaked)\n", v, c.Live())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// fault converts a *vmem.Fault into an error without the typed-nil pitfall.
func fault(f *vmem.Fault) error {
	if f == nil {
		return nil
	}
	return f
}

// Package faultinject is the deterministic fault-injection plane: a set of
// named injection sites threaded through the layers that acquire resources
// (vmem page mapping, tcmalloc span/central/thread-cache allocation,
// pointerlog indirect-block and hash-table allocation, shadow metapagetable
// population, and the metadata registry itself).
//
// The plane exists to exercise DangSan's fail-open philosophy (paper §4.4):
// every resource-acquisition failure must degrade coverage, never
// correctness — no false UAF reports, no crashes, no deadlocks. Each site
// consults the plane before committing a resource; when the plane says
// "fail", the site unwinds exactly as if the underlying acquisition had
// failed (mmap returned ENOMEM, the registry filled up), and the chaos
// harness (internal/chaos) asserts the system-wide invariants afterwards.
//
// Decisions are deterministic per (seed, site, draw index): the nth
// consultation of a site always yields the same verdict for a given seed,
// independent of wall-clock or global interleaving, which makes chaos
// failures replayable. A nil *Plane is inert — every Fail call on it is a
// single predicted branch — so production paths carry the sites for free.
package faultinject

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Site names one injection point.
type Site uint8

const (
	// VmemMap fails heap page mapping (the simulated mmap/ENOMEM).
	VmemMap Site = iota
	// SpanAlloc fails tcmalloc page-heap span allocation.
	SpanAlloc
	// CentralPopulate fails central-free-list span population.
	CentralPopulate
	// ThreadCacheRefill fails a thread cache's batch refill.
	ThreadCacheRefill
	// LogBlockAlloc fails pointerlog indirect-block allocation.
	LogBlockAlloc
	// HashGrowAlloc fails pointerlog hash-table allocation and growth.
	HashGrowAlloc
	// ShadowPopulate fails shadow metapagetable array allocation.
	ShadowPopulate
	// MetaAlloc fails per-object metadata registry allocation.
	MetaAlloc
	// ColdIO fails cold-tier spill-file I/O: segment writes (the spill
	// falls open, the table stays resident) and segment reads (the
	// segment is skipped — coverage loss, never a false report).
	ColdIO

	// NumSites is the number of injection sites.
	NumSites
)

var siteNames = [NumSites]string{
	VmemMap:           "vmem_map",
	SpanAlloc:         "span_alloc",
	CentralPopulate:   "central_populate",
	ThreadCacheRefill: "threadcache_refill",
	LogBlockAlloc:     "log_block_alloc",
	HashGrowAlloc:     "hash_grow_alloc",
	ShadowPopulate:    "shadow_populate",
	MetaAlloc:         "meta_alloc",
	ColdIO:            "cold_io",
}

func (s Site) String() string {
	if s < NumSites {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// siteState is one site's configuration and counters. threshold is the
// injection probability scaled to the full uint64 range (0 = disabled);
// budget is the number of injections still allowed (decremented on each
// one; exhaustion disables the site, bounding how much pressure a sweep
// applies).
type siteState struct {
	threshold atomic.Uint64
	budget    atomic.Int64
	draws     atomic.Uint64
	injected  atomic.Uint64
	_         [64 - 4*8]byte // pad so hot sites don't false-share
}

// Plane is one fault-injection configuration. Create with New; safe for
// concurrent use. The zero Plane (and a nil *Plane) injects nothing.
type Plane struct {
	seed  uint64
	sites [NumSites]siteState
}

// New creates a plane with the given seed and every site disabled.
func New(seed int64) *Plane {
	return &Plane{seed: uint64(seed)}
}

// Enable arms one site with the given injection probability (clamped to
// [0,1]) and budget (maximum number of injections; <0 means unlimited).
func (p *Plane) Enable(site Site, rate float64, budget int64) {
	if p == nil || site >= NumSites {
		return
	}
	st := &p.sites[site]
	st.threshold.Store(rateToThreshold(rate))
	if budget < 0 {
		budget = math.MaxInt64
	}
	st.budget.Store(budget)
}

// EnableAll arms every site with the same rate and per-site budget.
func (p *Plane) EnableAll(rate float64, budget int64) {
	for s := Site(0); s < NumSites; s++ {
		p.Enable(s, rate, budget)
	}
}

func rateToThreshold(rate float64) uint64 {
	switch {
	case rate <= 0:
		return 0
	case rate >= 1:
		return math.MaxUint64
	default:
		return uint64(rate * float64(math.MaxUint64))
	}
}

// Fail reports whether the caller should simulate an acquisition failure at
// site. The verdict for the nth draw of a site is a pure function of
// (seed, site, n). Nil-safe: a nil plane never fails.
func (p *Plane) Fail(site Site) bool {
	if p == nil || site >= NumSites {
		return false
	}
	st := &p.sites[site]
	th := st.threshold.Load()
	if th == 0 {
		return false
	}
	n := st.draws.Add(1)
	if mix(p.seed^(uint64(site)+1)*0x9E3779B97F4A7C15, n) >= th {
		return false
	}
	// Candidate injection: charge the budget; a drained budget disarms.
	if st.budget.Add(-1) < 0 {
		st.threshold.Store(0)
		return false
	}
	st.injected.Add(1)
	return true
}

// mix is splitmix64-style avalanche over (seed, n).
func mix(seed, n uint64) uint64 {
	z := seed + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SiteStats is one site's draw/injection counters.
type SiteStats struct {
	Site     string `json:"site"`
	Draws    uint64 `json:"draws"`
	Injected uint64 `json:"injected"`
}

// Injected returns how many times site has injected a failure. Nil-safe.
func (p *Plane) Injected(site Site) uint64 {
	if p == nil || site >= NumSites {
		return 0
	}
	return p.sites[site].injected.Load()
}

// TotalInjected sums injections across all sites. Nil-safe.
func (p *Plane) TotalInjected() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for i := range p.sites {
		n += p.sites[i].injected.Load()
	}
	return n
}

// Snapshot returns per-site counters for sites that have been consulted.
func (p *Plane) Snapshot() []SiteStats {
	if p == nil {
		return nil
	}
	var out []SiteStats
	for i := range p.sites {
		st := &p.sites[i]
		if d := st.draws.Load(); d != 0 {
			out = append(out, SiteStats{
				Site:     Site(i).String(),
				Draws:    d,
				Injected: st.injected.Load(),
			})
		}
	}
	return out
}

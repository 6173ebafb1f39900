// Package sizeclass computes the tcmalloc-style size class table used by the
// simulated allocator.
//
// DangSan's pointer-to-object mapper relies on a layout invariant that
// tcmalloc provides: every span (run of pages) holds objects of exactly one
// size class, every object in a span starts at a multiple of the class's
// power-of-two alignment, and large allocations are page aligned. That
// invariant is what makes variable-compression-ratio memory shadowing
// possible — the shadow map stores, per page, the log2 of the object
// alignment in that page, and metadata lookup is a shift and an add.
package sizeclass

import "dangsan/internal/vmem"

const (
	// MinAlign is the minimum alignment of any allocation.
	MinAlign = 8
	// MaxSmallSize is the largest size served from size classes; bigger
	// allocations get dedicated page-aligned spans.
	MaxSmallSize = 256 << 10
	// PageSize mirrors the simulated page size.
	PageSize = vmem.PageSize

	smallGranularity = 8 // lookup granularity below smallCutoff
	smallCutoff      = 1024
	largeGranularity = 128 // lookup granularity between smallCutoff and MaxSmallSize
)

// Class describes one size class.
type Class struct {
	// Size is the object size in bytes (all objects in the class's spans
	// occupy exactly Size bytes).
	Size uint64
	// Pages is the number of pages in one span of this class.
	Pages int
	// Align is the power-of-two alignment of objects in this class. The
	// object stride (Size) is always a multiple of Align.
	Align uint64
	// ObjectsPerSpan is Pages*PageSize/Size.
	ObjectsPerSpan int
}

var (
	classes []Class
	// classBySmall maps (size+7)/8 to a class index for size <= smallCutoff.
	classBySmall [smallCutoff/smallGranularity + 1]int32
	// classByLarge maps (size+127)/128 to a class index for
	// smallCutoff < size <= MaxSmallSize.
	classByLarge [MaxSmallSize/largeGranularity + 1]int32
)

// lgFloor returns floor(log2(n)) for n > 0.
func lgFloor(n uint64) uint {
	lg := uint(0)
	for n > 1 {
		n >>= 1
		lg++
	}
	return lg
}

// alignmentFor mirrors tcmalloc's AlignmentForSize: 8 bytes for tiny
// objects, then 1/8 of the enclosing power of two (giving roughly 12.5%
// size-class steps), capped at a page.
func alignmentFor(size uint64) uint64 {
	var align uint64
	switch {
	case size > MaxSmallSize:
		align = PageSize
	case size >= 128:
		align = (uint64(1) << lgFloor(size)) / 8
	case size >= MinAlign:
		align = MinAlign
	default:
		align = MinAlign
	}
	if align > PageSize {
		align = PageSize
	}
	return align
}

// pagesFor picks the span length for a class so that per-span waste stays
// under 1/8 and spans hold a reasonable number of objects, following
// tcmalloc's heuristic.
func pagesFor(size uint64) int {
	pages := 1
	for {
		spanBytes := uint64(pages) * PageSize
		waste := spanBytes % size
		if waste <= spanBytes/8 {
			return pages
		}
		pages++
	}
}

func init() {
	// Generate candidate sizes with tcmalloc's alignment ladder and merge
	// classes whose spans would hold the same number of objects.
	var sizes []uint64
	for size := uint64(MinAlign); size <= MaxSmallSize; {
		sizes = append(sizes, size)
		size += alignmentFor(size)
	}
	for _, size := range sizes {
		pages := pagesFor(size)
		objs := uint64(pages) * PageSize / size
		if n := len(classes); n > 0 {
			prev := &classes[n-1]
			// Merge: if a span of the previous class's page count holds the
			// same number of these larger objects, the previous class is
			// redundant — replace it.
			if prev.Pages == pages && uint64(prev.ObjectsPerSpan) == objs {
				prev.Size = size
				prev.Align = alignmentFor(size)
				continue
			}
		}
		classes = append(classes, Class{
			Size:           size,
			Pages:          pages,
			Align:          alignmentFor(size),
			ObjectsPerSpan: int(objs),
		})
	}
	// Build the two-level lookup arrays.
	ci := int32(0)
	for i := range classBySmall {
		size := uint64(i) * smallGranularity
		for classes[ci].Size < size {
			ci++
		}
		classBySmall[i] = ci
	}
	ci = 0
	for i := range classByLarge {
		size := uint64(i) * largeGranularity
		for classes[ci].Size < size {
			ci++
		}
		classByLarge[i] = ci
	}
}

// NumClasses returns the number of size classes.
func NumClasses() int { return len(classes) }

// ForClass returns the descriptor of class c.
func ForClass(c int) Class { return classes[c] }

// SizeToClass maps an allocation size (1..MaxSmallSize) to its class index.
// It panics for size 0 or size > MaxSmallSize; callers route large sizes to
// the page heap directly.
func SizeToClass(size uint64) int {
	switch {
	case size == 0:
		panic("sizeclass: zero size")
	case size <= smallCutoff:
		return int(classBySmall[(size+smallGranularity-1)/smallGranularity])
	case size <= MaxSmallSize:
		return int(classByLarge[(size+largeGranularity-1)/largeGranularity])
	default:
		panic("sizeclass: size exceeds MaxSmallSize")
	}
}

package pointerlog

// Log entry encoding. Pointer locations are 8-byte-aligned user-space
// addresses below 2^48, so a raw entry always has its top two bytes zero.
// A compressed entry (paper §6, Fig. 8) packs up to three locations that
// share everything but their least significant byte:
//
//	bits 24..63: common part (location >> 8), guaranteed nonzero because
//	             all simulated segments live at or above 2^40
//	bits 16..23: least significant byte of the third location (0 = empty)
//	bits  8..15: least significant byte of the second location (0 = empty)
//	bits  0..7:  least significant byte of the first location
//
// A location whose LSB is zero can only occupy the first slot (otherwise it
// would be indistinguishable from an empty slot); such locations simply
// start a new entry. Because locations are 8-byte aligned, an entry can
// cover three of the 32 pointer slots in one 256-byte region, giving up to
// a 3x space saving on spatially local pointer stores.

// isCompressed reports whether e is a compressed entry.
func isCompressed(e uint64) bool {
	return e>>48 != 0
}

// compressOne builds a compressed entry holding just loc.
func compressOne(loc uint64) uint64 {
	return (loc>>8)<<24 | loc&0xff
}

// compressedCommon extracts the common part (location >> 8).
func compressedCommon(e uint64) uint64 {
	return e >> 24
}

// tryCompressAdd attempts to add loc to compressed entry e, returning the
// new entry and true on success. It fails when the entry is full, the
// common parts differ, or loc's LSB is zero (reserved for "empty").
func tryCompressAdd(e, loc uint64) (uint64, bool) {
	lsb := loc & 0xff
	if lsb == 0 || compressedCommon(e) != loc>>8 {
		return e, false
	}
	if (e>>8)&0xff == 0 {
		return e | lsb<<8, true
	}
	if (e>>16)&0xff == 0 {
		return e | lsb<<16, true
	}
	return e, false
}

// compressedContains reports whether the compressed entry e holds loc.
func compressedContains(e, loc uint64) bool {
	if compressedCommon(e) != loc>>8 {
		return false
	}
	lsb := loc & 0xff
	if e&0xff == lsb {
		return true
	}
	return lsb != 0 && ((e>>8)&0xff == lsb || (e>>16)&0xff == lsb)
}

// decodeEntry appends the locations encoded in e to out and returns it.
// Raw entries decode to themselves; the zero entry decodes to nothing.
func decodeEntry(e uint64, out []uint64) []uint64 {
	if e == 0 {
		return out
	}
	if !isCompressed(e) {
		return append(out, e)
	}
	common := compressedCommon(e) << 8
	out = append(out, common|e&0xff)
	if b := (e >> 8) & 0xff; b != 0 {
		out = append(out, common|b)
	}
	if b := (e >> 16) & 0xff; b != 0 {
		out = append(out, common|b)
	}
	return out
}

// entryContains reports whether entry e (raw or compressed) holds loc.
// A raw match is tested first: it is the lookback's common hit. One
// expression, so an inlined call branches instead of building a bool.
func entryContains(e, loc uint64) bool {
	return e == loc && e != 0 || isCompressed(e) && compressedContains(e, loc)
}

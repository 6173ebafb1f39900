package pointerlog

import (
	"errors"
	"testing"
)

// TestMetaAtBounds: MetaAt resolves exactly the indices below next, across
// a directory boundary, and nothing else.
func TestMetaAtBounds(t *testing.T) {
	lg := NewLogger(DefaultConfig())
	if lg.MetaAt(0) != nil || lg.MetaAt(1) != nil {
		t.Fatal("MetaAt resolved a handle on an empty registry")
	}
	// Start one index short of the second directory.
	lg.next.Store(metaSlabSize*metaDirSize - 1)
	m1, h1 := lg.MustCreateMeta(0x1000, 8)
	m2, h2 := lg.MustCreateMeta(0x2000, 8)
	if lg.MetaAt(h1) != m1 || lg.MetaAt(h2) != m2 {
		t.Fatal("MetaAt does not return the metas CreateMeta handed out")
	}
	for _, h := range []uint64{0, h2 + 1, h2 + metaSlabSize, ^uint64(0)} {
		if lg.MetaAt(h) != nil {
			t.Errorf("MetaAt(%d) resolved past next=%d", h, lg.next.Load())
		}
	}
}

// TestRegistryCapExhausts: the last slot of the last slab is handed out,
// and the one after it is ErrMetadataExhausted.
func TestRegistryCapExhausts(t *testing.T) {
	lg := NewLogger(DefaultConfig())
	lg.next.Store(maxMetaSlabs*metaSlabSize - 1)
	m, h, err := lg.CreateMeta(0x1000, 8)
	if err != nil || lg.MetaAt(h) != m {
		t.Fatalf("last registry slot: meta %p, handle %d, err %v", m, h, err)
	}
	if _, _, err := lg.CreateMeta(0x2000, 8); !errors.Is(err, ErrMetadataExhausted) {
		t.Fatalf("past the cap: want ErrMetadataExhausted, got %v", err)
	}
}

// TestMetadataBytesPerSlab pins the registry's charge: one 96 KiB slab per
// 4096 indices ever handed out, whatever directories back them, and none
// for indices recycled through the free list.
func TestMetadataBytesPerSlab(t *testing.T) {
	if metaSlabBytes != 98304 {
		t.Fatalf("metaSlabBytes = %d, want 98304", metaSlabBytes)
	}
	lg := NewLogger(DefaultConfig())
	if got := lg.MetadataBytes(); got != 0 {
		t.Fatalf("fresh logger: MetadataBytes = %d", got)
	}
	var handles []uint64
	for _, c := range []struct{ creates, wantSlabs uint64 }{
		{1, 1}, {metaSlabSize - 1, 1}, {1, 2}, {metaSlabSize, 3},
	} {
		for i := uint64(0); i < c.creates; i++ {
			_, h := lg.MustCreateMeta(0x1000, 8)
			handles = append(handles, h)
		}
		if got := lg.MetadataBytes(); got != c.wantSlabs*metaSlabBytes {
			t.Fatalf("after %d creates: MetadataBytes = %d, want %d slabs", len(handles), got, c.wantSlabs)
		}
	}
	for _, h := range handles[:100] {
		lg.ReleaseMeta(h)
	}
	for i := 0; i < 100; i++ {
		lg.MustCreateMeta(0x1000, 8)
	}
	if got := lg.MetadataBytes(); got != 3*metaSlabBytes {
		t.Fatalf("after recycling: MetadataBytes = %d, want 3 slabs", got)
	}
}

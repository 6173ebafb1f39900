package backends

import (
	"testing"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
)

func TestNewDetectorKinds(t *testing.T) {
	for _, k := range All() {
		d, err := New(k, dangsan.Options{})
		if err != nil || d == nil {
			t.Fatalf("%s: %v", k, err)
		}
		if d.Name() != string(k) {
			t.Errorf("detector name %q != kind %q", d.Name(), k)
		}
	}
	if _, err := New("bogus", dangsan.Options{}); err == nil {
		t.Fatal("bogus kind accepted")
	}
	// The figure experiments stay pinned to the paper's four systems; the
	// full list extends, never reorders, that set.
	for i, k := range Paper() {
		if All()[i] != k {
			t.Fatalf("All()[%d] = %s, want %s", i, All()[i], k)
		}
	}
}

// Every backend the table builds is held to the options' metadata budget:
// with a cap a handful of objects exceeds, a few mallocs leave some of them
// untracked (degraded) instead of growing metadata past it.
func TestNewDetectorHonorsBudget(t *testing.T) {
	cfg := pointerlog.DefaultConfig()
	cfg.MaxMetadataBytes = 1
	for _, k := range All()[1:] {
		t.Run(string(k), func(t *testing.T) {
			det, err := New(k, dangsan.Options{Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			th := proc.New(det).NewThread()
			for i := 0; i < 8; i++ {
				if _, err := th.Malloc(64); err != nil {
					t.Fatalf("malloc %d: %v", i, err)
				}
			}
			if degraded, _ := det.(detectors.CoverageLoss).Degraded(); degraded == 0 {
				t.Fatalf("%s ran 8 mallocs under a 1-byte metadata cap with nothing degraded", k)
			}
		})
	}
}

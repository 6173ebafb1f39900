package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var h *Histogram
	var r *Registry
	c.Add(0, 5)
	c.Inc(1)
	h.Observe(0, 100)
	if c.Value() != 0 {
		t.Fatal("nil instrument returned nonzero")
	}
	if r.Counter("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned instruments")
	}
	r.RegisterFunc("x", func() int64 { return 1 })
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestCounterShardingAggregates(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const threads = 8
	const per = 10000
	for tid := int32(0); tid < threads; tid++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(tid)
			}
		}(tid)
	}
	wg.Wait()
	if got := c.Value(); got != threads*per {
		t.Fatalf("Value = %d, want %d", got, threads*per)
	}
	// Each of the small dense tids has a shard of its own.
	for i := range c.shards {
		want := uint64(0)
		if i < threads {
			want = per
		}
		if v := c.shards[i].v.Load(); v != want {
			t.Errorf("shard %d = %d, want %d", i, v, want)
		}
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 0 → bucket 0; 1 → (0,1]; 2,3 → (1,3]; 4..7 → (3,7].
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 6, 7} {
		h.Observe(0, v)
	}
	s := h.snapshot()
	if s.Count != 8 || s.Sum != 28 || s.Max != 7 {
		t.Fatalf("snapshot %+v", s)
	}
	want := []Bucket{{Le: 0, Count: 1}, {Le: 1, Count: 1}, {Le: 3, Count: 2}, {Le: 7, Count: 4}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets %+v, want %+v", s.Buckets, want)
	}
	if m := s.Mean(); m != 3.5 {
		t.Fatalf("mean = %v", m)
	}
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("p0 = %d", q)
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := s.Quantile(1); q != 7 {
		t.Fatalf("p100 = %d, want 7", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	s := h.snapshot()
	if s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

// The -metrics acceptance path: a snapshot marshalled by dangsan-bench
// must decode to an identical snapshot in dangsan-stats.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("pointerlog.registers").Add(3, 42)
	r.RegisterFunc("tcmalloc.live_bytes", func() int64 { return 1 << 20 })
	r.Histogram("pointerlog.register_ns").Observe(0, 900)
	r.Histogram("pointerlog.register_ns").Observe(1, 90)
	r.RegisterObject("tcmalloc.sizeclass", func() any {
		return []map[string]int{{"class": 3, "allocs": 7}}
	})

	s := r.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip diverged:\n before %+v\n after  %+v", s, back)
	}
	// And a second marshal is byte-identical (deterministic output).
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-marshal diverged:\n%s\n%s", data, data2)
	}
}

func TestRegistryIdempotentAttach(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("Counter not idempotent")
	}
	a.Add(0, 1)
	b.Add(1, 2)
	if r.Snapshot().Counters["x"] != 3 {
		t.Fatal("shared counter did not accumulate")
	}
	// RegisterFunc rebinds: last owner wins.
	r.RegisterFunc("f", func() int64 { return 1 })
	r.RegisterFunc("f", func() int64 { return 2 })
	if r.Snapshot().Gauges["f"] != 2 {
		t.Fatal("RegisterFunc did not rebind")
	}
}

func TestFormatSections(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(0, 5)
	r.RegisterFunc("b.gauge", func() int64 { return -2 })
	r.Histogram("c.hist").Observe(0, 8)
	r.RegisterObject("d.obj", func() any { return map[string]int{"k": 1} })
	out := r.Snapshot().Format()
	for _, want := range []string{"counters:", "a.count", "gauges:", "b.gauge", "-2", "histograms:", "c.hist", "objects:", "d.obj"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a named collection of instruments. Get-or-create accessors
// make attachment idempotent: two subsystems (or two successive processes
// in one benchmark run) asking for the same counter name share the
// instrument and their increments accumulate, while RegisterFunc rebinds
// a gauge function to the most recently attached owner.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	funcs    map[string]func() int64
	objects  map[string]func() any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
		objects:  make(map[string]func() any),
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Safe to call from multiple goroutines; nil receiver returns a
// nil (no-op) instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers (or rebinds) a gauge evaluated at snapshot time —
// for values another subsystem already tracks, like the allocator's live
// bytes, where a second counter would just drift from the first.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// RegisterObject registers (or rebinds) a structured value evaluated and
// JSON-marshalled at snapshot time — for breakdowns that do not fit a
// scalar, like per-sizeclass allocation tables.
func (r *Registry) RegisterObject(name string, fn func() any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.objects[name] = fn
}

// Snapshot is the JSON-exportable aggregate view of a Registry. Gauges holds
// the func gauges' instantaneous values.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Objects    map[string]json.RawMessage   `json:"objects,omitempty"`
}

// Snapshot evaluates every instrument. Counters and histograms aggregate
// their shards; func gauges run their callbacks. The result is
// consistent-enough, not atomic: instruments recorded during the snapshot
// land in either this one or the next.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.funcs) > 0 {
		s.Gauges = make(map[string]int64, len(r.funcs))
		for name, fn := range r.funcs {
			s.Gauges[name] = fn()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	if len(r.objects) > 0 {
		s.Objects = make(map[string]json.RawMessage, len(r.objects))
		for name, fn := range r.objects {
			raw, err := json.Marshal(fn())
			if err != nil {
				continue
			}
			s.Objects[name] = raw
		}
	}
	return s
}

// MarshalJSONIndent renders the snapshot as indented JSON. Map keys are
// sorted by encoding/json, so output is deterministic.
func (s Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseSnapshot decodes a snapshot previously produced by marshalling a
// Snapshot (the dangsan-bench -metrics format).
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: bad snapshot: %w", err)
	}
	return s, nil
}

// Format pretty-prints the snapshot for terminals: sorted sections for
// counters, gauges, histograms (count/mean/p50/p99/max), and raw objects.
func (s Snapshot) Format() string {
	var b strings.Builder
	section := func(title string, names []string, row func(name string)) {
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%s:\n", title)
		for _, name := range names {
			row(name)
		}
	}
	section("counters", keys(s.Counters), func(name string) {
		fmt.Fprintf(&b, "  %-40s %d\n", name, s.Counters[name])
	})
	section("gauges", keys(s.Gauges), func(name string) {
		fmt.Fprintf(&b, "  %-40s %d\n", name, s.Gauges[name])
	})
	section("histograms", keys(s.Histograms), func(name string) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "  %-40s count=%d mean=%.1f p50<=%d p99<=%d max=%d\n",
			name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max)
	})
	section("objects", keys(s.Objects), func(name string) {
		fmt.Fprintf(&b, "  %-40s %s\n", name, s.Objects[name])
	})
	return b.String()
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

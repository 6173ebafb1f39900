package main

import (
	"time"
)

// Tracing from outside. Nothing under internal/ carries a span or a clock
// read for this benchmark: the traced pass records the arguments of every
// call that crosses a layer boundary, then replays each layer's recorded
// stream against a fresh instance of that layer alone, timing batches of
// calls between two clock reads. A clock read costs ~60 ns here and the
// layers' calls cost 3-100 ns, so only batches can be timed.

// span is one timed batch: a layer operation name, the span that caused
// it, the workload pass it belongs to, and its interval.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Calls  int    `json:"calls"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotal accumulates the spans of one name.
type spanTotal struct {
	Busy  time.Duration
	Calls uint64
}

// tracer keeps spans in memory; writeFile dumps them when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	totals map[string]*spanTotal
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), totals: map[string]*spanTotal{}}
}

// add records one finished span and returns its id (ids start at 1; parent
// 0 means a root).
func (t *tracer) add(name string, parent, pass, calls int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Pass: pass, Calls: calls,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	tot := t.totals[name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[name] = tot
	}
	tot.Busy += end.Sub(start)
	tot.Calls += uint64(calls)
	return id
}

// bestOf runs replay n times, each into a tracer of its own, and keeps the
// spans of the fastest repetition. The machine's speed drifts by ±10% over
// seconds; self times are differences of replays that run seconds apart,
// and taking each replay at its best keeps that drift out of them.
func (t *tracer) bestOf(n int, replay func(sub *tracer)) {
	var best *tracer
	for i := 0; i < n; i++ {
		sub := &tracer{origin: t.origin, totals: map[string]*spanTotal{}}
		replay(sub)
		if best == nil || sub.busy() < best.busy() {
			best = sub
		}
	}
	for _, sp := range best.spans {
		t.add(sp.Name, sp.Parent, sp.Pass, sp.Calls, t.origin.Add(time.Duration(sp.Start)), t.origin.Add(time.Duration(sp.End)))
	}
}

// busy returns the summed duration of the named spans (of all spans when
// no name is given), in seconds.
func (t *tracer) busy(names ...string) float64 {
	s := 0.0
	if len(names) == 0 {
		for _, tot := range t.totals {
			s += tot.Busy.Seconds()
		}
	}
	for _, n := range names {
		if tot := t.totals[n]; tot != nil {
			s += tot.Busy.Seconds()
		}
	}
	return s
}

// nsPerCall is the named spans' mean cost per call, 0 when none ran.
func (t *tracer) nsPerCall(names ...string) float64 {
	var busy time.Duration
	var calls uint64
	for _, n := range names {
		if tot := t.totals[n]; tot != nil {
			busy += tot.Busy
			calls += tot.Calls
		}
	}
	if calls == 0 {
		return 0
	}
	return float64(busy.Nanoseconds()) / float64(calls)
}

func (t *tracer) writeFile(path string) error {
	return writeJSONFile(path, t.spans)
}

// call is one recorded layer call: what was called, by which thread, on
// which object (ord, where the stream has objects), with which arguments.
// The meaning of a, b, c depends on the stream.
type call struct {
	kind    uint8
	tid     int32
	ord     uint32
	a, b, c uint64
}

// replayWindow is the number of recorded calls replayed between regroupings
// by kind; every kind's share of a window is one timed batch.
const replayWindow = 4096

// replayKind is one kind of call in a replayed stream. prepare, when set,
// runs untimed right before the batch (argument translation, memory
// contents the calls expect); apply is the timed batch.
type replayKind struct {
	span    string
	prepare func(batch []call)
	apply   func(batch []call)
}

// replayWindows replays calls in recorded order, a window at a time. Inside
// a window the calls are grouped by kind, in the order of kinds, so each
// group is timed by one pair of clock reads; call.kind indexes kinds. The
// order of kinds must respect the calls' dependencies (create before use
// before destroy), which bounds the reordering to one window.
func (t *tracer) replayWindows(parent, pass int, calls []call, kinds []replayKind) {
	groups := make([][]call, len(kinds))
	for lo := 0; lo < len(calls); lo += replayWindow {
		hi := lo + replayWindow
		if hi > len(calls) {
			hi = len(calls)
		}
		for k := range groups {
			groups[k] = groups[k][:0]
		}
		for _, c := range calls[lo:hi] {
			groups[c.kind] = append(groups[c.kind], c)
		}
		for k, kind := range kinds {
			batch := groups[k]
			if len(batch) == 0 {
				continue
			}
			if kind.prepare != nil {
				kind.prepare(batch)
			}
			if kind.apply == nil {
				continue
			}
			start := time.Now()
			kind.apply(batch)
			end := time.Now()
			t.add(kind.span, parent, pass, len(batch), start, end)
		}
	}
}

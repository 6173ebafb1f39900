// Package obs is the runtime observability layer: allocation-free sharded
// counters, power-of-two-bucket histograms and snapshot-time gauge
// functions behind a named registry that snapshots to JSON.
//
// The design constraints come from where these metrics sit — inside the
// pointer-store hot path that the rest of the system spent two PRs making
// fast:
//
//   - recording never allocates and never takes a lock: counters and
//     histograms are fixed arrays of atomics, sharded and cache-line
//     padded so that in steady state each simulated thread RMWs a line no
//     other thread touches (the same argument as pointerlog's statShard);
//   - every instrument is nil-receiver safe: a subsystem holds plain
//     pointers that are nil until a Registry is attached, so the
//     metrics-off cost of an instrumented site is one predicted branch;
//   - reading is lazy: Snapshot aggregates shards and evaluates gauge
//     functions only when asked, so an attached-but-unread registry costs
//     nothing beyond the hot-path increments.
package obs

import "sync/atomic"

// counterShards is the number of counter shards; a power of two so the
// shard map is a mask. Matches pointerlog's statShardCount: 64 shards
// cover the paper's Fig. 10 thread sweep without collisions.
const counterShards = 64

// paddedUint64 is one cache-line-padded atomic counter cell.
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a cumulative, monotonically increasing counter sharded by
// thread id. The zero value is ready to use; a nil *Counter is a no-op,
// which is how call sites stay branch-cheap when metrics are off.
type Counter struct {
	shards [counterShards]paddedUint64
}

// Add increments the counter by n on the shard for tid. Negative or
// colliding tids share a shard, which costs contention, never correctness.
func (c *Counter) Add(tid int32, n uint64) {
	if c == nil {
		return
	}
	c.shards[uint32(tid)&(counterShards-1)].v.Add(n)
}

// Inc increments the counter by one on the shard for tid.
func (c *Counter) Inc(tid int32) { c.Add(tid, 1) }

// Value aggregates all shards.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var n uint64
	for i := range c.shards {
		n += c.shards[i].v.Load()
	}
	return n
}

package shard

// Hooks for the external shard_test package and crashtest's op generator.

// NewEqual builds a sharded index with equal-count boundaries (Boundaries).
func NewEqual(keys []uint32, nshards int, m int) *Index {
	return New(keys, Boundaries(keys, nshards), m)
}

// foldSchedules are the policies behind crashtest's fold schedules, in the
// order of its FoldDefault…FoldEveryBatch.
var foldSchedules = []deltaPolicy{{}, {foldDenom: 8, minFold: 16}, neverFold, foldEveryBatch}

// KeyOrdered reports whether v's batch methods run probes in key order.
func KeyOrdered(v *View, probes []uint32) bool { return v.keyOrdered(probes) }

// FoldSchedule sets x's fold policy to crashtest's schedule.
func FoldSchedule(x *Index, schedule int) { x.delta = foldSchedules[schedule] }

// EnqueueTogether puts ins and del into ONE drained batch per shard and
// waits for it: with every shard lock held the rebuilder cannot drain
// between the two, so the "inserts before deletes within one batch" rule is
// exercised for certain (Insert followed by Delete may be drained apart).
func EnqueueTogether(x *Index, ins, del []uint32) {
	for _, s := range x.shards {
		s.mu.Lock()
	}
	for _, k := range ins {
		s := x.shards[x.shardFor(k)]
		s.insPend = append(s.insPend, k)
	}
	for _, k := range del {
		s := x.shards[x.shardFor(k)]
		s.delPend = append(s.delPend, k)
	}
	for _, s := range x.shards {
		s.mu.Unlock()
	}
	x.Sync()
}

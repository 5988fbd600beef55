// Package shard is the concurrent serving layer over the paper's read-only
// indexes: it partitions the uint32 key space across N range shards, holds
// each shard's CSS-tree behind an atomic pointer, and makes the §2.3 OLAP
// maintenance cycle — "absorb a batch of updates, then rebuild from scratch"
// — concurrent.
//
// Readers are lock-free: a lookup routes to its shard by the fixed range
// boundaries, loads that shard's current snapshot with a single atomic
// pointer load, and searches an immutable tree.  Writers never touch a
// published tree; Insert/Delete only append to a per-shard pending batch
// under a short mutex.  One background goroutine drains dirty shards and
// publishes each shard's next state with an epoch-swap: a new snapshot whose
// epoch is one greater than the one it replaces.  A small batch — inserts
// and deletes alike — is absorbed into the shard's delta (an insert run and
// a tombstone run beside the unchanged base, delta.go) in O(delta); once the
// delta reaches the fold threshold the shard is rebuilt the §2.3 way, into a
// freshly built sorted array and tree.  A reader therefore always sees a
// complete, internally consistent (base, tree, delta, epoch) snapshot, and
// the epoch it observes for any shard never decreases.
//
// Sharding also bounds rebuild latency — only the shards a batch touches are
// rebuilt, each over 1/N of the data — and lets rebuilds of different shards
// proceed while readers keep serving, which is what the ROADMAP's
// heavy-traffic target needs from the paper's rebuild-don't-maintain
// position.  Boundaries chooses the split points: equal key counts.  There
// is no skew-aware split from a sample of the probe distribution — skew is a
// property of the probe stream, which each batch inspects for itself.
//
// The engine makes its own serving decisions: each batch's probe order comes
// from a sample of the batch (ChooseKeyOrder, batch.go), and a shard folds
// at fixed thresholds (delta.go) or on Compact.  The worker pool
// (SetParallel) is the one setting, and only tests and in-module harnesses
// bring it.
//
// A column that is never updated needs none of the update machinery: Freeze
// builds the same shards straight into a frozen View, with no rebuilder
// behind it (iter.go).
package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cssidx/internal/csstree"
	"cssidx/internal/mem"
	"cssidx/internal/parallel"
	"cssidx/internal/telemetry"
)

// snapshot is one published epoch of a shard: an immutable sorted base
// array with the level CSS-tree over it, plus the delta not yet folded in
// (delta.go): the keys inserted since and the base occurrences deleted
// since.  The logical content is the multiset base − tomb + ins; positions are ranks in
// it.  Snapshots are never mutated after publication.
type snapshot struct {
	epoch uint64
	keys  []uint32
	tree  *csstree.Tree
	ins   run
	tomb  run
	dir   posDir // position directory over both runs (buildDir); empty without a delta
	total int    // len(keys) + len(ins.keys) − len(tomb.keys)
}

// shardState is one range shard: the current snapshot plus the pending
// update batch the background goroutine has not yet absorbed.
type shardState struct {
	cur atomic.Pointer[snapshot]

	mu      sync.Mutex // guards the pending batches only
	insPend []uint32
	delPend []uint32
}

// Index is a concurrently servable index over a multiset of keys:
// lock-free Search/LowerBound/EqualRange/range scans, batched Insert/Delete
// absorbed by background epoch-swap rebuilds.  Construct with New; Close
// releases the background rebuilder when the index is done serving.
//
// Positions follow the convention of every index in this module — offsets
// into the (conceptual) sorted key array, here the concatenation of all
// shard arrays in boundary order.  Each lookup reads a single shard's
// snapshot atomically; the per-shard offsets are gathered with independent
// atomic loads, so during concurrent rebuilds of *other* shards a global
// position reflects each shard's own latest epoch rather than one instant in
// time.  Use Snapshot for a frozen cross-shard view with stable positions.
type Index struct {
	m      int      // slots per CSS-tree node of every shard's tree
	bounds []uint32 // strictly ascending; shard i serves keys < bounds[i], last serves the rest
	shards []*shardState

	// par is the worker pool for batch execution (SetParallel); set before
	// serving.
	par parallel.Options

	// tuner caches the one-shot measured per-probe cost behind the
	// adaptive per-worker span (attached to every View's options unless
	// SetParallel pinned an explicit span or tuner).
	tuner parallel.Tuner

	// scratch pools batchScratch buffers across batch calls (and across the
	// Views that carry the pool) and writes, so steady-state batches and
	// writes allocate nothing; views pools the Views the Index's own batch
	// methods capture.
	scratch sync.Pool
	views   sync.Pool

	// delta is the fold policy of the mutable delta layer (delta.go); the
	// counters feed DeltaStats.
	delta        deltaPolicy
	deltaAppends atomic.Uint64
	folds        atomic.Uint64

	wake      chan struct{}
	syncs     chan chan struct{}
	compacts  chan chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Slots is the node size, in 4-byte slots, of the shard trees the module
// builds: one cache line.  New and Freeze take m so tests can vary it.
const Slots = mem.CacheLine / 4

// New builds a sharded index over the sorted keys with the given split
// boundaries (strictly ascending; len(bounds)+1 shards) and starts its
// background rebuilder.  Shard i holds the keys k with bounds[i-1] ≤ k <
// bounds[i]; duplicates of a boundary key all land in the shard to its
// right, so EqualRange never straddles shards.  keys must be sorted
// ascending (duplicates allowed) and is not copied at build; after the first
// epoch-swap a shard owns a fresh array.  Every shard's tree is a level
// CSS-tree (§4.2) with m slots per node; m must be a power of two ≥ 2.
func New(keys []uint32, bounds []uint32, m int) *Index {
	snaps := partition(keys, bounds, m)
	x := &Index{
		m:        m,
		bounds:   slices.Clone(bounds),
		shards:   make([]*shardState, len(snaps)),
		wake:     make(chan struct{}, 1),
		syncs:    make(chan chan struct{}),
		compacts: make(chan chan struct{}),
		done:     make(chan struct{}),
	}
	for i, sn := range snaps {
		x.shards[i] = &shardState{}
		x.shards[i].cur.Store(sn)
	}
	x.wg.Add(1)
	go x.loop()
	return x
}

// partition splits the sorted keys at bounds and builds each shard's first
// epoch: the construction New and Freeze share.
func partition(keys []uint32, bounds []uint32, m int) []*snapshot {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("shard: boundaries not strictly ascending at %d", i))
		}
	}
	snaps := make([]*snapshot, len(bounds)+1)
	lo := 0
	for i := range snaps {
		hi := len(keys)
		if i < len(bounds) {
			b := bounds[i]
			hi = lo + sort.Search(len(keys)-lo, func(j int) bool { return keys[lo+j] >= b })
		}
		part := keys[lo:hi]
		snaps[i] = &snapshot{epoch: 1, keys: part, tree: csstree.BuildLevel(part, m), total: len(part)}
		lo = hi
	}
	return snaps
}

// Close flushes any pending batches, publishes their epoch-swaps, and stops
// the background rebuilder.  Close is idempotent; reads remain valid after
// Close, writes after Close are never absorbed, so finish writing first.
func (x *Index) Close() {
	x.closeOnce.Do(func() {
		close(x.done)
		x.wg.Wait()
		// Nothing will fold a closed index: its delta leaves the lag gauges.
		for _, s := range x.shards {
			sn := s.cur.Load()
			gaugeDeltaKeys.Add(-int64(sn.deltaKeys()))
			gaugeTombstones.Add(-int64(len(sn.tomb.keys)))
		}
	})
}

// ShardCount returns the number of shards.
func (x *Index) ShardCount() int { return len(x.shards) }

// Bounds returns the split boundaries (len = ShardCount()-1, strictly
// ascending): shard i serves keys < Bounds()[i], the last shard the rest.
func (x *Index) Bounds() []uint32 { return slices.Clone(x.bounds) }

// Epochs returns each shard's current epoch.  A shard's epoch starts at 1
// and increments by exactly 1 per published epoch-swap, so Epochs-1 summed
// is the total number of epoch-swaps served.
func (x *Index) Epochs() []uint64 {
	out := make([]uint64, len(x.shards))
	for i, s := range x.shards {
		out[i] = s.cur.Load().epoch
	}
	return out
}

// Len returns the total number of keys across shards (see the type comment
// for consistency during concurrent rebuilds).
func (x *Index) Len() int {
	n := 0
	for _, s := range x.shards {
		n += s.cur.Load().len()
	}
	return n
}

// route returns the shard that serves key under the split boundaries.
func route(bounds []uint32, key uint32) int {
	return sort.Search(len(bounds), func(i int) bool { return key < bounds[i] })
}

// shardFor routes a key to its shard.
func (x *Index) shardFor(key uint32) int { return route(x.bounds, key) }

// offsetTo sums the lengths of shards before s (one atomic load each).
func (x *Index) offsetTo(s int) int {
	off := 0
	for i := 0; i < s; i++ {
		off += x.shards[i].cur.Load().len()
	}
	return off
}

// Search returns the global position of the leftmost occurrence of key,
// or -1 if absent.
func (x *Index) Search(key uint32) int {
	s := x.shardFor(key)
	noteProbe(s)
	snap := x.shards[s].cur.Load()
	i := snap.search(key)
	if i < 0 {
		return -1
	}
	return x.offsetTo(s) + i
}

// LowerBound returns the smallest global position whose key is ≥ key, or
// Len() if none is.
func (x *Index) LowerBound(key uint32) int {
	s := x.shardFor(key)
	noteProbe(s)
	snap := x.shards[s].cur.Load()
	return x.offsetTo(s) + snap.lowerBound(key)
}

// EqualRange returns the half-open global position range [first,last) of
// occurrences of key.  Routing sends every duplicate of a key to one shard,
// so the range is exact.
func (x *Index) EqualRange(key uint32) (first, last int) {
	s := x.shardFor(key)
	noteProbe(s)
	snap := x.shards[s].cur.Load()
	lo, hi := snap.equalRange(key)
	off := x.offsetTo(s)
	return off + lo, off + hi
}

// Insert enqueues keys for insertion.  The keys become visible at the
// affected shards' next epoch-swaps; Sync waits for that.
func (x *Index) Insert(keys ...uint32) { x.enqueue(keys, true) }

// Delete enqueues keys for deletion with multiset semantics: each requested
// key removes at most one occurrence; absent keys are ignored.
func (x *Index) Delete(keys ...uint32) { x.enqueue(keys, false) }

// enqueue routes the keys to their shards' pending batches: it groups them
// by shard first, in pooled scratch, then appends each shard's group under
// one hold of that shard's lock, so a write takes each lock it needs once and
// allocates nothing beyond the pending slices' own growth.
func (x *Index) enqueue(keys []uint32, ins bool) {
	if len(keys) == 0 {
		return
	}
	s := scratchFrom(&x.scratch, len(keys), len(x.shards))
	_, gathered := s.groupByShard(keys, x.bounds)
	for sh, st := range x.shards {
		group := gathered[s.counts[sh]:s.counts[sh+1]]
		if len(group) == 0 {
			continue
		}
		st.mu.Lock()
		if ins {
			st.insPend = append(st.insPend, group...)
		} else {
			st.delPend = append(st.delPend, group...)
		}
		st.mu.Unlock()
	}
	x.scratch.Put(s)
	select {
	case x.wake <- struct{}{}:
	default:
	}
}

// Sync blocks until every update enqueued before the call has been absorbed
// and its epoch-swap published.  After Close, Sync returns immediately
// (Close already flushed).
func (x *Index) Sync() {
	ack := make(chan struct{})
	select {
	case x.syncs <- ack:
		<-ack
	case <-x.done:
	}
}

// loop is the background rebuilder: it drains dirty shards on every wake or
// sync request and once more on Close.
func (x *Index) loop() {
	defer x.wg.Done()
	for {
		select {
		case <-x.done:
			x.drain()
			return
		case ack := <-x.syncs:
			x.drain()
			close(ack)
		case ack := <-x.compacts:
			x.drain()
			x.compactAll()
			close(ack)
		case <-x.wake:
			x.drain()
		}
	}
}

// publish swaps in shard s's next snapshot and accounts for it in one place:
// the lifetime counters behind DeltaStats, the swap's telemetry by outcome,
// and the lag gauges, moved by the change in the shard's outstanding delta.
func (x *Index) publish(s *shardState, next *snapshot, folded bool, start time.Time) {
	old := s.cur.Swap(next)
	gaugeDeltaKeys.Add(int64(next.deltaKeys() - old.deltaKeys()))
	gaugeTombstones.Add(int64(len(next.tomb.keys) - len(old.tomb.keys)))
	if folded {
		x.folds.Add(1)
		ctrFolds.Inc()
		histFoldNs.Since(start)
	} else {
		x.deltaAppends.Add(1)
		ctrAbsorbs.Inc()
		histAbsorbNs.Since(start)
	}
}

// drain repeatedly sweeps the shards, absorbing and publishing any pending
// batches, until a full sweep finds nothing to do.  Every batch goes through
// absorb (delta.go); the shard then folds — the full §2.3 rebuild — only if
// its delta has reached the policy's threshold.  A batch that changes
// nothing on a shard with no delta (deletes of absent keys) publishes nothing.
func (x *Index) drain() {
	for {
		dirty := false
		for _, s := range x.shards {
			s.mu.Lock()
			ins, del := s.insPend, s.delPend
			s.insPend, s.delPend = nil, nil
			s.mu.Unlock()
			if len(ins) == 0 && len(del) == 0 {
				continue
			}
			dirty = true
			start := telemetry.Now()
			old := s.cur.Load()
			next := absorb(old, ins, del)
			if old.deltaKeys() == 0 && next.deltaKeys() == 0 {
				continue // deletes of absent keys only: nothing changed, nothing to publish
			}
			fold := next.deltaKeys() > 0 && x.delta.shouldFold(next.deltaKeys(), len(next.keys))
			if fold {
				next = x.fold(next, next.epoch)
			}
			x.publish(s, next, fold, start)
		}
		if !dirty {
			return
		}
	}
}

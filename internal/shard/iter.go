package shard

// Frozen cross-shard views and the merging range iterator.  A View captures
// every shard's current snapshot with one atomic load each; the captured
// snapshots are immutable, so a View gives repeatable reads with stable
// global positions no matter how many epoch-swaps happen behind it — the
// serving layer's equivalent of a read transaction.  Freeze builds a View
// with no Index behind it at all.

import (
	"slices"
	"sort"
	"sync"

	"cssidx/internal/parallel"
)

// View is a frozen capture of all shards: repeatable reads with stable
// global positions, unaffected by concurrent epoch-swaps.  Each shard's
// snapshot is internally consistent; the set reflects each shard's latest
// epoch at capture time.  Views are cheap (no copying) and safe for
// concurrent use.  A captured View inherits the Index's worker-pool options;
// a Freeze view has the default pool and its own span tuner.
type View struct {
	bounds []uint32
	snaps  []*snapshot
	offs   []int // offs[i] = global start of shard i; offs[len(snaps)] = Len

	par  parallel.Options
	pool *sync.Pool // batchScratch pool, shared with the owning Index if any
}

// Snapshot captures a frozen cross-shard view (one atomic load per shard,
// no copying).
func (x *Index) Snapshot() *View {
	v := &View{bounds: x.bounds, snaps: make([]*snapshot, len(x.shards)), offs: make([]int, len(x.shards)+1), pool: &x.scratch}
	x.capture(v)
	return v
}

// capture loads every shard's current snapshot into v, whose slices are
// sized for the index, and sums their offsets.
func (x *Index) capture(v *View) {
	v.par = x.parOpts()
	for i, s := range x.shards {
		v.snaps[i] = s.cur.Load()
	}
	v.sumOffsets()
}

// batchView is Snapshot for the Index's own batch methods: the View comes
// from the index's pool, and releaseView returns it with its snapshot
// pointers cleared, so a pooled View pins no retired base.
func (x *Index) batchView() *View {
	v, _ := x.views.Get().(*View)
	if v == nil {
		return x.Snapshot()
	}
	x.capture(v)
	return v
}

func (x *Index) releaseView(v *View) {
	clear(v.snaps)
	x.views.Put(v)
}

// Freeze builds a frozen view over the sorted keys split at bounds — the
// same shards and trees New builds (see New for the arguments), with no
// index and no background rebuilder behind them: the structure for keys
// that are never updated in place.
func Freeze(keys []uint32, bounds []uint32, m int) *View {
	snaps := partition(keys, bounds, m)
	return newView(slices.Clone(bounds), snaps, parallel.Options{Tuner: new(parallel.Tuner)}, new(sync.Pool))
}

// newView assembles a view over captured snapshots, summing their offsets.
func newView(bounds []uint32, snaps []*snapshot, par parallel.Options, pool *sync.Pool) *View {
	v := &View{bounds: bounds, snaps: snaps, offs: make([]int, len(snaps)+1), par: par, pool: pool}
	v.sumOffsets()
	return v
}

// sumOffsets sets offs from the captured snapshots' lengths.
func (v *View) sumOffsets() {
	for i, sn := range v.snaps {
		v.offs[i+1] = v.offs[i] + sn.len()
	}
}

// Len returns the total number of keys in the view.
func (v *View) Len() int { return v.offs[len(v.snaps)] }

// ShardCount returns the number of shards.
func (v *View) ShardCount() int { return len(v.snaps) }

// Bounds returns the split boundaries (see Index.Bounds).
func (v *View) Bounds() []uint32 { return slices.Clone(v.bounds) }

// Epochs returns the epoch of each captured shard snapshot — the
// invalidation token consumers (result caches, snapshot save/restore)
// identify this frozen state by.
func (v *View) Epochs() []uint64 {
	out := make([]uint64, len(v.snaps))
	for i, s := range v.snaps {
		out[i] = s.epoch
	}
	return out
}

// Key returns the key at a global position: a direct array access when the
// shard carries no delta, a rank-select across base − tomb + ins when it
// does.
func (v *View) Key(pos int) uint32 {
	s := sort.Search(len(v.snaps), func(i int) bool { return v.offs[i+1] > pos })
	sn := v.snaps[s]
	if sn.deltaKeys() == 0 {
		return sn.keys[pos-v.offs[s]]
	}
	return sn.selectKth(pos - v.offs[s])
}

func (v *View) shardFor(key uint32) int { return route(v.bounds, key) }

// Search returns the global position of the leftmost occurrence of key, or -1.
func (v *View) Search(key uint32) int {
	s := v.shardFor(key)
	i := v.snaps[s].search(key)
	if i < 0 {
		return -1
	}
	return v.offs[s] + i
}

// LowerBound returns the smallest global position with key ≥ key, or Len().
func (v *View) LowerBound(key uint32) int {
	s := v.shardFor(key)
	return v.offs[s] + v.snaps[s].lowerBound(key)
}

// EqualRange returns the half-open global position range equal to key.
func (v *View) EqualRange(key uint32) (first, last int) {
	s := v.shardFor(key)
	lo, hi := v.snaps[s].equalRange(key)
	return v.offs[s] + lo, v.offs[s] + hi
}

// Range returns an iterator over the keys in the half-open value range
// [lo, hi), in ascending order with their global positions.
func (v *View) Range(lo, hi uint32) *RangeIter {
	start := v.LowerBound(lo)
	end := start
	if lo < hi {
		end = v.LowerBound(hi)
	}
	it := v.rangeAt(start, end)
	it.startKey, it.haveStart = lo, true
	return it
}

// Ascend calls fn for every key in the half-open value range [lo, hi) in
// ascending order, with its global position; fn returning false stops the
// scan.
func (v *View) Ascend(lo, hi uint32, fn func(pos int, key uint32) bool) {
	for it := v.Range(lo, hi); ; {
		k, pos, ok := it.Next()
		if !ok || !fn(pos, k) {
			return
		}
	}
}

// Ascend is View.Ascend over a fresh Snapshot.
func (x *Index) Ascend(lo, hi uint32, fn func(pos int, key uint32) bool) {
	x.Snapshot().Ascend(lo, hi, fn)
}

// RangeAll returns an iterator over every key in the view.
func (v *View) RangeAll() *RangeIter { return v.rangeAt(0, v.Len()) }

func (v *View) rangeAt(start, end int) *RangeIter {
	it := &RangeIter{v: v, pos: start, end: end}
	it.shard = sort.Search(len(v.snaps), func(i int) bool { return v.offs[i+1] > start })
	return it
}

// RangeIter is a merging cross-shard iterator.  Because the shards
// range-partition the key space, the cross-shard merge degenerates to
// ordered concatenation; inside a shard the base array and its insert run
// DO interleave and the tombstone run consumes base occurrences, so the
// iterator keeps three cursors — with no delta outstanding, Next
// degenerates to the plain array walk it was before the delta layer.
type RangeIter struct {
	v     *View
	shard int
	pos   int // global position of the next key
	end   int // global position to stop before

	// Cursors into the current shard's base, insert run and tombstone run.
	// Repositioned on every shard hop.
	base, ins, tomb int
	inShard         int    // shard the cursors belong to
	started         bool   // cursors initialised at least once
	startKey        uint32 // value the iteration started at (set by Range):
	haveStart       bool   // positions the cursors mid-shard on the first shard
}

// Remaining returns the number of keys left to yield.
func (it *RangeIter) Remaining() int { return it.end - it.pos }

// Next yields the next key and its global position, or ok=false at the end.
func (it *RangeIter) Next() (key uint32, pos int, ok bool) {
	if it.pos >= it.end {
		return key, 0, false
	}
	v := it.v
	for it.pos >= v.offs[it.shard+1] { // hop empty or exhausted shards
		it.shard++
	}
	sn := v.snaps[it.shard]
	pos = it.pos
	it.pos++
	if sn.deltaKeys() == 0 {
		return sn.keys[pos-v.offs[it.shard]], pos, true
	}
	if !it.started || it.inShard != it.shard {
		it.initShard(sn, pos-v.offs[it.shard])
	}
	// A base occurrence is consumed by the tombstone that deletes it.
	for it.tomb < len(sn.tomb.pos) && int(sn.tomb.pos[it.tomb]) == it.base {
		it.base++
		it.tomb++
	}
	// The smaller head wins; the base wins ties.
	if it.ins < len(sn.ins.keys) && (it.base == len(sn.keys) || sn.ins.keys[it.ins] < sn.keys[it.base]) {
		key = sn.ins.keys[it.ins]
		it.ins++
	} else {
		key = sn.keys[it.base]
		it.base++
	}
	return key, pos, true
}

// initShard positions the three cursors.  local is the live rank to start
// at: 0 at a shard boundary, or — only on the iterator's first shard — the
// rank of startKey's lower bound, which the base realises as its own lower
// bound of startKey and each run as its rank below it.
func (it *RangeIter) initShard(sn *snapshot, local int) {
	it.base, it.ins, it.tomb = 0, 0, 0
	if local != 0 {
		if !it.haveStart {
			panic("shard: range iterator started mid-shard without a start key")
		}
		lb := int32(sn.tree.LowerBound(it.startKey))
		il, _, tl, _ := sn.rank(it.startKey, lb)
		it.base, it.ins, it.tomb = int(lb), int(il), int(tl)
	}
	it.inShard = it.shard
	it.started = true
}

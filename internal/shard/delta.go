package shard

// The mutable delta layer under the epoch-swap cycle.  The paper's §2.3
// position — rebuild indexes from scratch after a batch of updates — is
// exactly right for large batches, but it makes small batches pay the full
// O(shard) merge + tree build no matter how few keys arrived.  The delta
// layer flattens that cliff for inserts AND deletes: a shard snapshot is an
// immutable base (sorted array + tree) plus two small sorted runs published
// beside it,
//
//	ins  — keys inserted since the last fold
//	tomb — tombstones: base occurrences deleted since the last fold
//	       (always a sub-multiset of the base)
//
// and its logical content is base − tomb + ins, total = len(base) +
// len(ins) − len(tomb).  A drained batch is absorbed in O(delta): inserts
// merge into ins; each delete cancels an ins key if there is one, else
// tombstones a still-live base occurrence, else is ignored (multiset
// semantics, inserts before deletes within one batch, which is call order:
// an insert after pending deletes opens the next batch).  Only when
// len(ins)+len(tomb) reaches 1/foldDenominator of the base does the shard
// fold — the original rebuild, now a span copy (mergedKeys) and a tree build.
//
// What a delta costs a read.  Positions are global ranks, so ANY outstanding
// delta taxes EVERY probe with rank = base rank + rank in ins − rank in tomb.
// In sizing, a binary search per run cost twice the read — a dozen
// mispredicted branches per probe, not cache misses — and a CSS-tree over
// each run +40 %.  What removes the search is that the base descent has
// already produced the probe's base lower bound lb, and every run key
// carries ITS base position: the position directory (posDir) tells from lb
// alone how many run keys sit below lb's 64-slot bucket of the base and
// whether any sit inside it — usually none — so the delta costs one bit
// word, a popcount and one count pair, and no search: the paper's "compute
// the offset, don't store or chase it", applied to the delta.  The
// directory is sized by the delta, not by the base: a dense count pair per
// 256 base slots cost 15.6 KB on every absorb into a 500K-key shard, however
// few keys the absorb brought.
//
// The fold threshold is the whole trade: a larger delta folds less often
// (fewer O(shard) rebuilds, less allocation) but marks more buckets, and a
// probe whose bucket is marked has to look at run keys; every absorb also
// copies the insert run.  The sweep behind the default (2-vCPU box; every
// run is in BENCH_ablation.json under pr47_compact_directory): the read tax
// is BenchmarkSearchBatchDelta's — 512-probe Zipf batches over 8 × 500K
// keys, a half and a full delta against none, medians of 20 alternating
// rounds — and the serve_sharded columns are median per-seed ratios to the
// dense directory at base/512 over seeds 1–7:
//
//	fold at                 tax half   tax full   read_p50_us   cpu_us/op   alloc B/op
//	base/512, dense (was)   —          +35 %      1             1           1
//	base/512                +9 %       +19 %      —             —           —
//	base/256                +13 %      +23 %      0.97×         0.97×       0.60×
//	base/128                +19 %      +29 %      1.10×         1.10×       0.65×
//
// The rule fixed before measuring takes the largest delta whose full tax
// does not exceed the dense directory's at base/512.  base/128 passes it by
// the median but inside the spread (quartiles 21–41 % against 22–45 %), and
// end to end it reads 1.10× slower, spends 1.10× the CPU and allocates more
// than base/256, since every absorb copies an insert run twice as long.
// base/256 folds half as often as the old default and is no worse anywhere.

import (
	"math/bits"
	"slices"
	"sort"

	"cssidx/internal/csstree"
	"cssidx/internal/telemetry"
)

// The fold thresholds: a shard folds once its insert run plus tombstones
// reach 1/foldDenominator of its base (the sweep above) and hold at least
// minFoldKeys keys, so a tiny shard does not fold on every batch.  A caller
// that wants a fold sooner calls Compact.
const (
	foldDenominator = 256
	minFoldKeys     = 512
)

// deltaPolicy is the fold schedule.  The zero value is the engine's; only
// tests set another, to fold every batch, never, or at a small size.
type deltaPolicy struct {
	disabled  bool // fold every batch: the pure §2.3 cycle
	foldDenom int  // 0 means foldDenominator
	minFold   int  // 0 means minFoldKeys
}

// shouldFold reports whether a delta of deltaKeys over a base of baseKeys
// has reached the fold threshold.
func (p deltaPolicy) shouldFold(deltaKeys, baseKeys int) bool {
	if p.disabled {
		return true
	}
	denom, least := p.foldDenom, p.minFold
	if denom <= 0 {
		denom = foldDenominator
	}
	if least <= 0 {
		least = minFoldKeys
	}
	return deltaKeys >= least && deltaKeys*denom >= baseKeys
}

// DeltaStats snapshots the delta layer across all shards.
type DeltaStats struct {
	BaseKeys   int // keys in the immutable base arrays
	DeltaKeys  int // insert-run keys plus tombstones awaiting a fold
	Tombstones int // the tombstone share of DeltaKeys
	Runs       int // non-empty runs across shards (at most two per shard)
	Appends    uint64
	RunMerges  uint64 // always 0: a shard holds one run of each kind, nothing tiers
	Folds      uint64
}

// dirShift sizes the position directory's buckets: 2^dirShift base slots
// each.  Only buckets that hold a run key cost a count pair, so a bucket
// can be small — a probe whose bucket is empty pays no run scan — while
// the directory stays sized by the delta: at a full delta of base/256,
// about one bucket in five is marked.
const dirShift = 6

// bucketScanMax is the bucket size up to which rank scans linearly.  Past
// it — many run keys positioned in one 64-slot stretch of the base, which
// takes a skewed insert stream such as monotone appends — the bucket is
// binary searched instead, so a probe never scans a whole run.
const bucketScanMax = 32

// run is one immutable sorted delta array positioned against the base.
// pos[i] is the base position keys[i] belongs at: for an insert the base
// lower bound of the key (it sorts before base[pos]), for a tombstone the
// exact base occurrence it deletes (base[pos] == key, strictly ascending;
// a key's tombstones delete its FIRST occurrences).  The zero value is the
// empty run.
type run struct {
	keys []uint32
	pos  []int32
}

// posDir is a snapshot's position directory over both runs, sized by the
// delta, not by the base.  The base is cut into buckets of 2^dirShift
// positions; only buckets that hold a run key (marked) carry counts:
//
//	bits  — one bit per bucket, set when any insert or tombstone is
//	        positioned in it
//	below — below[w] is the number of set bits in bits[:w]
//	cum   — one (ins, tomb) pair per marked bucket, in bucket order: the
//	        run keys positioned below that bucket; then the totals
//
// A bucket's rank among the marked ones is below[w] plus a popcount of its
// word under its bit, so locating lb's counts takes one word, one popcount
// and one pair — no search.  Over a shard of half a million keys the bits and
// word counts take 1.5 KB, and each marked bucket 8 bytes more.  The zero
// value is the empty directory.
type posDir struct {
	bits  []uint64
	below []int32
	cum   []int32
}

// buildDir builds the directory over the runs' positions into a base of
// nbase keys.
func buildDir(ins, tomb []int32, nbase int) posDir {
	if len(ins)+len(tomb) == 0 {
		return posDir{}
	}
	// lb ranges over [0, nbase], so bucket nbase>>dirShift must have a bit.
	nw := nbase>>(dirShift+6) + 1
	d := posDir{bits: make([]uint64, nw)}
	for _, p := range ins {
		d.mark(p)
	}
	for _, p := range tomb {
		d.mark(p)
	}
	marked := 0
	for _, w := range d.bits {
		marked += bits.OnesCount64(w)
	}
	counts := make([]int32, nw+2*(marked+1))
	d.below, d.cum = counts[:nw:nw], counts[nw:]
	var r int32
	for w, word := range d.bits {
		d.below[w] = r
		r += int32(bits.OnesCount64(word))
	}
	// A key counts into every pair after its bucket's own: histogram it
	// into the next pair, then prefix-sum both columns.
	for _, p := range ins {
		i, _ := d.at(p)
		d.cum[i+2]++
	}
	for _, p := range tomb {
		i, _ := d.at(p)
		d.cum[i+3]++
	}
	var ni, nt int32
	for j := 0; j < len(d.cum); j += 2 {
		ni, nt = ni+d.cum[j], nt+d.cum[j+1]
		d.cum[j], d.cum[j+1] = ni, nt
	}
	return d
}

// mark sets the bit of position p's bucket.
func (d *posDir) mark(p int32) {
	b := uint(p) >> dirShift
	d.bits[b>>6] |= 1 << (b & 63)
}

// at locates base position lb's bucket: cum[i], cum[i+1] count the insert-run
// keys and tombstones positioned below it, and hit reports whether the
// bucket holds any run key itself — its keys then end at cum[i+2], cum[i+3].
func (d *posDir) at(lb int32) (i int, hit bool) {
	b := uint(lb) >> dirShift
	w := d.bits[b>>6]
	bit := uint64(1) << (b & 63)
	return 2 * (int(d.below[b>>6]) + bits.OnesCount64(w&(bit-1))), w&bit != 0
}

// --- merged-snapshot read helpers -------------------------------------------
//
// Positions are ranks in the live multiset base − tomb + ins.  Ties between
// equal keys resolve some fixed way per surface — unobservable through keys.

// len returns the live key count.
func (sn *snapshot) len() int { return sn.total }

// deltaKeys returns the number of run keys awaiting a fold.
func (sn *snapshot) deltaKeys() int { return len(sn.ins.keys) + len(sn.tomb.keys) }

// rank is the one rank helper every read surface shares: given lb, key's
// lower bound in the base, it returns how many insert-run keys and how many
// tombstones are < key and == key — no search, because lb has already
// located the key.  Run keys positioned below lb's bucket are all < key,
// those above it all ≥ key, and a run key equal to key is positioned at lb
// itself (a key's first tombstone deletes its first occurrence), so an
// unmarked bucket answers from one directory pair without touching a run.
// Call it only on a snapshot that carries a delta.
func (sn *snapshot) rank(key uint32, lb int32) (insLess, insEq, tombLess, tombEq int32) {
	i, hit := sn.dir.at(lb)
	d := sn.dir.cum[i:]
	insLess, tombLess = d[0], d[1]
	if !hit {
		return
	}
	d = d[:4]
	if insLess != d[2] {
		insLess, insEq = rankIn(sn.ins.keys, key, int(insLess), int(d[2]))
	}
	if tombLess != d[3] {
		tombLess, tombEq = rankIn(sn.tomb.keys, key, int(tombLess), int(d[3]))
	}
	return
}

// emptyBucket is rank's usual case, small enough to inline into the hottest
// batch loop: when lb's bucket holds no key of either run (ok), no run key
// equals the probe and its live rank is lb + adj.
func (sn *snapshot) emptyBucket(lb int32) (adj int32, ok bool) {
	i, hit := sn.dir.at(lb)
	return sn.dir.cum[i] - sn.dir.cum[i+1], !hit
}

// rankIn finishes rank inside one run's non-empty bucket keys[i:end].  A
// bucket usually holds one or two keys, so it is counted without a
// data-dependent branch (the counts compile to conditional moves): what made
// a per-run binary search expensive was its mispredictions, not its loads.
func rankIn(keys []uint32, key uint32, i, end int) (less, equal int32) {
	if end-i > bucketScanMax {
		i += sort.Search(end-i, func(j int) bool { return keys[i+j] >= key })
		j := i
		for j < len(keys) && keys[j] == key {
			j++
		}
		return int32(i), int32(j - i)
	}
	lt, eq := i, 0
	for _, k := range keys[i:end] {
		if k < key {
			lt++
		}
		if k == key {
			eq++
		}
	}
	if keys[end-1] == key {
		// Tombstones of one key may run past the bucket.
		for j := end; j < len(keys) && keys[j] == key; j++ {
			eq++
		}
	}
	return int32(lt), int32(eq)
}

// present reports whether key is live: inserted, or a base occurrence
// outlives the key's tombstones (which delete its first tombEq occurrences).
func (sn *snapshot) present(key uint32, lb, insEq, tombEq int32) bool {
	q := int(lb + tombEq)
	return insEq > 0 || (q < len(sn.keys) && sn.keys[q] == key)
}

// baseEqual counts the base occurrences of key from its lower bound lb.
func (sn *snapshot) baseEqual(key uint32, lb int32) int32 {
	end := int(lb)
	for end < len(sn.keys) && sn.keys[end] == key {
		end++
	}
	return int32(end) - lb
}

// lowerBound returns the live rank of the smallest key ≥ key.
func (sn *snapshot) lowerBound(key uint32) int {
	lb := sn.tree.LowerBound(key)
	if sn.deltaKeys() == 0 {
		return lb
	}
	il, _, tl, _ := sn.rank(key, int32(lb))
	return lb + int(il-tl)
}

// search returns the live rank of the leftmost occurrence of key, or -1.
func (sn *snapshot) search(key uint32) int {
	if sn.deltaKeys() == 0 {
		return sn.tree.Search(key)
	}
	lb := int32(sn.tree.LowerBound(key))
	il, insEq, tl, tombEq := sn.rank(key, lb)
	if !sn.present(key, lb, insEq, tombEq) {
		return -1
	}
	return int(lb + il - tl)
}

// equalRange returns the live half-open rank range of key.
func (sn *snapshot) equalRange(key uint32) (first, last int) {
	if sn.deltaKeys() == 0 {
		return sn.tree.EqualRange(key)
	}
	lb := int32(sn.tree.LowerBound(key))
	il, insEq, tl, tombEq := sn.rank(key, lb)
	first = int(lb + il - tl)
	return first, first + int(sn.baseEqual(key, lb)-tombEq+insEq)
}

// selectKth returns the k-th smallest live key (0-based rank-select) — the
// cold Key path, so it may binary search.  Placing each insert before its
// equal base keys, insert i sits at live rank i + (pos[i] − tombstones below
// pos[i]), strictly ascending in i; if no insert sits at k, the answer is a
// live base key, whose base index is its live index plus the tombstones
// that precede it.
func (sn *snapshot) selectKth(k int) uint32 {
	ins, tomb := &sn.ins, &sn.tomb
	tombsBelow := func(p int32) int {
		return sort.Search(len(tomb.pos), func(t int) bool { return tomb.pos[t] >= p })
	}
	i := sort.Search(len(ins.keys), func(i int) bool {
		return i+int(ins.pos[i])-tombsBelow(ins.pos[i]) >= k
	})
	if i < len(ins.keys) && i+int(ins.pos[i])-tombsBelow(ins.pos[i]) == k {
		return ins.keys[i]
	}
	j := k - i // live base index; tombstone t precedes it iff pos[t]−t ≤ j
	return sn.keys[j+sort.Search(len(tomb.pos), func(t int) bool { return int(tomb.pos[t])-t > j })]
}

// mergedKeys flattens the snapshot into one sorted array (fold input,
// snapshot serialization): the base spans between consecutive insert and
// tombstone positions are copied whole into an exactly-sized array.  With
// no delta it returns the base array itself.
func (sn *snapshot) mergedKeys() []uint32 {
	if sn.deltaKeys() == 0 {
		return sn.keys
	}
	ins, tomb := &sn.ins, &sn.tomb
	out := make([]uint32, sn.total)
	w, src := 0, 0
	for i, j := 0, 0; i < len(ins.keys) || j < len(tomb.keys); {
		if j == len(tomb.keys) || (i < len(ins.keys) && ins.pos[i] <= tomb.pos[j]) {
			p := int(ins.pos[i])
			w += copy(out[w:], sn.keys[src:p])
			out[w] = ins.keys[i]
			w, src, i = w+1, p, i+1
		} else {
			p := int(tomb.pos[j])
			w += copy(out[w:], sn.keys[src:p])
			src, j = p+1, j+1
		}
	}
	copy(out[w:], sn.keys[src:])
	return out
}

// absorb builds shard s's next snapshot over the same base: the insert
// batch merges into the insert run, then each delete cancels an insert-run
// key if there is one, else tombstones a still-live base occurrence, else
// is ignored.  ins and del are consumed (sorted and compacted in place).
func absorb(old *snapshot, ins, del []uint32) *snapshot {
	slices.Sort(ins)
	slices.Sort(del)
	next := &snapshot{epoch: old.epoch + 1, keys: old.keys, tree: old.tree, ins: old.ins, tomb: old.tomb}
	if len(ins) > 0 || (len(del) > 0 && len(old.ins.keys) > 0) {
		next.ins, del = old.mergeInserts(ins, del)
	}
	if len(del) > 0 {
		next.tomb = old.addTombstones(del)
	}
	next.dir = buildDir(next.ins.pos, next.tomb.pos, len(next.keys))
	next.total = len(next.keys) + len(next.ins.keys) - len(next.tomb.keys)
	return next
}

// mergeInserts merges the sorted batch into the insert run — the new keys
// positioned by one descent over the batch only, the old keys carrying
// their positions along — dropping one merged key per matching delete.  It
// returns the new run and the deletes that cancelled nothing (compacted
// into del's storage).  The batch is small next to the run, so the merge
// walks the batch, not the run: each insert or delete finds its place in
// the old run by binary search and the stretch before it moves as one copy.
func (sn *snapshot) mergeInserts(ins, del []uint32) (run, []uint32) {
	old := &sn.ins
	pos := make([]int32, len(ins))
	sn.tree.LowerBoundBatch(ins, pos)
	keys := make([]uint32, 0, len(old.keys)+len(ins))
	kpos := make([]int32, 0, len(old.keys)+len(ins))
	rest := del[:0]
	i := 0 // old keys below i are merged
	copyOldBelow := func(k uint32) {
		hi := i + sort.Search(len(old.keys)-i, func(j int) bool { return old.keys[i+j] >= k })
		keys = append(keys, old.keys[i:hi]...)
		kpos = append(kpos, old.pos[i:hi]...)
		i = hi
	}
	for j, d := 0, 0; j < len(ins) || d < len(del); {
		if d == len(del) || (j < len(ins) && ins[j] <= del[d]) {
			copyOldBelow(ins[j])
			keys = append(keys, ins[j])
			kpos = append(kpos, pos[j])
			j++
			continue
		}
		// Every merged key ≤ del[d] is placed: the delete cancels an old
		// key equal to it, else an insert of this batch equal to it (the
		// last key placed), else nothing.
		k := del[d]
		d++
		copyOldBelow(k)
		switch {
		case i < len(old.keys) && old.keys[i] == k:
			i++
		case len(keys) > 0 && keys[len(keys)-1] == k:
			keys, kpos = keys[:len(keys)-1], kpos[:len(kpos)-1]
		default:
			rest = append(rest, k)
		}
	}
	if len(ins) == 0 && i == len(keys) {
		return *old, rest // no delete matched an insert
	}
	keys = append(keys, old.keys[i:]...)
	kpos = append(kpos, old.pos[i:]...)
	return run{keys: keys, pos: kpos}, rest
}

// addTombstones merges the sorted deletes into the tombstone run: each
// tombstones the first occurrence of its key in the base that no earlier
// tombstone covers, and deletes of keys with no live base occurrence are
// dropped.
func (sn *snapshot) addTombstones(del []uint32) run {
	old := &sn.tomb
	pos := make([]int32, len(del))
	sn.tree.LowerBoundBatch(del, pos)
	keys := make([]uint32, 0, len(old.keys)+len(del))
	kpos := make([]int32, 0, len(old.keys)+len(del))
	t := 0
	for i := 0; i < len(del); {
		k, q := del[i], int(pos[i])
		for ; t < len(old.keys) && old.keys[t] <= k; t++ {
			keys = append(keys, old.keys[t])
			kpos = append(kpos, old.pos[t])
			if old.keys[t] == k {
				q++ // this occurrence is already deleted
			}
		}
		for ; i < len(del) && del[i] == k; i++ {
			if q < len(sn.keys) && sn.keys[q] == k {
				keys = append(keys, k)
				kpos = append(kpos, int32(q))
				q++
			}
		}
	}
	if len(keys) == t {
		return *old // nothing was live to delete
	}
	keys = append(keys, old.keys[t:]...)
	kpos = append(kpos, old.pos[t:]...)
	return run{keys: keys, pos: kpos}
}

// fold builds the next snapshot the §2.3 way: the live keys in one fresh
// sorted array and a fresh tree over it.
func (x *Index) fold(sn *snapshot, epoch uint64) *snapshot {
	keys := sn.mergedKeys()
	return &snapshot{epoch: epoch, keys: keys, tree: csstree.BuildLevel(keys, x.m), total: len(keys)}
}

// DeltaStats snapshots the delta layer across shards: how many keys sit in
// immutable base arrays vs the outstanding delta (insert-run keys and
// tombstones), plus the lifetime absorb and fold counters.
func (x *Index) DeltaStats() DeltaStats {
	st := DeltaStats{
		Appends: x.deltaAppends.Load(),
		Folds:   x.folds.Load(),
	}
	for _, s := range x.shards {
		sn := s.cur.Load()
		st.BaseKeys += len(sn.keys)
		st.DeltaKeys += sn.deltaKeys()
		st.Tombstones += len(sn.tomb.keys)
		if len(sn.ins.keys) > 0 {
			st.Runs++
		}
		if len(sn.tomb.keys) > 0 {
			st.Runs++
		}
	}
	return st
}

// Compact folds every shard's outstanding delta into fresh base arrays and
// trees, after absorbing any pending batches, and blocks until the folds
// are published — the manual counterpart of the size-triggered fold.  After
// Close, Compact returns immediately.
func (x *Index) Compact() {
	ack := make(chan struct{})
	select {
	case x.compacts <- ack:
		<-ack
	case <-x.done:
	}
}

// compactAll folds every shard that holds a delta (background goroutine).
func (x *Index) compactAll() {
	for _, s := range x.shards {
		if old := s.cur.Load(); old.deltaKeys() > 0 {
			start := telemetry.Now()
			x.publish(s, x.fold(old, old.epoch+1), true, start)
		}
	}
}

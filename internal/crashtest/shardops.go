package crashtest

// One multiset model and one operation generator hold the sharded index to
// §2.3's claim: whatever its delta layer holds — an insert run, tombstones,
// a fold half done — every read answers what a rebuild of the same multiset
// would, and a durable index recovers exactly an acknowledged prefix of its
// batches.  The generator (RunShardOps) decodes a byte string: configuration
// bytes, then steps, each an insert or delete batch, one insert-and-delete
// batch drained together, a delete batch and then an insert of its keys
// with no Sync between, Sync, Compact, and on the durable leg a Checkpoint
// or a crash some filesystem operations ahead.  After every step Check
// passes and every read surface equals the model (verify); after a crash
// the reopened index holds exactly an acknowledged prefix (checkPrefix),
// then accepts a write and reopens to that prefix plus the write.
//
// Fold schedules other than the default, and a batch whose inserts and
// deletes are certain to drain together, need the shard package's internals:
// they reach the generator as ShardHooks, which only shard's own tests can
// fill.  Without them FoldEveryBatch compacts after every batch, the other
// schedules run the default, and a drained batch is an Insert, a Delete and
// a Sync — the same multiset either way.  ShardFocus pins an input to one
// claim; a failing input replays through RunShardOps with the bytes its
// failure prints.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"cssidx"
	"cssidx/internal/failfs"
	"cssidx/internal/parallel"
	"cssidx/internal/shard"
	"cssidx/internal/wal"
)

// Model is the reference every index is held to: its keys as one sorted
// slice, answering by definition, with multiset insert and delete.
type Model []uint32

// LowerBound is the position of the first key ≥ k.
func (m Model) LowerBound(k uint32) int {
	return sort.Search(len(m), func(i int) bool { return m[i] >= k })
}

// Search is the position of the first k, or -1.
func (m Model) Search(k uint32) int {
	if i := m.LowerBound(k); i < len(m) && m[i] == k {
		return i
	}
	return -1
}

// EqualRange is the half-open position range of k.
func (m Model) EqualRange(k uint32) (first, last int) {
	first = m.LowerBound(k)
	return first, first + sort.Search(len(m)-first, func(i int) bool { return m[first+i] > k })
}

// insert adds each key.
func (m *Model) insert(ks ...uint32) {
	for _, k := range ks {
		*m = slices.Insert(*m, m.LowerBound(k), k)
	}
}

// delete removes one occurrence of each key, if there is one.
func (m *Model) delete(ks ...uint32) {
	for _, k := range ks {
		if i := m.Search(k); i >= 0 {
			*m = slices.Delete(*m, i, i+1)
		}
	}
}

// AdversarialSets are the key sets that historically break index edge
// cases: empty, a single key, all duplicates, keys at the uint32 extremes,
// and runs of one node's length.
func AdversarialSets() map[string][]uint32 {
	var runs []uint32
	for v := uint32(1); v <= 6; v++ {
		runs = append(runs, slices.Repeat([]uint32{v * 1000}, 16)...)
	}
	return map[string][]uint32{"empty": {}, "single": {7}, "single-max": {math.MaxUint32},
		"all-dup": slices.Repeat([]uint32{42}, 100), "node-runs": runs,
		"extremes": {0, 0, 1, 2, math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32}}
}

// SetNames lists AdversarialSets' names in the order a configuration byte
// picks them: set i > 0 is SetNames()[i-1].
func SetNames() []string { return slices.Clone(setNames) }

var setNames = slices.Sorted(maps.Keys(AdversarialSets()))

// The fold schedules, by configuration byte.
const (
	FoldDefault    = iota
	FoldSmall      // a small denominator: a fold every few batches
	FoldNever      // only Compact folds
	FoldEveryBatch // the pure §2.3 cycle
)

// ShardHooks reach what the shard package does not export.  Fold sets an
// index's fold schedule; Drain enqueues ins and del as one batch the
// rebuilder drains together, and waits for it; KeyOrdered reports whether
// v's batch methods run probes in key order, and with it the tally counts
// each verified batch under its plan ("key-order plan", "input-order
// plan").
type ShardHooks struct {
	Fold       func(x *shard.Index, schedule int)
	Drain      func(x *shard.Index, ins, del []uint32)
	KeyOrdered func(v *shard.View, probes []uint32) bool
}

// The configuration's axes: the spans a key draw picks from (six values,
// so every key repeats many times over; a few hundred; thousands; any
// uint32), the shard counts, and the probe-order mixes, which add to a batch
// of distinct probes (input order) and a hot-key batch (key order) the
// probes in 7- and 64-probe chunks, or ascending.
var (
	shardSpans  = []uint32{6, 256, 5000, 0}
	shardCounts = []int{1, 3, 4, 8, 16}
)

const (
	mixChunks = 1 + iota
	mixSorted
)

// shardConfig is a decoded configuration.
type shardConfig struct {
	Set, Rows, Shards, Fold, Mix, Leg int // Leg 0 is in memory, i > 0 durable under Policies()[i-1]
	Span                              uint32
	FanOut                            bool
	seed                              byte
}

// The steps, by op byte: an op below a bound and at or above the one before
// picks that step; the rest schedule a crash.
const (
	stepInsert     = 80
	stepDelete     = 140
	stepDrain      = 170
	stepReinsert   = 180
	stepSync       = 196
	stepCompact    = 216
	stepCheckpoint = 236
)

// shardRec is one logged batch of the durable leg.
type shardRec struct {
	del  bool
	keys []uint32
}

// shardRun is one decoded run: its configuration, the input left, the
// index under test and the model, the last step's keys, and the tally.
type shardRun struct {
	cfg     shardConfig
	hooks   ShardHooks
	data    []byte
	src     *rand.PCG
	rng     *rand.Rand
	x       *shard.Index
	m       Model
	ins     []uint32 // the last step's inserts
	last    []uint32 // the last step's keys, probed by the next check
	tally   map[string]int
	sparse  bool        // verify every surface only after the last step (FuzzShardOps)
	frozenV *shard.View // the last full check's Snapshot
	frozenM Model       // and the model then

	// The durable leg: the store, its filesystem and policy, the base its
	// first snapshot holds, every batch logged since by sequence, what was
	// acknowledged and promised, and a crash scheduled.
	d     *cssidx.DurableSharded
	fsys  *failfs.Mem
	pol   wal.Policy
	base  Model
	recs  []shardRec
	out   outcome
	armed bool
}

// next hands out the input's next byte; an exhausted input reads as zeros.
func (r *shardRun) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// newShardRun decodes the configuration and draws the base, unless one is
// given.
func newShardRun(data []byte, hooks ShardHooks, base []uint32) *shardRun {
	r := &shardRun{data: data, hooks: hooks, tally: map[string]int{}}
	c := &r.cfg
	c.Set = int(r.next()) % (len(setNames) + 1)
	rows := r.next() // the low seven bits count 40s, or 640s with the top bit set
	c.Rows = int(rows%128) * 40 << (4 * (rows >> 7))
	c.Span, c.Shards = shardSpans[int(r.next())%len(shardSpans)], shardCounts[int(r.next())%len(shardCounts)]
	c.Fold = int(r.next()) % (FoldEveryBatch + 1)
	b := r.next()
	c.FanOut, c.Mix = b&1 == 1, int(b>>1)%3
	c.Leg, c.seed = int(r.next())%(len(Policies())+1), r.next()
	r.src = rand.NewPCG(uint64(c.seed), 0)
	r.rng = rand.New(r.src)
	switch {
	case base != nil:
		r.base = slices.Sorted(slices.Values(base))
	case c.Set > 0:
		r.base = AdversarialSets()[setNames[c.Set-1]]
	default:
		for range c.Rows {
			r.base = append(r.base, r.draw())
		}
		slices.Sort(r.base)
	}
	r.m = slices.Clone(r.base)
	return r
}

// draw is a generated key: one of span values spread evenly over the key
// space, with the space's edges mixed in.
func (r *shardRun) draw() uint32 {
	switch n := r.rng.IntN(24); {
	case n < 2:
		return uint32(n) * math.MaxUint32
	case r.cfg.Span == 0:
		return r.rng.Uint32()
	}
	return uint32(r.rng.IntN(int(r.cfg.Span))) * (math.MaxUint32 / r.cfg.Span)
}

// resident draws a key the model holds, or a fresh one if it holds none.
func (r *shardRun) resident() uint32 {
	if len(r.m) == 0 {
		return r.draw()
	}
	return r.m[r.rng.IntN(len(r.m))]
}

// inserts draws an insert batch of n keys: fresh, duplicates within the
// batch, and keys the model already holds.
func (r *shardRun) inserts(n int) []uint32 {
	ins := make([]uint32, 0, n)
	for len(ins) < n {
		switch c := r.rng.IntN(4); {
		case c == 0 && len(ins) > 0:
			ins = append(ins, ins[len(ins)-1])
		case c == 1:
			ins = append(ins, r.resident())
		default:
			ins = append(ins, r.draw())
		}
	}
	return ins
}

// deletes draws a delete batch of n keys: keys of ins (the same drained
// batch's, or the last step's), resident keys, a resident key more times
// than it occurs, and absent keys.
func (r *shardRun) deletes(n int, ins []uint32) []uint32 {
	del := make([]uint32, 0, n)
	for len(del) < n {
		switch c := r.rng.IntN(5); {
		case c == 0 && len(ins) > 0:
			del = append(del, ins[r.rng.IntN(len(ins))])
		case c == 1:
			del = append(del, r.resident())
		case c == 2:
			k := r.resident()
			f, l := r.m.EqualRange(k)
			copies := 0
			for ; copies <= l-f && len(del) < n; copies++ {
				del = append(del, k)
			}
			if copies > l-f {
				r.tally["over-delete"]++
			}
		case c == 3:
			del = append(del, r.draw()+1) // off the span's grid: absent but for a wrap or a full-span draw
		default:
			del = append(del, r.draw())
		}
	}
	return del
}

// FuzzShardOps is RunShardOps in the shape a fuzzer explores fast: a base of
// at most 200 keys, and every surface verified after the last step only;
// each step before holds the index to Check, Len and the scalar reads of the
// keys the step touched, and each recovery to its keys in order as well.
func FuzzShardOps(t testing.TB, data []byte, hooks ShardHooks) map[string]int {
	t.Helper()
	if len(data) > 1 {
		data = slices.Clone(data)
		data[1] %= 6
	}
	return RunShardOps(t, nil, data, hooks, true)
}

// RunShardOps decodes and runs one input over base, or over the base it
// draws when base is nil, verifying every surface after every step (after
// the last only, if sparse); it fails t at the first answer that differs
// from the model's, and tallies the paths it exercised.
func RunShardOps(t testing.TB, base []uint32, data []byte, hooks ShardHooks, sparse bool) map[string]int {
	t.Helper()
	r, step := newShardRun(data, hooks, base), 0
	r.sparse = sparse
	fail := func(err error) {
		t.Helper()
		t.Fatalf("step %d: %v\nconfiguration: %+v, base given: %v\ninput: %v", step, err, r.cfg, base != nil, data)
	}
	defer func() { // an engine panic fails this input, with where it happened
		if p := recover(); p != nil {
			fail(fmt.Errorf("panic: %v\n%s", p, debug.Stack()))
		}
	}()
	if err := r.open(nil, Policies()[max(r.cfg.Leg, 1)-1]); err != nil {
		fail(err)
	}
	defer r.close()
	err := r.check(!sparse)
	for ; err == nil && len(r.data) > 0; step++ {
		if err = r.step(step, true); err == nil {
			err = r.check(!sparse)
		}
	}
	if err == nil && r.armed { // the crash falls on the input's end
		r.fsys.SetCrashAt(r.fsys.OpCount())
		err = r.recover(true)
	}
	if err == nil {
		err = r.check(true)
	}
	if err == nil && r.d == nil { // Close, twice, drains batches never synced, in call order; Sync after it returns
		r.last = r.deletes(8, nil)
		r.x.Delete(r.last...)
		r.x.Insert(r.last...)
		r.m.delete(r.last...)
		r.m.insert(r.last...)
		r.x.Close()
		r.x.Close()
		r.x.Sync()
		err = r.check(false)
		r.tally["close flushed"]++
	}
	if err != nil {
		fail(err)
	}
	return r.tally
}

// open builds the index under test: in memory over the base, or a durable
// store on fsys (a fresh failfs.Mem when nil) under pol, the base saved as
// its first snapshot.
func (r *shardRun) open(fsys *failfs.Mem, pol wal.Policy) error {
	if r.cfg.Leg == 0 {
		r.x = shard.New(r.base, shard.Boundaries(r.base, r.cfg.Shards), shard.Slots)
		r.configure()
		return nil
	}
	if fsys == nil {
		fsys = failfs.NewMem(int64(r.cfg.seed))
	}
	r.fsys, r.pol = fsys, pol
	if len(r.base) > 0 {
		x := shard.New(r.base, shard.Boundaries(r.base, r.cfg.Shards), shard.Slots)
		err := fsys.MkdirAll("db")
		if err == nil {
			err = failfs.WriteFileAtomic(fsys, "db/idx.snap", func(w io.Writer) error { return cssidx.SaveSharded(w, x) })
		}
		if x.Close(); err != nil {
			return err
		}
	}
	return r.reopen()
}

// reopen opens the durable store; its index takes the run's configuration.
func (r *shardRun) reopen() error {
	d, err := cssidx.OpenWAL(r.fsys, "db", "idx", r.pol)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	r.d, r.x = d, d.ShardedIndex
	r.configure()
	return nil
}

// configure sets the fold schedule and workers on the index under test.
func (r *shardRun) configure() {
	if r.cfg.Fold != FoldDefault && r.hooks.Fold != nil {
		r.hooks.Fold(r.x, r.cfg.Fold)
	}
	if r.cfg.FanOut {
		r.x.SetParallel(parallel.Options{Workers: 4, MinBatchPerWorker: 16})
	}
}

func (r *shardRun) close() {
	if r.d != nil {
		r.d.Close()
	} else if r.x != nil {
		r.x.Close()
	}
}

// step decodes and applies step i, and leaves the index synced.  checked
// says a crash is recovered at once; the crash matrix's play returns it, and
// syncs no insert before a Checkpoint saves it.
func (r *shardRun) step(i int, checked bool) error {
	r.src.Seed(uint64(i), uint64(r.next()))
	op, before, prevIns, epochs, size := r.next(), r.x.DeltaStats(), r.ins, r.x.Epochs(), len(r.m)
	r.ins, r.last = nil, nil
	var err error
	switch {
	case op < stepInsert:
		err = r.write(false, r.inserts(int(r.next())%64))
		r.tally["insert batch"]++
	case op < stepDelete:
		err = r.write(true, r.deletes(int(r.next())%32, prevIns))
		r.tally["delete batch"]++
	case op < stepDrain:
		n := int(r.next()) % 32
		ins := r.inserts(n)
		del := r.deletes(n, ins)
		if r.d != nil || r.hooks.Drain == nil {
			if err = r.write(false, ins); err == nil {
				err = r.write(true, del)
			}
			break
		}
		r.hooks.Drain(r.x, ins, del)
		r.m.insert(ins...)
		r.m.delete(del...)
		r.ins, r.last = ins, append(slices.Clone(ins), del...)
		r.tally["drained batch"]++
	case op < stepReinsert: // the later insert applies after the deletes, though no Sync separates them
		keys := r.deletes(int(r.next())%32, prevIns)
		if err = r.write(true, keys); err == nil {
			if len(r.m) > size-len(keys) {
				r.tally["delete then insert of a missing key"]++
			}
			err = r.write(false, keys)
		}
	case op < stepSync:
		r.x.Sync()
	case op < stepCompact:
		if before.DeltaKeys > 0 {
			r.tally["compact with a delta"]++
		}
		r.x.Compact()
	case op < stepCheckpoint:
		if r.d == nil {
			break
		}
		if err = r.d.Checkpoint(); err == nil {
			r.out.durable = max(r.out.durable, r.d.LastSeq())
			r.tally["checkpoint"]++
			if before.Tombstones > 0 && before.DeltaKeys > before.Tombstones {
				r.tally["checkpoint of both runs"]++
			}
		}
	default:
		if k := int(r.next() % 32); r.d != nil && !r.armed {
			r.fsys.SetCrashAt(r.fsys.OpCount() + k)
			r.armed = true
		}
	}
	if errors.Is(err, failfs.ErrCrashed) && checked {
		return r.recover(true)
	}
	if err != nil || !checked {
		return err
	}
	if op < stepDrain && r.cfg.Fold == FoldEveryBatch && r.hooks.Fold == nil {
		r.x.Compact()
	}
	r.x.Sync()
	after := r.x.DeltaStats()
	if r.cfg.Fold == FoldEveryBatch && r.hooks.Fold != nil && r.d == nil && (after.Appends > 0 || after.DeltaKeys > 0) {
		return fmt.Errorf("the every-batch schedule kept a delta: %+v", after)
	}
	if op >= stepInsert && op < stepDelete && len(r.m) == size && before.DeltaKeys == 0 { // deletes of absent keys only
		if !slices.Equal(r.x.Epochs(), epochs) {
			return fmt.Errorf("deletes of absent keys over no delta published epochs %v → %v", epochs, r.x.Epochs())
		}
		r.tally["absent deletes published nothing"]++
	}
	for path, ok := range map[string]bool{
		"absorb": after.Appends > before.Appends, "fold": after.Folds > before.Folds, "tombstones": after.Tombstones > 0,
		"cancelled insert": after.Folds == before.Folds && after.DeltaKeys-after.Tombstones < before.DeltaKeys-before.Tombstones+len(r.ins),
	} {
		if ok {
			r.tally[path]++
		}
	}
	return nil
}

// write applies one batch: logged first on the durable leg, where an error
// is the crash, then the model follows.
func (r *shardRun) write(del bool, keys []uint32) error {
	if len(keys) == 0 {
		return nil
	}
	switch {
	case r.d != nil:
		r.recs = append(r.recs[:r.out.acked], shardRec{del, keys}) // the in-flight record
		r.out.inFlight = true
		write := r.d.Insert
		if del {
			write = r.d.Delete
		}
		if err := write(keys...); err != nil {
			return err
		}
		r.out.inFlight, r.out.acked = false, r.out.acked+1
		r.out.durable = max(r.out.durable, r.d.SyncedSeq())
	case del:
		r.x.Delete(keys...)
	default:
		r.x.Insert(keys...)
	}
	if del {
		r.m.delete(keys...)
	} else {
		r.m.insert(keys...)
		r.ins = append(r.ins, keys...)
	}
	r.last = append(r.last, keys...)
	return nil
}

// recover reopens the store after a crash (crashing the filesystem first
// when crash is set) and holds it to the prefix rule: it must hold exactly
// the base and the first k logged batches, for a k the policy allows; then
// accept a write; then reopen to exactly that plus the write.
func (r *shardRun) recover(crash bool) error {
	if r.d != nil {
		r.d.Close() // the log's close fails on the downed filesystem; the rebuilder stops
	}
	if crash {
		r.fsys.Crash()
	}
	r.armed = false
	if err := r.reopen(); err != nil {
		return err
	}
	k := r.d.LastSeq()
	if err := checkPrefix(k, r.out); err != nil {
		return err
	}
	r.tally["recovery"]++
	if k > r.out.acked {
		r.tally["in-flight batch recovered"]++
	}
	r.recs, r.m = r.recs[:k], slices.Clone(r.base)
	for _, rec := range r.recs {
		if rec.del {
			r.m.delete(rec.keys...)
		} else {
			r.m.insert(rec.keys...)
		}
	}
	r.out, r.last = outcome{acked: k, durable: k}, nil
	err := r.check(!r.sparse)
	if err == nil && r.sparse { // the prefix is exact: every key, in order
		err = walk("RangeAll", r.x.Snapshot().RangeAll(), r.m, 0, len(r.m))
	}
	if err != nil {
		return fmt.Errorf("recovered through seq %d: %w", k, err)
	}
	if err := r.write(false, []uint32{r.draw()}); err != nil {
		return fmt.Errorf("post-recovery insert: %w", err)
	}
	r.x.Sync()
	if err := r.d.Close(); err != nil {
		return err
	}
	r.out.durable = r.out.acked // a clean close syncs the log
	if err := r.reopen(); err != nil {
		return err
	}
	if got := r.d.LastSeq(); got != k+1 {
		return fmt.Errorf("second reopen at seq %d, want %d", got, k+1)
	}
	return r.check(!r.sparse)
}

// check holds the synced index under test to the model: Check, Len and the
// scalar reads of the last step's keys, and with all every read surface.
func (r *shardRun) check(all bool) error {
	if err := r.x.Check(); err != nil {
		return err
	}
	if all {
		return r.verify()
	}
	if r.x.Len() != len(r.m) {
		return fmt.Errorf("Len=%d, the model holds %d", r.x.Len(), len(r.m))
	}
	return verifyScalar(r.x, r.m, r.last[:min(len(r.last), 16)])
}

// verify holds the index to the model on every read surface: the scalar
// reads and Len of the index and of a Snapshot; Key at every position (at
// about 4,096 spread over a larger model); the RangeAll, Range and Ascend
// walks; the three batch kernels of the index and the snapshot on each of
// the mix's batches — in a sparse run, each batch on one of the two in turn;
// and the last check's Snapshot, frozen.  The probes are the key space's
// edges, the last step's keys, and a sample of the model's keys with their
// neighbours (fewer of each in a sparse run).
func (r *shardRun) verify() error {
	x, v, m, n := r.x, r.x.Snapshot(), r.m, 12
	if r.sparse {
		n = 4
	}
	probes := append([]uint32{0, 1, math.MaxUint32 - 1, math.MaxUint32}, r.last[:min(len(r.last), 2*n)]...)
	for i := 0; i < len(m); i += max(1, len(m)/n) {
		probes = append(probes, m[i]-1, m[i], m[i]+1)
	}
	if x.Len() != len(m) || v.Len() != len(m) {
		return fmt.Errorf("Len=%d, Snapshot Len=%d, the model holds %d", x.Len(), v.Len(), len(m))
	}
	if err := verifyScalar(x, m, probes); err != nil {
		return err
	}
	if err := verifyScalar(v, m, probes); err != nil {
		return fmt.Errorf("Snapshot: %w", err)
	}
	for pos := 0; pos < len(m); pos += 1 + len(m)/4096 { // every position of a small model
		if got := v.Key(pos); got != m[pos] {
			return fmt.Errorf("Key(%d)=%d, the model %d", pos, got, m[pos])
		}
	}
	if err := walk("RangeAll", v.RangeAll(), m, 0, len(m)); err != nil {
		return err
	}
	for i, p := range probes[:min(len(probes), 12)] {
		hi := p + min(math.MaxUint32-p, uint32(i%2)<<28) // every other range is empty
		if err := walk(fmt.Sprintf("Range(%d,%d)", p, hi), v.Range(p, hi), m, m.LowerBound(p), m.LowerBound(hi)); err != nil {
			return err
		}
	}
	asc, inOrder := []uint32(nil), true // Ascend's range is half open: MaxUint32 is out
	x.Ascend(0, math.MaxUint32, func(pos int, key uint32) bool {
		inOrder, asc = inOrder && pos == len(asc), append(asc, key)
		return inOrder
	})
	if want := m[:m.LowerBound(math.MaxUint32)]; !inOrder || !slices.Equal(asc, want) {
		return fmt.Errorf("Ascend yielded %d keys, positions in order %v; the model has %d, the first differing at %d", len(asc), inOrder, len(want), mismatch(asc, want))
	}
	input, keyOrdered, err := probeOrders(probes)
	if err != nil {
		return err
	}
	batches := [][]uint32{input, keyOrdered}
	switch r.cfg.Mix {
	case mixChunks: // short batches, and batches across the sampler's threshold
		for lo := 0; lo < min(len(input), 28); lo += 7 {
			batches = append(batches, input[lo:min(lo+7, len(input))])
		}
		for lo := 0; lo < len(keyOrdered); lo += 64 {
			batches = append(batches, keyOrdered[lo:min(lo+64, len(keyOrdered))])
		}
	case mixSorted:
		batches = append(batches, slices.Sorted(slices.Values(input)))
	}
	for i, b := range batches {
		surfaces := []batcher{x, v}
		if r.sparse {
			surfaces = surfaces[i%2 : i%2+1]
		}
		plan := "unreported"
		if r.hooks.KeyOrdered != nil {
			plan = "input-order"
			if r.hooks.KeyOrdered(v, b) {
				plan = "key-order"
			}
			r.tally[plan+" plan"]++
		}
		if err := verifyBatch(surfaces, m, b); err != nil {
			return fmt.Errorf("%w (a batch of %d, %s plan; the sample says key order %v)", err, len(b), plan, shard.ChooseKeyOrder(b))
		}
	}
	// The last full check's Snapshot is frozen: whatever the steps since, it
	// still answers, walked and batched, what the model did then.
	if r.frozenV != nil {
		if err := walk("a frozen Snapshot's RangeAll", r.frozenV.RangeAll(), r.frozenM, 0, len(r.frozenM)); err != nil {
			return err
		}
		if err := verifyBatch([]batcher{r.frozenV}, r.frozenM, keyOrdered); err != nil {
			return fmt.Errorf("a frozen Snapshot: %w", err)
		}
		r.tally["frozen view"]++
	}
	r.frozenV, r.frozenM = v, slices.Clone(m)
	return nil
}

// verifyScalar holds one surface's scalar reads of probes to the model.
func verifyScalar(s interface {
	Search(uint32) int
	LowerBound(uint32) int
	EqualRange(uint32) (int, int)
}, m Model, probes []uint32) error {
	for _, p := range probes {
		wf, wl := m.EqualRange(p)
		gf, gl := s.EqualRange(p)
		if s, lb, want := s.Search(p), s.LowerBound(p), m.Search(p); s != want || lb != wf || gf != wf || gl != wl {
			return fmt.Errorf("probe %d: Search %d, LowerBound %d, EqualRange [%d,%d); the model %d, %d, [%d,%d)", p, s, lb, gf, gl, want, wf, wf, wl)
		}
	}
	return nil
}

// walk holds an iterator to the model's keys m[from:to] and their positions.
func walk(name string, it *shard.RangeIter, m Model, from, to int) error {
	for i := from; i < to; i++ {
		if k, pos, ok := it.Next(); !ok || pos != i || k != m[i] {
			return fmt.Errorf("%s at %d: (%d,%d,%v), the model (%d,%d)", name, i, k, pos, ok, m[i], i)
		}
	}
	if k, pos, ok := it.Next(); ok {
		return fmt.Errorf("%s yields (%d,%d) past its end %d", name, k, pos, to)
	}
	return nil
}

// mismatch returns the first index where got and want differ.
func mismatch[T comparable](got, want []T) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	return min(len(got), len(want))
}

// batcher is the batch surface an Index and a View share.
type batcher interface {
	LowerBoundBatch(probes []uint32, out []int32)
	SearchBatch(probes []uint32, out []int32)
	EqualRangeBatch(probes []uint32, first, last []int32)
}

// verifyBatch holds the three batch kernels of each surface to the model on
// one batch.
func verifyBatch(surfaces []batcher, m Model, probes []uint32) error {
	n := len(probes)
	want := make([]int32, 4*n) // lower bound, search, the equal range's first and last
	for i, p := range probes {
		f, l := m.EqualRange(p)
		want[i], want[n+i], want[2*n+i], want[3*n+i] = int32(f), int32(m.Search(p)), int32(f), int32(l)
	}
	got := make([]int32, 4*n)
	for _, s := range surfaces {
		s.LowerBoundBatch(probes, got[:n])
		s.SearchBatch(probes, got[n:2*n])
		s.EqualRangeBatch(probes, got[2*n:3*n], got[3*n:])
		if i := mismatch(got, want); i < len(got) {
			kernel := []string{"LowerBoundBatch", "SearchBatch", "EqualRangeBatch first", "EqualRangeBatch last"}[i/n]
			return fmt.Errorf("%s(%d)=%d, the model %d", kernel, probes[i%n], got[i], want[i])
		}
	}
	return nil
}

// probeOrders derives one batch per probe order from probes (at least one)
// and checks the engine's sampler picks each: input drops repeated probes,
// so no sampled value repeats and the sample says input order at any
// length (a multi-shard view still sorts it at 128 to 2,048 probes where
// the sorting network runs); keyOrdered interleaves probes with probes[0] up
// to at least 128 probes, so half its sample or more repeats one key and it
// runs in key order on any view.
func probeOrders(probes []uint32) (input, keyOrdered []uint32, err error) {
	seen := make(map[uint32]bool, len(probes))
	for _, p := range probes {
		if !seen[p] {
			seen[p] = true
			input = append(input, p)
		}
	}
	keyOrdered = make([]uint32, max(2*len(probes), 128))
	for i := range keyOrdered {
		keyOrdered[i] = probes[0]
		if i%2 == 1 {
			keyOrdered[i] = probes[i/2%len(probes)]
		}
	}
	if shard.ChooseKeyOrder(input) || !shard.ChooseKeyOrder(keyOrdered) {
		err = fmt.Errorf("sampler: distinct batch key-ordered %v, hot-key batch key-ordered %v",
			shard.ChooseKeyOrder(input), shard.ChooseKeyOrder(keyOrdered))
	}
	return input, keyOrdered, err
}

// opsScript is an input as a crash-matrix workload: play runs its steps on a
// durable store, unchecked, until the crash; verify is the recovery's check.
type opsScript struct {
	data []byte
	r    *shardRun
}

func (s *opsScript) play(fsys *failfs.Mem, pol wal.Policy) (outcome, error) {
	s.r = newShardRun(s.data, ShardHooks{}, nil)
	r := s.r
	r.cfg.Leg = 1 // durable, under pol
	err := r.open(fsys, pol)
	for i := 0; err == nil && len(r.data) > 0; i++ {
		err = r.step(i, false)
	}
	if err == nil {
		if err = r.d.Close(); err == nil {
			r.out.durable = r.out.acked // a clean close syncs the log
		}
	}
	return r.out, err
}

func (s *opsScript) verify(fsys *failfs.Mem, pol wal.Policy, out outcome) error {
	defer s.r.close()
	return s.r.recover(false)
}

// ShardFocus is an input pinned to one claim: the configuration bytes
// RunShardOps decodes, then steps drawn by weight, each batch's size (and
// each crash's distance) drawn below Batch, 32 when 0.
type ShardFocus struct {
	Base   []uint32 // the base, when given; Set and Rows then pick nothing
	Set    int      // 0 draws Rows keys; i > 0 starts at SetNames()[i-1]
	Rows   int      // a multiple of 40 below 5,120, or of 640 below 81,920
	Span   int      // an index into the spans: 6 values, 256, 5,000, any uint32
	Shards int      // 1, 3, 4, 8 or 16
	Fold   int      // FoldDefault…FoldEveryBatch
	FanOut bool     // SetParallel with four workers and tiny spans
	Mix    int      // the probe-order mix
	Leg    int      // 0 in memory; i > 0 durable under Policies()[i-1]

	Steps, Batch                                                               int
	Inserts, Deletes, Drains, Reinserts, Syncs, Compacts, Checkpoints, Crashes int // step weights
}

// Input encodes the focus, its steps drawn from seed.
func (f ShardFocus) Input(seed int64) []byte {
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	fan := byte(f.Mix << 1)
	if f.FanOut {
		fan |= 1
	}
	rows := byte(f.Rows / 40)
	if f.Rows >= 128*40 {
		rows = 128 | byte(f.Rows/640)
	}
	data := []byte{byte(f.Set), rows, byte(f.Span), byte(max(slices.Index(shardCounts, f.Shards), 0)),
		byte(f.Fold), fan, byte(f.Leg), byte(rng.IntN(256))}
	bounds := []int{0, stepInsert, stepDelete, stepDrain, stepReinsert, stepSync, stepCompact, stepCheckpoint, 256}
	weights := []int{f.Inserts, f.Deletes, f.Drains, f.Reinserts, f.Syncs, f.Compacts, f.Checkpoints, f.Crashes}
	for range f.Steps {
		w, kind := rng.IntN(f.Inserts+f.Deletes+f.Drains+f.Reinserts+f.Syncs+f.Compacts+f.Checkpoints+f.Crashes), 0
		for ; w >= weights[kind]; kind++ {
			w -= weights[kind]
		}
		data = append(data, byte(rng.IntN(256)), byte(bounds[kind]+rng.IntN(bounds[kind+1]-bounds[kind])))
		if kind <= 3 || kind == 7 { // a batch's size, a crash's distance
			data = append(data, byte(rng.IntN(cmp.Or(f.Batch, 32))))
		}
	}
	return data
}

// Run runs the focus from seed and fails t unless it reached every path in
// need.
func (f ShardFocus) Run(t testing.TB, seed int64, hooks ShardHooks, need ...string) {
	t.Helper()
	tally := RunShardOps(t, f.Base, f.Input(seed), hooks, false)
	for _, path := range need {
		if tally[path] == 0 {
			t.Errorf("the input reaches no %s: %v", path, tally)
		}
	}
}

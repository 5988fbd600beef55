// Package qcache is an epoch-aware, cost-conscious semantic result cache
// for the mmdb execution engine.  Decision-support traffic repeats itself —
// the same range, IN-list and join sub-results recur across dashboards and
// Zipf-skewed probe streams — and in a main-memory system recomputing them
// burns exactly the cycles the paper's cache-conscious indexes fight to
// save.  The cache closes that loop: RID-slice results are stored under a
// canonical query fingerprint (fingerprint.go) and stamped with the token
// they were computed against — the fold generation and the row high-water
// mark: the result is the answer over rows [0, mark) of that generation —
// so the engine's rebuild counter doubles as the invalidation signal.  No
// reader ever blocks on invalidation: an entry of an older generation is
// simply a token mismatch at its next access.
//
// Concurrency: the cache is lock-striped.  A fingerprint's identity fields
// route it to one of a power-of-two number of stripes, each an independent
// (map, CLOCK ring, byte budget, counter cells) quad behind its own mutex;
// Stats sums the stripe-local counters one stripe at a time, so a
// snapshot never observes half an update.  Payloads are copied on insert, so
// callers may mutate what they pass in, and never written after: an exact or
// containment hit and a join-pair hit hand out the resident slices
// themselves, shared and read-only, and a caller that returns them to its own
// caller copies them first.  A subset replay and an aggregate hit are fresh.
//
// Admission and eviction.  Recurrence comes first: nothing is cached at
// first sight.  Every miss notes its question in the stripe's door (door.go)
// and comes back with a verdict, and only a question that has missed before
// is worth staging and inserting — so a stream of ad-hoc questions costs the
// cache a tag each, not a payload copy, a link and an eviction, and the
// executor builds no cache payload for them either.  The price: a recurring
// question is computed twice before it is served from here.  A result whose
// question passed the door is then admitted on benefit, as before: its
// estimated recompute cost (the caller passes the max of the measured
// elapsed time and the planner's cost-model estimate) must clear
// Options.MinCostNs and its bytes fit the stripe's share of the budget.  A
// negative MinCostNs switches both tests off (admit everything).  Eviction is
// a CLOCK sweep: every entry enters cold (ref 0) and only observed hits warm
// it, so what does get admitted still cannot flush the working set of a hot
// dashboard, and which entries survive is a function of the op stream, not
// of how fast the host computed them.
//
// Beyond exact replay, the cache is an intermediate-reuse engine (the
// recycler) with one contract: a lookup returns a complete answer from one
// entry, or a miss.  The reuse classes that meet it:
//
//   - Containment for ranges (Find).  A cached closed [lo, hi] run
//     stores its sorted raw key values next to the RIDs, so any subrange a
//     reader it serves asks for is answered by two binary searches: a span
//     of the run.  The per-column interval map (range entries sorted by lo)
//     is what the containment walk reads; admission drops the entries a new
//     run fully covers and is at least as current as.
//   - IN-list subset replay (reuse.go).  Index-path IN entries record
//     per-value group offsets, so a query whose value list is a subset of a
//     cached one replays by concatenating the cached groups.  Candidates are
//     found through a per-column inverted index, value → the entries listing
//     it (inindex.go), and a query value nothing lists ends the lookup.
//   - GroupAggregate caching (KindAgg).  Grouped-aggregation results are
//     cached whole and brought current by merging the appended rows' group
//     deltas into the sorted group list.
//
// Answers that would need index probes to finish — a range stitched from
// overlapping runs plus gap probes, an IN-list filled from a near-superset —
// are misses: measured end to end, finishing them cost more than the plain
// index path that now takes over (BENCH_ablation.json).
//
// Appends that the table absorbs into its delta layer (rather than folding
// into a rebuilt run) do not touch the cache at all: an entry stays the
// answer over the rows below its mark.  It serves any reader of its
// generation that covers at least those rows, and whichever entry a lookup
// picks to answer from is first brought current from the rows it is missing
// (patch.go: re-stamped, extended, or dropped when neither is possible).  An
// entry nobody asks for again costs nothing to keep valid.
package qcache

import (
	"slices"
	"sort"
	"sync"

	"cssidx/internal/binsearch"
	"cssidx/internal/sortu32"
)

// Options configures New.
type Options struct {
	// MaxBytes is the byte budget for cached result payloads (RID runs,
	// key runs, join pairs).  0 means DefaultMaxBytes.
	MaxBytes int64
	// MinCostNs is the admission floor: results whose estimated recompute
	// cost is below it are not worth a cache slot.  0 means
	// DefaultMinCostNs; negative admits everything, at first sight.
	MinCostNs int64
	// stripes is the lock-stripe count, a power of two; 0 means
	// numStripes.  Only tests set another, to pin eviction order.
	stripes int
}

// Default budget and admission floor, and the lock-stripe count.
const (
	DefaultMaxBytes  = 64 << 20 // 64 MiB of cached results
	DefaultMinCostNs = 1000     // don't cache queries cheaper than ~1µs
	numStripes       = 16
)

// entry is one cached result.  Entries are immutable after insertion
// except for the CLOCK bookkeeping, which is only touched under the
// stripe lock.
type entry struct {
	key Key
	tok Token

	// Range payload: lo/hi are the covered closed value bounds.  An ordered
	// range holds its rows in (value, RID) order and keys, the raw-value run
	// aligned with rids, for containment slicing and splicing; any other
	// range holds its rows in RID order, for exact reuse only.
	lo, hi  uint32
	ordered bool
	keys    []uint32

	rids []uint32
	// inner is the second column of a join-pair result (rids holds the
	// outer RIDs); nil for every other kind.
	inner []uint32
	// vals is the sorted deduplicated value list of an IN entry and preds
	// the conjunct bounds of a where entry: the payloads a refresh needs to
	// qualify the rows past the entry's mark against it.  nil means the
	// entry cannot be carried and drops when a reader is ahead of it.
	vals  []uint32
	preds []PredBound
	// goff are an index-path IN entry's group offsets: the rows of the
	// i-th listed value (first-occurrence order) are rids[goff[i]:goff[i+1]],
	// and s2g maps each sorted position in vals back to its group index, so
	// a value resolves to its rows by one binary search of vals.  vals and
	// s2g are shared, never mutated — a refresh carries them to the successor
	// entry.  nil goff marks an ungrouped entry (scan/parallel path): exact
	// reuse only, no subset replay, carry-or-drop on refresh.
	goff []uint32
	s2g  []uint32
	// inID is a grouped IN entry's list id in its column's inIndex, whose
	// postings file the entry under each of vals; 0 while not indexed.  A
	// refreshed successor inherits the id instead of re-filing.  seen and cnt
	// are the index's per-lookup coverage tally (inIndex.cover).  All three
	// are touched only under the stripe lock.
	inID      uint32
	seen, cnt uint32
	// aggs is a cached GroupAggregate result sorted by group value, with
	// aggMeasure the measure column it aggregates and aggAll marking a
	// whole-table (nil RID) source — the only kind a refresh can extend.
	aggs       []AggRow
	aggMeasure string
	aggAll     bool
	// plan is the plan a range or IN entry's miss computed (a where entry's
	// are in preds), handed back by an exact hit.
	plan Plan

	cost  int64 // estimated recompute cost, ns
	bytes int64
	ref   int8 // CLOCK lives: hits warm it, the hand cools it
	dead  bool // removed from the map; husk awaiting ring reap
}

// stripe is one independently locked cache partition.
type stripe struct {
	mu sync.Mutex
	m  map[Key]*entry
	// ranges holds, per column, the range entries carrying a key run —
	// ordered by (lo, hi): the interval map containment lookups walk.
	ranges map[colKey][]*entry
	// inIdx holds, per column, the inverted index over the grouped IN
	// entries (value → the entries listing it): a lookup finds its subset
	// replay candidates with one posting lookup per query value instead of
	// visiting every resident entry.  A column's index exists
	// only while it has entries.
	inIdx map[colKey]*inIndex
	ring  []*entry // CLOCK ring (insertion order, holes marked dead)
	hand  int
	bytes int64
	live  int
	// door remembers which questions have missed here before (door.go); nil
	// until the stripe's first miss, and for good under admit-all.
	door *door
	// stats are this stripe's counter cells: plain int64s touched only
	// under mu, summed once per stripe by Stats.
	stats Stats
}

// Cache is a concurrent, cost-aware query-result cache.  A nil *Cache is
// valid and behaves as permanently disabled, so holders need no nil checks.
type Cache struct {
	opts       Options
	stripeMask uint64
	budget     int64 // per-stripe byte budget
	stripes    []stripe
}

// New builds a cache.  See Options for defaults.
func New(opts Options) *Cache {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.MinCostNs == 0 {
		opts.MinCostNs = DefaultMinCostNs
	}
	n := opts.stripes
	if n == 0 {
		n = numStripes
	}
	c := &Cache{
		opts:       opts,
		stripeMask: uint64(n - 1),
		budget:     opts.MaxBytes / int64(n),
		stripes:    make([]stripe, n),
	}
	for i := range c.stripes {
		c.stripes[i].m = make(map[Key]*entry)
		c.stripes[i].ranges = make(map[colKey][]*entry)
		c.stripes[i].inIdx = make(map[colKey]*inIndex)
	}
	return c
}

// Enabled reports whether operations can have any effect: false only for
// the nil cache, the one "off" state.
func (c *Cache) Enabled() bool { return c != nil }

// MaxEntryBytes returns the largest payload admission can accept (half a
// stripe's budget share; 0 for a disabled cache), so callers producing
// large results can skip staging work that would only be rejected.
func (c *Cache) MaxEntryBytes() int64 {
	if !c.Enabled() {
		return 0
	}
	return c.budget / 2
}

// Every miss comes with the admission verdict (door.go): admit says whether
// the caller should stage and insert the result it is about to compute.  It
// is false on a hit, on a first-sight miss, and always on a disabled cache —
// so a caller that stages only on admit needs no other test.

// LookupPair returns a cached join-pair result (outer RIDs, inner RIDs):
// the entry's own payload, shared and read-only, so a count-only join's hit
// is O(1) and an emitting join's copies nothing.
func (c *Cache) LookupPair(k Key, tok Token) (outer, inner []uint32, ok, admit bool) {
	outer, inner, _, ok, admit = c.get(k, Reader{Tok: tok})
	return outer, inner, ok, admit
}

// olderOrEqual reports whether token a is not newer than b.  Both token
// components are monotonic counters (generations only ever increment, rows
// only ever grow), so a ≤ b component-wise means a's state is provably no
// fresher than b's.
func olderOrEqual(a, b Token) bool { return a.Gen <= b.Gen && a.Epoch <= b.Epoch }

// lookupLocked is the shared exact-match step: it returns the entry brought
// current for the reader (and the tail rows that took), or nil after reaping
// an entry that is provably stale or cannot be carried (counted as an
// invalidation).  An entry with a NEWER token is left alone:
// a straggler reader still holding a pre-swap snapshot must neither see rows
// beyond it nor evict the current epoch's entries out from under the readers
// they serve.  The caller holds the stripe lock and settles the hit/miss
// accounting for the outcome it commits to, and takes the payload slices it
// wants before unlocking: their contents are immutable after insert, so they
// may be read after, but a removed entry lets go of them.
func (st *stripe) lookupLocked(k Key, rd Reader, c *Cache) (*entry, int) {
	e, ok := st.m[k]
	if ok && e.tok.serves(rd.Tok) {
		return st.current(e, rd, c)
	}
	if ok && olderOrEqual(e.tok, rd.Tok) {
		// Same question, older generation: a fold moved on under this entry.
		st.remove(e, c)
		st.stats.Invalidations++
	}
	return nil, Current
}

// get is the exact-match path with hit/miss accounting settled under the
// stripe lock; it returns the entry's RID payloads uncopied.
func (c *Cache) get(k Key, rd Reader) (rids, inner []uint32, tail int, ok, admit bool) {
	if !c.Enabled() {
		return nil, nil, Current, false, false
	}
	st := c.stripeFor(k)
	st.mu.Lock()
	e, tail := st.lookupLocked(k, rd, c)
	if ok = e != nil; ok {
		st.stats.Hits++
		rids, inner = e.rids, e.inner
	} else {
		admit = st.miss(k, c)
	}
	st.mu.Unlock()
	return rids, inner, tail, ok, admit
}

// HitKind classifies how Find answered, for tracing and EXPLAIN-style output.
type HitKind uint8

const (
	HitMiss      HitKind = iota // not answered from cache
	HitExact                    // same fingerprint, a mark the reader covers
	HitContained                // sliced from a covering cached run
	HitSubset                   // replayed from the groups of a cached IN-list naming every value
)

// String names the hit kind the way EXPLAIN output spells it.
func (h HitKind) String() string {
	switch h {
	case HitExact:
		return "hit"
	case HitContained:
		return "contained"
	case HitSubset:
		return "subset-replay"
	default:
		return "miss"
	}
}

// Plan is the plan a range, IN or conjunction question's miss computed,
// stored with the entry it inserted (a conjunction's per conjunct, in its
// PredBounds) and handed back by an exact hit, so the caller replays it
// instead of planning again.  Frac is the estimated selectivity, a share of
// the generation's frozen domain: one value serves every reader the entry
// serves, each scaling it by its own rows.
type Plan struct {
	UseIndex bool
	Frac     float64
	Why      string
}

// Answer is what Find found: the RIDs, how they were found, and the tail
// rows merged bringing the answering entry current (Current when none were
// missing).  An exact or containment hit's RIDs are the resident payload (or
// a span of it), shared and read-only; a subset replay's are fresh.  An exact
// hit carries the entry's Plan, and a conjunction's bounds with their plans
// in Preds (read-only); a subset replay carries its group offsets: the rows
// of distinct[i] are RIDs[GOff[i]:GOff[i+1]].
type Answer struct {
	RIDs  []uint32
	Kind  HitKind
	Tail  int
	Plan  Plan
	Preds []PredBound
	GOff  []uint32
}

// Find answers a range, IN or conjunction fingerprint under one lock
// acquisition: by exact match; for a range (KindRange), else by containment —
// any cached run on the same column that serves the reader and whose closed
// value bounds cover [k.Lo, k.Hi] answers, once brought current, with the
// span two binary searches find; for an IN-list (KindIn) with distinct
// given, else by subset replay (reuse.go).  distinct is the deduplicated
// query values in first-occurrence order; nil asks an IN key for the exact
// match only, since a scan-planned query must not inherit a replay's probe
// order.
//
// A hit is counted here, a miss is not: the caller settles it with Miss once
// it knows it will compute, so a question its plan shows empty leaves no
// trace in the counters or the door.
func (c *Cache) Find(k Key, rd Reader, distinct []uint32) Answer {
	a := Answer{Tail: Current}
	if !c.Enabled() {
		return a
	}
	var rids, vals, s2g, goff []uint32
	st := c.stripeFor(k)
	st.mu.Lock()
	e, tail := st.lookupLocked(k, rd, c)
	switch {
	case e != nil:
		a.Kind, a.RIDs, a.Plan, a.Preds = HitExact, e.rids, e.plan, e.preds
	case k.Kind == KindRange && k.Lo <= k.Hi:
		// (An inverted key is an empty range; refusing containment keeps the
		// slice arithmetic below in bounds.)
		if e, tail = st.contain(k, rd, c); e != nil {
			first, last := e.span(k.Lo, k.Hi)
			a.Kind, a.RIDs = HitContained, e.rids[first:last]
			st.stats.ContainedHits++
		}
	case k.Kind == KindIn && len(distinct) > 0:
		if e, tail = st.subset(k, rd, distinct, c); e != nil {
			a.Kind, rids, vals, s2g, goff = HitSubset, e.rids, e.vals, e.s2g, e.goff
			st.stats.SubsetHits++
		}
	}
	if a.Kind != HitMiss {
		a.Tail = tail
		st.stats.Hits++
	}
	st.mu.Unlock()
	if a.Kind == HitSubset {
		a.RIDs, a.GOff = replay(distinct, vals, s2g, goff, rids)
	}
	return a
}

// Miss settles a Find that found nothing for a question the caller is about
// to compute: it counts the miss and returns the admission verdict.
func (c *Cache) Miss(k Key) (admit bool) {
	if !c.Enabled() {
		return false
	}
	st := c.stripeFor(k)
	st.mu.Lock()
	admit = st.miss(k, c)
	st.mu.Unlock()
	return admit
}

// contain returns the range entry that answers k by containment, brought
// current for the reader, and the tail rows that took; nil when none does.
// Caller holds the stripe lock.
func (st *stripe) contain(k Key, rd Reader, c *Cache) (*entry, int) {
	for _, e := range st.ranges[k.column()] {
		if e.lo > k.Lo {
			break // interval map is ordered by lo: nothing further can cover
		}
		if e.tok.serves(rd.Tok) && e.hi >= k.Hi {
			// The walk is over either way: bringing e current relinks the
			// list it runs on.
			return st.current(e, rd, c)
		}
	}
	return nil, Current
}

// span returns the half-open positions of a key run's pairs with
// lo ≤ key ≤ hi.
func (e *entry) span(lo, hi uint32) (first, last int) {
	return binsearch.LowerBound(e.keys, lo), binsearch.UpperBound(e.keys, hi)
}

// The Insert family is the second half of a miss whose lookup said admit;
// callers skip it (and the staging it needs) otherwise.  Every payload slice
// is copied, except InsertPair's; admission may reject (cost floor,
// oversized, or unevictable pressure).
//
// InsertRange caches an index-path range result in key order together
// with its sorted raw key run (keys[i] is the raw column value at rids[i])
// and the plan that computed it, so any subrange is answered by slicing it
// (containment reuse).  k.Lo/k.Hi must be the closed raw value bounds the
// run covers.
func (c *Cache) InsertRange(k Key, tok Token, keys, rids []uint32, costNs int64, plan Plan) {
	c.insert(&entry{key: k, tok: tok, lo: k.Lo, hi: k.Hi, ordered: true, keys: keys, rids: rids, cost: costNs, plan: plan}, false)
}

// InsertRangeRows caches a range result in row order (a scan's) and the
// plan that computed it: exact reuse only.
func (c *Cache) InsertRangeRows(k Key, tok Token, rids []uint32, costNs int64, plan Plan) {
	c.insert(&entry{key: k, tok: tok, lo: k.Lo, hi: k.Hi, rids: rids, cost: costNs, plan: plan}, false)
}

// InsertIn caches an IN-list result and the plan that computed it.  distinct
// is the deduplicated value list in first-occurrence order (the order the
// result groups follow); the cache keeps a sorted copy so a refresh can
// qualify the rows past the entry's mark against it.  A non-nil goff records
// the group offsets of an index-path result (distinct[i]'s rows are
// rids[goff[i]:goff[i+1]]), enabling subset replay and per-group splicing;
// nil goff degrades to exact reuse with carry-or-drop refreshes (scan-path
// results are in row order and cannot be partitioned per value).
func (c *Cache) InsertIn(k Key, tok Token, distinct, goff, rids []uint32, costNs int64, plan Plan) {
	if !c.Enabled() {
		return
	}
	e := &entry{key: k, tok: tok, rids: rids, cost: costNs, plan: plan}
	if len(distinct) == 0 {
		c.insert(e, false)
		return
	}
	e.vals = append([]uint32(nil), distinct...)
	if goff == nil {
		slices.Sort(e.vals)
		c.insert(e, false)
		return
	}
	if len(goff) != len(distinct)+1 {
		c.countReject(k)
		return // malformed group offsets: refuse rather than mis-slice
	}
	// Sorting the values in tandem with their first-occurrence positions
	// leaves s2g mapping each sorted position back to its group.
	e.goff = goff
	e.s2g = make([]uint32, len(distinct))
	for g := range e.s2g {
		e.s2g[g] = uint32(g)
	}
	sortu32.SortPairs(e.vals, e.s2g)
	for i := 1; i < len(e.vals); i++ {
		if e.vals[i] == e.vals[i-1] {
			c.countReject(k)
			return // not deduplicated: the index would file the entry twice under one value
		}
	}
	c.insert(e, false)
}

// InsertAgg caches a grouped-aggregation result (rows sorted by group
// value, as GroupAggregate produces).  measureCol names the aggregated
// column and allRows marks a whole-table source — the only kind a refresh
// can extend with appended rows; explicit-RID sources are re-stamped
// unchanged (appends never mutate existing rows).
func (c *Cache) InsertAgg(k Key, tok Token, measureCol string, allRows bool, rows []AggRow, costNs int64) {
	c.insert(&entry{key: k, tok: tok, aggs: rows, aggMeasure: measureCol, aggAll: allRows, cost: costNs}, false)
}

// InsertWhere caches a conjunction result together with its conjunct
// bounds (raw closed bounds per column, each with its plan), which lets a
// refresh qualify appended rows against the whole predicate and extend the
// entry.  A nil preds leaves exact reuse only.
func (c *Cache) InsertWhere(k Key, tok Token, preds []PredBound, rids []uint32, costNs int64) {
	c.insert(&entry{key: k, tok: tok, preds: preds, rids: rids, cost: costNs}, false)
}

// InsertPair caches a join-pair result (outer[i] joined inner[i]).  It takes
// ownership of outer and inner: an admitted entry holds them as they are, so
// the caller stages the pairs once and must not write the slices again.
func (c *Cache) InsertPair(k Key, tok Token, outer, inner []uint32, costNs int64) {
	c.insert(&entry{key: k, tok: tok, rids: outer, inner: inner, cost: costNs}, true)
}

// entryOverheadBytes charges each entry for its struct, map slot and ring
// slot, so byte accounting stays honest for tiny results.
const entryOverheadBytes = 160

// EntryBytesForPairs returns the bytes a join-pair result of count pairs
// would be charged, so producers can pair it with MaxEntryBytes and skip
// staging results admission would reject.
func EntryBytesForPairs(count int) int64 { return entryOverheadBytes + 8*int64(count) }

// FitsPairs reports whether a join-pair result of count pairs is within
// MaxEntryBytes.  When it is not, it counts the rejection admission would
// make, so a caller that skips staging the result still settles the miss
// its lookup counted.
func (c *Cache) FitsPairs(k Key, count int) bool {
	if EntryBytesForPairs(count) <= c.MaxEntryBytes() {
		return true
	}
	if c.Enabled() {
		c.countReject(k)
	}
	return false
}

// payloadBytes charges an entry for its payload slices plus the fixed
// overhead; shared between insert admission and a refresh's re-accounting.
func payloadBytes(e *entry) int64 {
	b := entryOverheadBytes + 4*int64(len(e.rids)+len(e.keys)+len(e.inner)+len(e.vals)+len(e.goff)+len(e.s2g))
	if e.goff != nil {
		b += 16 * int64(len(e.vals)) // ~one inIndex posting (map slot or chain node) per listed value
	}
	b += 32*int64(len(e.aggs)) + int64(len(e.aggMeasure)) + int64(len(e.plan.Why))
	for _, p := range e.preds {
		b += 48 + int64(len(p.Col)+len(p.Plan.Why))
	}
	return b
}

// insert admits e.  owned says the payload slices are the cache's already
// (InsertPair's); otherwise they are the caller's and are copied.
func (c *Cache) insert(e *entry, owned bool) {
	if !c.Enabled() {
		return
	}
	if c.opts.MinCostNs >= 0 && e.cost < c.opts.MinCostNs {
		c.countReject(e.key)
		return
	}
	e.bytes = payloadBytes(e)
	if e.bytes > c.budget/2 {
		// One result must never monopolise a stripe.
		c.countReject(e.key)
		return
	}
	// Copy the payload before taking the lock.  vals and s2g are not the
	// caller's: InsertIn built them for this entry.
	if !owned {
		e.rids = append([]uint32(nil), e.rids...)
		e.keys = append([]uint32(nil), e.keys...)
		e.inner = append([]uint32(nil), e.inner...)
		e.preds = append([]PredBound(nil), e.preds...)
		e.goff = append([]uint32(nil), e.goff...)
		e.aggs = append([]AggRow(nil), e.aggs...)
	}

	st := c.stripeFor(e.key)
	st.mu.Lock()
	if old, ok := st.m[e.key]; ok {
		if old.tok != e.tok && !olderOrEqual(old.tok, e.tok) {
			// The resident entry is fresher: a straggler's late result
			// must not clobber the current epoch's.
			st.stats.Rejects++
			st.mu.Unlock()
			return
		}
		st.remove(old, c) // replace: same question, same-or-older state
	}
	if !st.evictFor(e.bytes, c) {
		st.stats.Rejects++
		st.mu.Unlock()
		return
	}
	st.admit(e, c)
	st.stats.Inserts++
	st.mu.Unlock()
}

// admit makes an entry resident — a new one, or a refreshed successor: map,
// reuse structures, ring and the residency accounting.  The caller holds the
// stripe lock, has removed any entry under the same key and has made room.
func (st *stripe) admit(e *entry, c *Cache) {
	st.m[e.key] = e
	st.link(e, c)
	st.ring = append(st.ring, e)
	st.bytes += e.bytes
	st.live++
	st.stats.Entries++
	st.stats.Bytes += e.bytes
	// Bound the husk build-up when invalidation outpaces eviction.
	if len(st.ring) > 4*st.live+64 {
		st.compactRing()
	}
}

// countReject counts one admission rejection on the key's stripe — the
// pre-lock reject paths (cost floor, oversize, malformed offsets) route
// here so every counter update stays under a stripe lock.
func (c *Cache) countReject(k Key) {
	st := c.stripeFor(k)
	st.mu.Lock()
	st.stats.Rejects++
	st.mu.Unlock()
}

// DropTable removes every entry of one table — the eager half of
// generation invalidation, called by AppendRows after it publishes a fold's
// rebuilt state and by the index builders (a new access path changes the
// order results come back in).  Readers of other stripes are untouched; readers of the
// same stripe wait only for the sweep of that stripe.  Entries inserted
// by in-flight readers still holding the old state are caught lazily by
// their token at next access.
func (c *Cache) DropTable(table string) {
	if !c.Enabled() {
		return
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		for k, e := range st.m {
			if k.Table == table {
				st.remove(e, c)
				st.stats.Invalidations++
			}
		}
		st.mu.Unlock()
	}
}

// link adds an entry to the per-column reuse structures: range runs splice
// into the lo-ordered interval map, grouped IN entries are filed in the
// column's inverted index.  A new range run also supersedes the entries it
// fully covers and is at least as current as — containment answers every
// query they could, so keeping them only bloats the interval walk.
// Caller holds the stripe lock.
func (st *stripe) link(e *entry, c *Cache) {
	if e.ordered {
		ck := e.key.column()
		list := st.ranges[ck]
		for i := 0; i < len(list); {
			x := list[i]
			if x != e && x.tok.serves(e.tok) && x.lo >= e.lo && x.hi <= e.hi {
				st.remove(x, c) // splices list in place
				list = st.ranges[ck]
				continue
			}
			i++
		}
		i := sort.Search(len(list), func(j int) bool {
			return list[j].lo > e.lo || (list[j].lo == e.lo && list[j].hi >= e.hi)
		})
		list = append(list, nil)
		copy(list[i+1:], list[i:])
		list[i] = e
		st.ranges[ck] = list
	}
	if e.goff != nil && e.inID == 0 { // a refreshed successor arrives already indexed
		ck := e.key.column()
		ix := st.inIdx[ck]
		if ix == nil {
			ix = newInIndex()
			st.inIdx[ck] = ix
		}
		ix.add(e)
	}
}

// unlinkIn removes a grouped IN entry's postings from its column's index,
// and the index with its last entry.  It is a no-op for an entry that is
// not indexed or whose list id a refresh has handed to a successor.
// Caller holds the stripe lock.
func (st *stripe) unlinkIn(e *entry) {
	if e.inID == 0 {
		return
	}
	ck := e.key.column()
	ix := st.inIdx[ck]
	if ix.owners[e.inID] != e {
		return
	}
	ix.drop(e)
	if ix.live == 0 {
		delete(st.inIdx, ck)
	}
}

// remove unlinks an entry from the map and reuse lists, marks its ring
// slot dead, and adjusts the residency accounting.  The interval map
// splice preserves order.  Caller holds the stripe lock.
func (st *stripe) remove(e *entry, c *Cache) {
	if e.dead {
		return
	}
	delete(st.m, e.key)
	if e.ordered {
		ck := e.key.column()
		list := st.ranges[ck]
		// The list is ordered by (lo, hi): binary-search to the first run
		// with e's bounds and compare pointers among those neighbours only.
		i := sort.Search(len(list), func(j int) bool {
			return list[j].lo > e.lo || (list[j].lo == e.lo && list[j].hi >= e.hi)
		})
		for ; i < len(list) && list[i].lo == e.lo && list[i].hi == e.hi; i++ {
			if list[i] == e {
				copy(list[i:], list[i+1:])
				list[len(list)-1] = nil
				st.ranges[ck] = list[:len(list)-1]
				break
			}
		}
		if len(st.ranges[ck]) == 0 {
			delete(st.ranges, ck)
		}
	}
	st.unlinkIn(e)
	e.dead = true
	// The husk stays on the ring until the hand or a compaction reaches it,
	// but it pins nothing: whoever is still reading the payload took the
	// slices under this lock.
	e.keys, e.rids, e.inner, e.vals, e.s2g, e.goff, e.aggs, e.preds = nil, nil, nil, nil, nil, nil, nil, nil
	e.plan = Plan{}
	st.bytes -= e.bytes
	st.live--
	st.stats.Entries--
	st.stats.Bytes -= e.bytes
}

// compactRing filters dead husks out of the CLOCK ring.
func (st *stripe) compactRing() {
	live := st.ring[:0]
	for _, e := range st.ring {
		if !e.dead {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(st.ring); i++ {
		st.ring[i] = nil
	}
	st.ring = live
	st.hand = 0
}

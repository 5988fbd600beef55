// Package mmdb is a miniature main-memory column store providing the §2
// decision-support context the paper's indexes live in: columns of raw
// values, record-identifier lists sorted by an attribute, selections and
// range queries through a pluggable index, indexed nested-loop joins, and
// the OLAP batch-update cycle where indexes are replaced wholesale after a
// batch of updates rather than maintained incrementally (§2.3).
//
// A Table stores columns of uint32 values in row order.  §2.1 stores each
// distinct value once in a sorted domain and §2.2 searches it to turn values
// into IDs; that pays when values are wider than their IDs, and here both are
// four bytes, so an index is built over the values themselves and a probe
// descends one tree, not a domain and then the index.  The domain survives
// where it earns its keep: a column that is grouped by builds it (with its
// base rows' IDs) on its first GroupAggregate, so grouping accumulates into
// one array slot per distinct value.  A column holds at most one index, a
// SortedIndex: a RID list sorted by the column ("a list of record
// identifiers sorted by some columns provides ordered access to the base
// relation", §2.2) plus the companion sorted value array, searched by a
// search structure — any cssidx method (BuildIndex) or a sharded index
// (BuildShardedIndex).  The structure is the method; there is one index
// type, one read path and one publication: every index serves frozen
// epochs, so its own SelectEqual and SelectRange run while AppendRows
// absorbs and folds, and a table query takes the same path — cache lookup
// first, then plan, then the index or a scan — whatever structure backs the
// column.  Only EXPLAIN and SpaceBytes read which.
//
// Each question has one entry point.  The table is the query surface:
// Table.SelectRange, SelectIn and SelectWhere, GroupAggregate and JoinWith,
// each with a *Ctx form that takes a context (governance) and a trace
// (EXPLAIN ANALYZE).  An index answers only its own point and range probes,
// ungoverned.  A result cache comes from Table.EnableCache, or from NewDB
// for tables sharing one; an admission controller from
// Table.AttachGovernor(governor.NewAdmission(…)); counters from
// Cache().Stats().
package mmdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"cssidx"
	"cssidx/internal/domain"
	"cssidx/internal/governor"
	"cssidx/internal/parallel"
	"cssidx/internal/qcache"
	"cssidx/internal/telemetry"
)

// ErrNoOrderedAccess is returned for range queries on indexes whose method
// cannot provide ordered access (hashing, §3.5).
var ErrNoOrderedAccess = errors.New("mmdb: index method does not support ordered access")

// Table is a named collection of equal-length uint32 columns.
type Table struct {
	name    string
	rows    int
	cols    map[string]*Column
	order   []string
	indexes map[string]*SortedIndex // one index per column

	// baseRows is the prefix of rows covered by the frozen state: index
	// base arrays, column bounds and group-by domains are built over rows
	// [0, baseRows) at the last fold; rows beyond live in the delta layer
	// (delta.go) until the next fold.
	baseRows int
	// fold is the fold schedule: the zero value (foldDenominator) outside
	// this package's tests.
	fold foldPolicy
	// lag is the table's share of the mmdb_delta_rows gauge: the rows
	// absorbed since the last fold (or Close).
	lag int64

	// gen is the table generation: 1 after creation, +1 per *fold* (new
	// index base arrays over every row).  Together with rows it forms
	// the validity token of every cached result computed against the
	// table's in-place state (cache.go).
	gen atomic.Uint64
	// stateVer is 1 after creation, +1 per AppendRows batch of either
	// kind — the single-counter version join caching stamps outer state
	// with.
	stateVer atomic.Uint64
	// cache is the attached result cache (nil = caching off); behind an
	// atomic pointer so concurrent index readers see attachment safely.
	cache atomic.Pointer[qcache.Cache]
	// gov is the attached admission controller (nil = admission off);
	// same atomic-pointer discipline as cache (govern.go).
	gov atomic.Pointer[governor.Admission]
}

// Column is one attribute: its values in row order, the bounds of its base
// rows' values, and — once it has been grouped by — its group-by domain.
type Column struct {
	name string
	raw  []uint32 // source values, row order
	// min and max bound the values of the base rows [0, baseRows) — what
	// the planner prices a column no ordered index serves by — and are kept
	// at AddColumn and at every fold.  An empty column has min > max.
	min, max uint32
	// grp is nil until the column's first GroupAggregate, which builds it
	// and publishes it by compare-and-swap (concurrent first calls build once
	// each and agree on one memo); kept current by every fold from then on.
	grp atomic.Pointer[groups]
}

// groups is a grouped column's memo: the domain of its base rows (§2.1: each
// distinct value once, sorted, its rank the ID) and the base rows' IDs in row
// order — the accumulator slot each row adds into.
type groups struct {
	dom *domain.IntDomain
	ids []uint32
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	t := &Table{
		name:    name,
		cols:    map[string]*Column{},
		indexes: map[string]*SortedIndex{},
	}
	t.gen.Store(1)
	t.stateVer.Store(1)
	return t
}

// AddColumn adds a column with one value per row.  The first column fixes
// the row count; later columns must match it.
func (t *Table) AddColumn(name string, values []uint32) error {
	if _, dup := t.cols[name]; dup {
		return fmt.Errorf("mmdb: table %s already has column %s", t.name, name)
	}
	if len(t.cols) > 0 && len(values) != t.rows {
		return fmt.Errorf("mmdb: column %s has %d rows, table %s has %d", name, len(values), t.name, t.rows)
	}
	if t.rows != t.baseRows {
		return fmt.Errorf("mmdb: table %s has unfolded appended rows; add columns before appending", t.name)
	}
	c := &Column{name: name, raw: append([]uint32(nil), values...), min: math.MaxUint32}
	c.widen(values)
	t.cols[name] = c
	t.order = append(t.order, name)
	t.rows = len(values)
	t.baseRows = t.rows
	return nil
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column names in definition order.
func (t *Table) Columns() []string { return append([]string(nil), t.order...) }

// Column returns a column by name.
func (t *Table) Column(name string) (*Column, bool) {
	c, ok := t.cols[name]
	return c, ok
}

// Value returns the raw value at (row, column).
func (c *Column) Value(row int) uint32 { return c.raw[row] }

// Len returns the number of rows in the column.
func (c *Column) Len() int { return len(c.raw) }

// widen grows the column's bounds over vals.
func (c *Column) widen(vals []uint32) {
	for _, v := range vals {
		c.min, c.max = min(c.min, v), max(c.max, v)
	}
}

// spread estimates the share of the base rows holding a value in [lo, hi]
// from the column's bounds alone: the share of [min, max] the range covers,
// uniform within it and zero outside — O(1), and no sorted structure needed.
func (c *Column) spread(lo, hi uint32) float64 {
	lo, hi = max(lo, c.min), min(hi, c.max)
	if lo > hi {
		return 0
	}
	return (float64(hi-lo) + 1) / (float64(c.max-c.min) + 1)
}

// groupsOf returns the column's group-by memo over the base rows [0, base),
// building it on first use from one (value, RID) order of the base rows —
// seg's keys and RIDs when the column is indexed (seg non-nil), else one pair
// sort — that domain.Rank walks with no tree probe per row, each chunk a tick
// of cp, so a first group-by observes its deadline and cancellation while it
// builds.  Each array is charged to ctl's budget before it is allocated: the
// sort's 16 bytes a row (pairs and ping-pong buffers), the IDs' 4, the
// domain's 4 a distinct value.  Concurrent first calls each build, the first
// to publish wins; an abort publishes nothing.
func (c *Column) groupsOf(base int, seg *segment, ctl *governor.Ctl, cp *governor.Checkpoint) (g *groups, built bool, err error) {
	if g = c.grp.Load(); g != nil {
		return g, false, nil
	}
	var keys, rids []uint32
	if seg != nil {
		keys, rids = seg.keys, seg.rids
	} else if err := ctl.Charge(16 * int64(base)); err != nil {
		return nil, false, err
	} else {
		keys, rids = sortedPairsOf(c.raw[:base], 0)
	}
	if err := ctl.Charge(4 * int64(base)); err != nil {
		return nil, false, err
	}
	ids := make([]uint32, base)
	distinct, err := domain.Rank(keys, rids, ids, cp.TickN)
	if err != nil {
		return nil, false, err
	}
	if err := ctl.Charge(4 * int64(distinct)); err != nil {
		return nil, false, err
	}
	g = &groups{dom: domain.NewInt(keys), ids: ids}
	if !c.grp.CompareAndSwap(nil, g) {
		g = c.grp.Load()
	}
	return g, true, nil
}

// --- sorted RID lists with a search index ----------------------------------

// SortedIndex is a RID list sorted by one column, with a companion sorted
// key array of the column's values searched by a search structure: one
// cssidx method (BuildIndex) or a sharded index (BuildShardedIndex) — the
// structure is the method, the index type is one.  Queries arrive as raw
// values and probe the keys directly.  §2.2 translates values to domain IDs
// first ("transforming domain values to domain IDs requires searching on the
// domain"), which pays when values are wider than IDs; a uint32 value is as
// narrow as its ID, so that search would be a second tree descent per probe
// buying nothing.
//
// Its read state is one frozen epoch behind an atomic pointer: a segment
// (segment.go) plus its epoch numbers.  A build or fold publishes an epoch
// over fresh base arrays, an absorbed append one that shares the previous
// epoch's base and structure with one more delta run, and nothing reachable
// from a published epoch is written again — so the index's own methods may
// run from any goroutine, concurrently with AppendRows and Compact.  Each
// method loads the current epoch once and answers from it; with a result
// cache attached it caches per epoch, every entry stamped with the build or
// fold and the rows it was computed over, so a query racing AppendRows either
// hits an entry no newer than its own epoch — brought current from its own
// frozen runs — or computes against its own epoch.
type SortedIndex struct {
	tbl  *Table
	col  *Column
	kind cssidx.Kind
	// structure builds the search structure over a new base's keys into
	// its segment (ord or eq, bytes, and shards for a sharded index): the
	// one thing the two constructors choose.
	structure func(s *segment)
	cur       atomic.Pointer[epoch]
}

// epoch is one published state of an index: a fresh base (build or fold), or
// an absorbed append batch sharing the previous epoch's base arrays and search
// structure with one more delta run stacked on top.
type epoch struct {
	segment
	seq uint64       // 1 = the build, +1 per published state
	uid uint64       // globally-unique epoch id: the version a join's pair set is stamped with
	tok qcache.Token // cache token: Gen the uid of the last build or fold, Epoch the rows covered
}

// reader is the epoch's cache reader: entries are brought current from its
// own frozen runs, never from the live table.
func (s *epoch) reader() qcache.Reader {
	return qcache.Reader{Tok: s.tok, Runs: &s.segment}
}

// epochUID issues globally-unique ids for published epochs.  Epoch() counts
// per index and restarts at 1 when a build replaces an index, so the *cache*
// generation must come from here: a straggler reader's late insert stamped
// with a replaced index's epoch can then never collide with a fresh index's
// tokens.
var epochUID atomic.Uint64

// BuildIndex builds an index on the column searched by the given method, and
// registers it, replacing the column's earlier index.
func (t *Table) BuildIndex(colName string, kind cssidx.Kind, opts cssidx.Options) (*SortedIndex, error) {
	return t.buildIndex(colName, kind, func(s *segment) {
		idx := cssidx.New(kind, s.keys, opts)
		s.eq, s.bytes = cssidx.AsBatch(idx), idx.SpaceBytes()
		if ord, ok := idx.(cssidx.OrderedIndex); ok {
			s.ord = cssidx.AsBatchOrdered(ord)
		}
	})
}

// buildIndex builds an index on the column over the search structure
// structure constructs, registers it in place of the column's earlier index
// and drops the table's cached entries.
func (t *Table) buildIndex(colName string, kind cssidx.Kind, structure func(*segment)) (*SortedIndex, error) {
	col, ok := t.cols[colName]
	if !ok {
		return nil, fmt.Errorf("mmdb: no column %s in table %s", colName, t.name)
	}
	ix := &SortedIndex{tbl: t, col: col, kind: kind, structure: structure}
	// The pairs are sorted by value with a stable radix sort
	// (internal/sortu32), the cache-conscious choice for the 4-byte keys of
	// Table 1.
	ix.install(sortedPairsOf(col.raw[:t.baseRows], 0))
	// The base structure covers the rows up to the last fold (baseRows);
	// rows appended since live only in the columns, so hand them to
	// the delta layer as one run — exactly the state absorbRows would
	// have left had the index existed when they arrived.
	if t.rows > t.baseRows {
		ix.absorb(col.raw[t.baseRows:], uint32(t.baseRows))
	}
	t.indexes[colName] = ix
	// Scan- and index-path results share fingerprints but not row order:
	// entries computed without the index must not answer queries planned
	// with it.
	t.Cache().DropTable(t.name)
	return ix, nil
}

// Index returns the registered index on a column, if any.
func (t *Table) Index(colName string) (*SortedIndex, bool) {
	ix, ok := t.indexes[colName]
	return ix, ok
}

// seg returns the segment a table-level query on col reads — its index's
// current epoch — or nil on an unindexed column.
func (t *Table) seg(col string) *segment {
	if ix, ok := t.indexes[col]; ok {
		return &ix.cur.Load().segment
	}
	return nil
}

// install publishes the next epoch over (keys, rids) — the column's base
// values in sorted order with their RIDs, fresh arrays from the build's sort
// or a fold's merge — with the search structure constructed over them and no
// delta runs.
// Readers still holding the previous epoch keep valid results.
func (ix *SortedIndex) install(keys, rids []uint32) {
	next := &epoch{
		segment: segment{keys: keys, rids: rids, tbl: ix.tbl, col: ix.col.name},
		seq:     1,
		uid:     epochUID.Add(1),
	}
	ix.structure(&next.segment)
	next.tok = qcache.Token{Gen: next.uid, Epoch: uint64(len(rids))}
	if old := ix.cur.Load(); old != nil {
		next.seq = old.seq + 1
	}
	ix.cur.Store(next)
}

// absorb publishes the next epoch with one appended batch landed in the
// delta layer — a sorted run over the batch's (value, RID) pairs pushed onto
// the geometric tier (pushRun, which returns a fresh slice) — sharing the
// previous epoch's base arrays and search structure.
func (ix *SortedIndex) absorb(vals []uint32, startRID uint32) {
	next := *ix.cur.Load()
	next.seq++
	next.uid = epochUID.Add(1)
	next.tok.Epoch += uint64(len(vals))
	next.runs = pushRun(next.runs, vals, startRID)
	ix.cur.Store(&next)
}

// Kind returns the index method (a sharded index's shards are level
// CSS-trees).
func (ix *SortedIndex) Kind() cssidx.Kind { return ix.kind }

// Epoch returns the current epoch: 1 = the build, +1 per published state —
// a fold or an absorbed batch.
func (ix *SortedIndex) Epoch() uint64 { return ix.cur.Load().seq }

// SpaceBytes returns the current epoch's footprint: RID list, key array,
// search structure (a sharded index counts one extra key copy across its
// shards) and outstanding delta runs.
func (ix *SortedIndex) SpaceBytes() int {
	s := ix.cur.Load()
	return s.spaceBytes() + s.bytes
}

// RIDs returns the current epoch's RID list in column-value order (ordered
// access, §2.2); rows absorbed since the last fold are in its delta runs.
// The list is the published array itself, shared and read-only.
func (ix *SortedIndex) RIDs() []uint32 { return ix.cur.Load().rids }

// Close has nothing to release: every search structure, sharded ones
// included, is frozen and runs no background work.  Queries remain valid.
func (ix *SortedIndex) Close() {}

// SelectEqual returns the RIDs of rows whose column equals value, in RID
// order of the sorted list (stable: insertion order within duplicates).
// Delta rows follow base rows — still ascending-RID, since appended RIDs
// exceed all resident ones.
func (ix *SortedIndex) SelectEqual(value uint32) []uint32 { return ix.cur.Load().selectEqual(value) }

// dedupeValues keeps the first occurrence of each value, preserving order —
// the IN fingerprint and the result's RID grouping both follow it.  Every
// IN-list passes through here before its cache lookup, so the seen-set is one
// open-addressed table of value+1 (0 = empty slot; MaxUint32, whose +1 wraps
// to 0, is tracked apart) at most half full, living in a stack array for
// lists of up to dedupeStack/2 values and allocated above that.
func dedupeValues(values []uint32) []uint32 {
	out := make([]uint32, 0, len(values))
	var stack [dedupeStack]uint32
	slots := stack[:]
	if size := 2 * len(values); size > dedupeStack {
		slots = make([]uint32, 1<<bits.Len(uint(size-1)))
	}
	mask := uint32(len(slots) - 1)
	shift := 32 - bits.Len32(mask)
	sawMax := false
	for _, v := range values {
		if v == math.MaxUint32 {
			if !sawMax {
				sawMax = true
				out = append(out, v)
			}
			continue
		}
		i := v * 0x9e3779b1 >> shift // Fibonacci hashing: the top bits
		for slots[i] != 0 && slots[i] != v+1 {
			i = (i + 1) & mask
		}
		if slots[i] == 0 {
			slots[i] = v + 1
			out = append(out, v)
		}
	}
	return out
}

// dedupeStack is dedupeValues' stack table size: lists of up to 64 values.
const dedupeStack = 128

// SelectRange returns the RIDs of rows with lo ≤ column ≤ hi, in (value,
// RID) order — base and delta rows interleaved exactly as a fully rebuilt
// index would order them.  Methods without ordered access return
// ErrNoOrderedAccess.  Results are cached per epoch under the raw closed
// bounds, with containment reuse: a cached wider range on this column (no
// newer than the epoch) answers the query by slicing its sorted run.
func (ix *SortedIndex) SelectRange(lo, hi uint32) ([]uint32, error) {
	return ix.cur.Load().rangeQuery(env{}, lo, hi)
}

// --- joins -------------------------------------------------------------------

// JoinOptions configures JoinWith.  It has no settable field: the engine
// fans outer-row spans across GOMAXPROCS workers, sequential below ~4k
// outer rows, and probes in cssidx.DefaultBatchSize chunks.
type JoinOptions struct {
	// par is the worker pool; only tests set another (Workers 1 = the
	// streaming sequential path).
	par parallel.Options
	// batch is the probe chunk size, 0 = cssidx.DefaultBatchSize; only
	// tests set another (1 = the scalar schedule).
	batch int
}

// JoinWith performs the indexed nested-loop join of §2.2, driving the inner
// index through the batched probe surface: outer rows are processed in
// chunks of cssidx.DefaultBatchSize, each chunk's raw values are probed with
// one lockstep descent of the inner index, and emit is called for
// each matching (outerRID, innerRID) pair, in the same order as scalar
// probing.  It returns the number of result pairs.
//
// Outer spans large enough for the worker pool run concurrently, each
// with its own pooled scratch, multiplying the lockstep kernel's
// memory-level parallelism by the core count.  On the sequential path (small
// outers) the join streams: emit runs as pairs are found and nothing is
// materialised.  On the parallel path each worker stages its span's pairs
// and emit runs span by span once all workers finish, so the emission order
// is identical — at the price of buffering the result pairs.
//
// The inner index is frozen once for the whole join (one epoch), so joins
// running concurrently with AppendRows see one consistent index state
// throughout.
//
// When the outer table has a result cache attached, the whole pair set is
// fingerprinted by (outer table+column, inner index identity) and stamped
// with the (outer generation, inner generation/epoch) pair: a repeat of
// the join against unchanged state replays the cached pairs through emit
// without probing.  Count-only joins (emit nil) consult the cache but
// never fill it, so they stay unbuffered.  An emitting join streams the
// first time it is asked (nothing is cached at first sight); asked again it
// fills the cache, which buffers the pairs even on the otherwise-streaming
// sequential path — run a recurring join that must stream on a table with
// no cache attached.
func JoinWith(outer *Table, outerCol string, inner *SortedIndex, opts JoinOptions, emit func(outerRID, innerRID uint32)) (int, error) {
	return JoinWithCtx(context.Background(), outer, outerCol, inner, opts, emit, nil)
}

// JoinWithCtx is JoinWith under governance, recording an EXPLAIN ANALYZE
// trace under tr's root span (tr may be nil): cache outcome, worker fan-out,
// probe batch size and pair count.  Probe workers observe ctx's
// cancellation/deadline at chunk boundaries, staged pairs are charged
// against the context's budget, and on an attached admission controller
// the join enters as ClassSelect after a cache miss.  A cancelled join
// never fills the pair cache.
func JoinWithCtx(ctx context.Context, outer *Table, outerCol string, inner *SortedIndex, opts JoinOptions, emit func(outerRID, innerRID uint32), tr *telemetry.Trace) (n int, err error) {
	var q entry
	if q.enter(ctx, tr, histJoinNs) {
		n, err = joinWith(q.env, outer, outerCol, inner, opts, emit)
	}
	return n, q.leave(err)
}

func joinWith(e env, outer *Table, outerCol string, inner *SortedIndex, opts JoinOptions, emit func(outerRID, innerRID uint32)) (int, error) {
	col, ok := outer.cols[outerCol]
	if !ok {
		return 0, fmt.Errorf("mmdb: no column %s in table %s", outerCol, outer.name)
	}
	e.sp.Attr("outer", outer.name).Attr("outer_col", outerCol)
	batchSize := opts.batch
	if batchSize <= 0 {
		batchSize = cssidx.DefaultBatchSize
	}
	if batchSize > len(col.raw) && len(col.raw) > 0 {
		batchSize = len(col.raw)
	}
	ep := inner.cur.Load()
	seg := &ep.segment

	// The pair set is fingerprinted by (outer table+column, inner segment
	// identity) and stamped with (outer state version, inner epoch uid).
	qc := outer.Cache()
	var jkey qcache.Key
	var jtok qcache.Token
	// Only an emitting join whose pair set will be admitted stages it: a
	// count-only join never fills the cache, and a first-sight join streams.
	cacheable := false
	if qc.Enabled() {
		cs := e.sp.Child("cache")
		jkey = qcache.Key{Table: outer.name, Col: outerCol, Kind: qcache.KindJoin, Hash: seg.innerTag()}
		jtok = qcache.Token{Gen: outer.stateVer.Load(), Epoch: ep.uid}
		// A hit emits straight from the cached payload.
		a, b, ok, adm := qc.LookupPair(jkey, jtok)
		switch {
		case ok:
			if emit != nil {
				for i := range a {
					emit(a[i], b[i])
				}
			}
			cs.Attr("outcome", "hit").AttrInt("pairs", len(a)).End()
			return len(a), nil
		case emit == nil:
			cs.Attr("outcome", "miss").End()
		default:
			cacheable = missed(cs, adm)
		}
	}
	st, err := outer.compute(e, governor.ClassSelect, 4*int64(len(col.raw)))
	if err != nil {
		return 0, err
	}
	defer st.release()
	nRows := len(col.raw)
	w := opts.par.WorkersFor(nRows)
	st.ex.Attr("path", "indexed-nested-loop").AttrInt("outer_rows", nRows).AttrInt("batch", batchSize).AttrInt("workers", w)

	// The sequential uncached join streams: emit runs as pairs are found.
	// Every other shape stages each span's pairs, in pooled buffers, and
	// replays them in span order, so the emission order is identical at
	// every worker count.
	var bufs [][]joinPair
	if emit != nil && (w > 1 || cacheable) {
		stage := pairStages.Get().(*[][]joinPair)
		for len(*stage) < w {
			*stage = append(*stage, nil)
		}
		bufs = (*stage)[:w]
		defer func() {
			for t, buf := range bufs {
				if cap(buf) > maxPooledPairs {
					buf = nil
				}
				bufs[t] = buf[:0]
			}
			pairStages.Put(stage)
		}()
	}
	// joinSpan probes span t, rows [lo, hi), in chunks, staging each chunk's
	// pairs in bufs[t] or streaming them to emit; a governed join pays one
	// checkpoint consult per chunk and charges the budget 8 bytes per pair.
	// A staging buffer too small for a chunk's base pairs grows once, to the
	// span's pairs projected from its rate so far (a sixteenth over, at most
	// 8× the pairs found), and the budget is charged for its room too.
	joinSpan := func(t, lo, hi int) (int, error) {
		sc := newProbeScratch(batchSize)
		defer scratchPool.Put(sc)
		cp := e.ctl.Checkpoint()
		count := 0
		for base := lo; base < hi; base += batchSize {
			end := min(base+batchSize, hi)
			chunk := col.raw[base:end]
			first, last := seg.equalRanges(chunk, sc)
			var n int
			if bufs != nil {
				buf, held := bufs[t], cap(bufs[t])
				if need := len(buf) + spanRows(first, last); need > held {
					proj := need * (hi - lo) / (end - lo)
					buf = append(make([]joinPair, 0, min(proj+proj/16, 8*need)), buf...)
				}
				n = seg.probeEqual(chunk, uint32(base), sc, func(o, i uint32) { buf = append(buf, joinPair{o, i}) })
				if cap(buf) != held {
					cp.Charge(8 * int64(cap(buf)-len(buf)))
				}
				bufs[t] = buf
			} else {
				n = seg.probeEqual(chunk, uint32(base), sc, emit)
			}
			count += n
			cp.Charge(8 * int64(n))
			if err := cp.TickN(end - base); err != nil {
				return count, err
			}
		}
		return count, cp.Flush()
	}
	count := 0
	if w <= 1 {
		count, err = joinSpan(0, 0, nRows)
	} else {
		counts := make([]int, w)
		err = fanOut(e.ctl, w, nRows, opts.par, func(t int) (err error) {
			lo, hi := parallel.Span(nRows, w, t)
			counts[t], err = joinSpan(t, lo, hi)
			return err
		})
		for _, c := range counts {
			count += c
		}
	}
	if err != nil {
		return 0, st.abort(err)
	}
	st.ex.AttrInt("pairs", count)
	st.ex.End()
	// A pair set admission would reject anyway (oversized for the cache)
	// is not worth staging a second copy of; the cache counts the reject.
	if cacheable && !qc.FitsPairs(jkey, count) {
		cacheable = false
	}
	// The cache takes the two columns as they are (InsertPair owns them):
	// an admitted pair is copied once out of the staging, into its entry.
	var cacheOuter, cacheInner []uint32
	if cacheable {
		cacheOuter = make([]uint32, 0, count)
		cacheInner = make([]uint32, 0, count)
	}
	for _, buf := range bufs {
		for _, pr := range buf {
			if emit != nil {
				emit(pr.outer, pr.inner)
			}
			if cacheable {
				cacheOuter = append(cacheOuter, pr.outer)
				cacheInner = append(cacheInner, pr.inner)
			}
		}
	}
	if cacheable {
		ad := e.sp.Child("admit")
		qc.InsertPair(jkey, jtok, cacheOuter, cacheInner, joinRecomputeCost(time.Since(st.start), nRows, count))
		ad.End()
	}
	return count, nil
}

// joinPair is one staged result pair of a join.
type joinPair struct{ outer, inner uint32 }

// pairStages recycles the per-worker pair buffers of the joins that stage
// their pairs (parallel, or filling the cache), so a stream of joins stops
// growing a fresh buffer per worker per query.  A buffer past maxPooledPairs
// is dropped rather than kept: one huge join must not pin its staging.
var pairStages = sync.Pool{New: func() any { return new([][]joinPair) }}

const maxPooledPairs = 1 << 16

// --- batch updates -------------------------------------------------------------

// AppendRows appends a batch of rows: newCols must hold exactly the table's
// columns, in equal-length slices.  Small batches are *absorbed* into the
// delta layer — sorted per-index runs over the appended rows, served merged
// with the base by every read surface (delta.go) — so an append stream stops
// paying O(n) per batch.  Once the delta reaches 1/8 of the base
// (foldDenominator), the batch *folds*: the frozen base moves forward over
// every row; Compact folds on demand.  An empty batch changes nothing.
// The paper's OLAP position is that "in a main-memory system, it may be
// relatively cheap to rebuild an index from scratch after a batch of
// updates" (§2.3); a fold is cheaper still, because everything it starts
// from is already sorted — it merges (foldRows), and publishes exactly the
// arrays the rebuild would.
func (t *Table) AppendRows(newCols map[string][]uint32) error {
	return t.appendRows(nil, newCols)
}

// AppendRowsCtx is AppendRows honoring ctx: cancellation and deadline are
// checked up to the last point before the mutation starts.  Once the fold
// or absorb begins it runs to completion — aborting a half-published
// rebuild would tear index epochs — so a cancelled append either happened
// entirely or not at all.
func (t *Table) AppendRowsCtx(ctx context.Context, newCols map[string][]uint32) error {
	err := t.appendRows(governor.For(ctx), newCols)
	if err != nil {
		governor.NoteAbort(err)
	}
	return err
}

func (t *Table) appendRows(ctl *governor.Ctl, newCols map[string][]uint32) error {
	if len(t.cols) == 0 {
		return errors.New("mmdb: table has no columns")
	}
	batch, err := validateBatch(t.order, newCols)
	if err != nil {
		return err
	}
	// Last cancellation point: past here the batch lands atomically.
	if err := ctl.Err(); err != nil {
		return err
	}
	t.applyRows(newCols, batch)
	return nil
}

// applyRows lands a validated batch of batch rows: absorbed into the delta,
// or folded.  An empty batch is not applied at all.
func (t *Table) applyRows(newCols map[string][]uint32, batch int) {
	if batch == 0 {
		return
	}
	start := telemetry.Now()
	if t.fold.shouldFold(t.rows-t.baseRows+batch, t.baseRows) {
		t.foldRows(newCols, batch)
		histFoldNs.Since(start)
	} else {
		t.absorbRows(newCols, batch)
		histAbsorbNs.Since(start)
	}
}

// Compact folds now, with or without absorbed rows outstanding: the index
// base arrays (and group-by domains) move forward over every row, the
// generation moves and the table's cached entries are swept — what a batch
// that crosses the fold threshold does.  Like AppendRows it is not
// synchronized with other mutations (on a DurableTable, with its AppendRows).
func (t *Table) Compact() {
	start := telemetry.Now()
	t.foldRows(nil, 0)
	histFoldNs.Since(start)
}

// Close drops the table from the process-wide accounts: the rows it has
// awaiting a fold leave the mmdb_delta_rows gauge.  Reads stay valid.
func (t *Table) Close() { t.releaseLag() }

// releaseLag takes the table's rows out of the mmdb_delta_rows gauge: they
// were folded, or the table is going away.
func (t *Table) releaseLag() {
	gaugeDeltaRows.Add(-t.lag)
	t.lag = 0
}

// validateBatch checks that a batch holds exactly the columns names — none
// missing, none unknown — with equal-length slices, and returns the batch
// row count.
func validateBatch(names []string, newCols map[string][]uint32) (int, error) {
	if len(newCols) != len(names) {
		return 0, fmt.Errorf("mmdb: batch has %d columns, want %d (%v)", len(newCols), len(names), names)
	}
	var batch int
	for i, name := range names {
		vals, ok := newCols[name]
		if !ok {
			return 0, fmt.Errorf("mmdb: batch missing column %s", name)
		}
		if i == 0 {
			batch = len(vals)
		} else if len(vals) != batch {
			return 0, fmt.Errorf("mmdb: batch column %s has %d rows, want %d", name, len(vals), batch)
		}
	}
	return batch, nil
}

// foldRows brings the frozen base forward over every row — the unfolded
// tail plus this batch — by merging, not rebuilding: each index's runs hold
// the tail sorted, the folding batch joins them as one more run (no epoch
// publishes it, so it is neither tiered nor filtered), and the new base is
// the range read's own weave of the old base with every run over the whole
// key space.  Everything published is a fresh array; readers pinned to the
// previous state keep reading theirs.  Then the generation moves and the
// table's cached entries are swept.
func (t *Table) foldRows(newCols map[string][]uint32, batch int) {
	for _, name := range t.order {
		c := t.cols[name]
		c.raw = append(c.raw, newCols[name]...)
		c.fold(t.baseRows)
		if ix := t.indexes[name]; ix != nil {
			old := ix.cur.Load()
			runs := old.runs
			if batch > 0 {
				v, r := sortedPairsOf(newCols[name], uint32(t.rows))
				runs = append(runs[:len(runs):len(runs)], idxRun{vals: v, rids: r, min: v[0], max: v[batch-1]})
			}
			rids, keys := mergeRangeDelta(old.keys, old.rids, 0, len(old.keys), runs, 0, math.MaxUint32, true)
			ix.install(keys, rids)
		}
	}
	t.rows += batch
	t.baseRows = t.rows
	t.releaseLag()
	// Generation invalidation: move the token, then sweep this table's
	// entries.  Readers never block — a concurrent index reader still
	// holding the previous epoch simply stops matching, and any entry it
	// inserts late is stamped with the old epoch and reaped at its next
	// access.
	t.gen.Add(1)
	t.stateVer.Add(1)
	t.Cache().DropTable(t.name)
}

// fold moves the column's base forward over all of raw, of which rows
// [0, base) are the old base and raw[base:] the tail: the bounds widen by the
// tail.  A grouped column's memo grows with it: the tail is sorted into
// (value, RID) pairs, the domain is extended by the sorted values, the base
// IDs are carried over by one gather through the remap (a copy when the tail
// brought no new value), and the tail's IDs come from one walk over the grown
// domain (EncodeSorted) — no tree probe per row.
func (c *Column) fold(base int) {
	tail := c.raw[base:]
	c.widen(tail)
	memo := c.grp.Load()
	if memo == nil {
		return
	}
	tailKeys, tailRids := sortedPairsOf(tail, uint32(base))
	dom, remap := memo.dom.Extend(tailKeys)
	ids := make([]uint32, len(c.raw))
	if remap == nil {
		copy(ids, memo.ids)
	} else {
		for i, id := range memo.ids {
			ids[i] = remap[id]
		}
	}
	dom.EncodeSorted(tailKeys, tailKeys)
	for i, rid := range tailRids {
		ids[rid] = tailKeys[i]
	}
	c.grp.Store(&groups{dom: dom, ids: ids})
}

// absorbRows is the delta path: raw columns grow, the frozen base does
// not, and each index absorbs the batch as one sorted run (publishing a new
// epoch that shares the base arrays).  The result cache is not
// touched: an entry that is asked for again is brought current then.
func (t *Table) absorbRows(newCols map[string][]uint32, batch int) {
	startRID := uint32(t.rows)
	for _, name := range t.order {
		c := t.cols[name]
		c.raw = append(c.raw, newCols[name]...)
	}
	t.rows += batch
	for col, ix := range t.indexes {
		ix.absorb(newCols[col], startRID)
	}
	t.stateVer.Add(1)
	gaugeDeltaRows.Add(int64(batch))
	t.lag += int64(batch)
}

package mmdb

// Result caching: the execution engine's reuse stage.  Every query surface
// (Table.SelectRange/SelectIn/SelectWhere, GroupAggregate, JoinWith, and an
// index's own SelectRange over its epoch) consults an attached qcache.Cache
// before computing and fills it after, so repeated decision-support traffic —
// the same dashboard ranges, IN-lists and join sub-results over and over — is
// answered by a fingerprint lookup and one slice copy instead of a
// recomputation.  The copy is the caller's: inside the engine a cached
// payload is read where it lies (a WHERE conjunct, a join's pairs).
//
// The table layer looks up before it plans: a fingerprint never depends on
// the plan — a SelectRange or SelectIn's scan and index paths share one
// table-layer key, whatever search structure the column's index has, and so
// does every SelectWhere conjunction.  Within a generation the plan is a
// function of the question alone, so the entry a miss inserts stores that
// miss's plan (qcache.Plan: path, selectivity, reason) and an exact hit
// replays it without probing the index; a subset replay and a containment
// hit count the base rows they hold off their RIDs below the last fold
// (Table.belowBase), with no descent either.  An index's own SelectRange is
// never planned; it caches at the epoch layer, stamped with the epoch it
// read.
//
// Nothing is cached at first sight.  Every miss is settled with the cache's
// admission verdict (qcache/door.go: has this question missed before?), and
// every miss path takes it before executing: a first-time question runs
// exactly as it would with caching off — no key run, no group offsets, no
// staged join pairs, no Insert — and only a question seen before pays to
// stage the payload the cache wants.  A recurring question is
// therefore computed twice before it is served from the cache; an ad-hoc
// stream costs the cache one tag per query.
//
// Invalidation rides the structures the engine already maintains: every
// result is stamped with the fold generation and the row count it was
// computed over, so a fold invalidates by moving the generation — readers
// never stop, stale entries are reaped at their next access, and the fold
// sweeps the table's entries eagerly (qcache.DropTable) — while an absorbed
// append does nothing: the lookup that next picks an entry brings it current
// from the rows appended since.

import (
	"fmt"
	"sync"
	"time"

	"cssidx/internal/qcache"
	"cssidx/internal/telemetry"
)

// CacheOptions configures the result cache of a Table (EnableCache) or of a
// DB's tables (NewDB): its byte budget and admission floor.  A table with no
// cache computes every surface.
type CacheOptions = qcache.Options

// EnableCache attaches a fresh result cache to the table and returns it.
// Attachment is not synchronized with queries: enable the cache before the
// table starts serving.
func (t *Table) EnableCache(opts CacheOptions) *qcache.Cache {
	c := qcache.New(opts)
	t.cache.Store(c)
	return c
}

// Cache returns the attached result cache, or nil when caching is off.
func (t *Table) Cache() *qcache.Cache { return t.cache.Load() }

// Generation returns the table's current generation: 1 after creation,
// +1 per fold (new index base arrays).  Absorbed append
// batches only grow the row count.
func (t *Table) Generation() uint64 { return t.gen.Load() }

// token stamps results computed against the table's in-place state: the
// answer over rows [0, rows) of one generation.  A fold moves Gen and drops
// the table's entries; an absorb only grows rows, so append-heavy streams
// keep their cache and pay for it only where they use it.
func (t *Table) token() qcache.Token {
	return qcache.Token{Gen: t.gen.Load(), Epoch: uint64(t.rows)}
}

// reader is the table layer's cache reader: the token, the raw appended rows
// the scan-path kinds are brought current from and, when the query runs
// through a SortedIndex, its delta runs for the index-path kinds.
func (t *Table) reader(seg *segment) qcache.Reader {
	rd := qcache.Reader{Tok: t.token(), Rows: rawTail{t}}
	if seg != nil {
		rd.Runs = seg
	}
	return rd
}

// rawTail is the table's raw columns as a qcache.RowTail.
type rawTail struct{ t *Table }

func (r rawTail) Column(col string, mark uint32) ([]uint32, bool) {
	c, ok := r.t.cols[col]
	if !ok || int(mark) > len(c.raw) {
		return nil, false
	}
	return c.raw[mark:], true
}

// tailRows annotates a cache hit that was brought current with the tail rows
// it merged; a hit that was missing none says nothing.
func tailRows(sp *telemetry.Span, tail int) *telemetry.Span {
	if tail != qcache.Current {
		sp.AttrInt("tail_rows", tail)
	}
	return sp
}

// missed closes the cache span of a lookup that found nothing and passes the
// admission verdict on.  A deferred miss — the question's first sight — says
// so; it runs exactly as it would with caching off and has no admit stage.
func missed(cs *telemetry.Span, admit bool) bool {
	cs.Attr("outcome", "miss")
	if !admit {
		cs.AttrBool("first_sight", true)
	}
	cs.End()
	return admit
}

// miss settles a Find that found nothing, for a query about to compute: the
// cache counts the miss and says whether to admit the result, and the cache
// span records it.  With caching off there is neither.
func (e env) miss(qc *qcache.Cache, k qcache.Key) bool {
	if !qc.Enabled() {
		return false
	}
	return missed(e.sp.Child("cache"), qc.Miss(k))
}

// hit records the cache span of a query Find answered and returns the
// caller's copy of the answer: an exact or containment hit's RIDs are the
// cache's own payload, so they are copied once, here; a subset replay's are
// already fresh.
func (e env) hit(a qcache.Answer) []uint32 {
	tailRows(e.sp.Child("cache").Attr("outcome", a.Kind.String()).AttrInt("rows", len(a.RIDs)), a.Tail).End()
	if a.Kind == qcache.HitSubset {
		return a.RIDs
	}
	return append([]uint32(nil), a.RIDs...)
}

// --- fingerprints -----------------------------------------------------------

// rangeFP fingerprints lo ≤ col ≤ hi by its raw closed bounds: the key space
// every index, delta run and cached run shares, canonical across absorbed
// appends — and a refresh can qualify appended rows against them directly.
func rangeFP(table, col string, layer qcache.Layer, lo, hi uint32) qcache.Key {
	return qcache.Key{Table: table, Col: col, Kind: qcache.KindRange, Layer: layer, Lo: lo, Hi: hi}
}

// inFP fingerprints col IN (values) over the deduplicated list in
// first-occurrence order — order-sensitive because the result's RID
// grouping follows list order.  Lists hash a word at a time (qcache.HashWords):
// this runs before every IN lookup, hit or miss.  Only the table layer
// caches IN-lists.
func inFP(table, col string, distinct []uint32) qcache.Key {
	return qcache.Key{
		Table: table, Col: col, Kind: qcache.KindIn, Layer: qcache.LayerTable,
		Hash: qcache.HashWords(qcache.HashSeed, distinct), N: uint32(len(distinct)),
	}
}

// whereFP fingerprints a conjunction of range predicates by their raw
// closed bounds in predicate order (raw for the same reason as rangeFP).
func whereFP(table string, preds []RangePred) qcache.Key {
	h := uint64(qcache.HashSeed)
	for _, p := range preds {
		h = qcache.HashString(h, p.Col)
		h = qcache.HashU32(h, p.Lo)
		h = qcache.HashU32(h, p.Hi)
	}
	return qcache.Key{Table: table, Kind: qcache.KindWhere, Hash: h, N: uint32(len(preds))}
}

// aggFP fingerprints a GroupAggregate: the group column is the key's
// column, and the hash folds the measure column plus the source-RID set —
// a marker separates the nil all-rows source from an explicit (possibly
// empty) RID list, because only the former grows with appended rows.  The
// source RIDs — often thousands — hash a word at a time (qcache.HashWords).
func aggFP(table, groupCol, measureCol string, rids []uint32) qcache.Key {
	h := qcache.HashString(qcache.HashSeed, measureCol)
	if rids == nil {
		h = qcache.HashU32(h, 1)
	} else {
		h = qcache.HashU32(h, 2)
		h = qcache.HashWords(h, rids)
	}
	return qcache.Key{
		Table: table, Col: groupCol, Kind: qcache.KindAgg, Layer: qcache.LayerTable,
		Hash: h, N: uint32(len(rids)),
	}
}

// --- recompute cost model ---------------------------------------------------

// Cost-model constants (ns), sized for the DRAM-missing regime the paper
// measures: a scalar root-to-leaf descent, one RID gathered from the
// sorted list, one batched probe (lockstep overlap amortises the misses),
// and one row streamed by a sequential scan.
const (
	costProbeNs      = 150
	costGatherNs     = 2
	costBatchProbeNs = 30
	costScanRowNs    = 1
)

// estRecomputeNs models rerunning a planned selection, priced with the
// same access-path model PlanRange/PlanIn choose by.
func estRecomputeNs(p Plan, tableRows int) int64 {
	if p.UseIndex {
		return 2*costProbeNs + int64(p.EstRows)*costGatherNs
	}
	return int64(tableRows)*costScanRowNs + int64(p.EstRows)*costGatherNs
}

// recomputeCost is the admission/eviction benefit input: the measured
// elapsed time floored by the model estimate, so a first run that
// happened to hit warm caches does not undervalue the entry.
func recomputeCost(elapsed time.Duration, p Plan, tableRows int) int64 {
	cost := elapsed.Nanoseconds()
	if est := estRecomputeNs(p, tableRows); est > cost {
		cost = est
	}
	return cost
}

// aggRecomputeCost models rerunning a grouped aggregation: two random
// gathers per source row (group id/value and measure) plus a streamed pass
// over the group slots.
func aggRecomputeCost(elapsed time.Duration, sourceRows, groups int) int64 {
	cost := elapsed.Nanoseconds()
	if est := int64(sourceRows)*2*costGatherNs + int64(groups)*costScanRowNs; est > cost {
		cost = est
	}
	return cost
}

// joinRecomputeCost models rerunning an indexed nested-loop join: one
// batched probe per outer row plus one gather per emitted pair.
func joinRecomputeCost(elapsed time.Duration, outerRows, pairs int) int64 {
	cost := elapsed.Nanoseconds()
	if est := int64(outerRows)*costBatchProbeNs + int64(pairs)*costGatherNs; est > cost {
		cost = est
	}
	return cost
}

// --- DB: tables sharing one cache -------------------------------------------

// DB groups tables around one shared result cache, so cross-table
// workloads (joins, dashboards spanning fact and dimension tables) manage
// one byte budget instead of one per table.  Table names are unique
// within a DB — the cache fingerprints entries by table name.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	cache  *qcache.Cache
}

// NewDB creates a database whose tables share one result cache built from
// opts.
func NewDB(opts CacheOptions) *DB {
	return &DB{tables: map[string]*Table{}, cache: qcache.New(opts)}
}

// CreateTable creates an empty table registered in the DB with the shared
// cache attached.
func (db *DB) CreateTable(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("mmdb: db already has table %s", name)
	}
	t := NewTable(name)
	t.cache.Store(db.cache)
	db.tables[name] = t
	return t, nil
}

// Table returns a registered table by name.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Cache returns the shared result cache (nil when disabled).
func (db *DB) Cache() *qcache.Cache { return db.cache }

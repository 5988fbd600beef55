package mmdb

// Sharded serving for table queries: a ShardedIndex is the concurrent
// counterpart of SortedIndex.  The whole index state — sorted domain-ID
// keys, the RID list, and the cssidx.ShardedIndex over the keys — lives in
// one immutable snapshot behind an atomic pointer, so selections and range
// queries keep serving, lock-free and torn-read-free, while AppendRows
// rebuilds and publishes the next epoch (the §2.3 cycle applied at the
// table level, on top of the per-shard epoch-swaps inside the index).
//
// That snapshot is a segment (segment.go) plus its epoch numbers, so this
// file holds only what is particular to epochs: building and publishing
// them, and pinning one for the length of a query.  Every query method loads
// the current epoch once and hands its segment and its cache reader to the
// cached path every index kind shares (query.go: segment → cached path →
// entry).

import (
	"context"
	"fmt"
	"sync/atomic"

	"cssidx"
	"cssidx/internal/qcache"
)

// ShardedIndex is a concurrently servable RID list + sharded search index
// on one column.  Build with Table.BuildShardedIndex; queries may run from
// any goroutine, concurrently with AppendRows.
//
// Results are cached per frozen epoch when the owning table has a result
// cache: every entry is stamped with the rebuild and the rows it was
// computed over, so a query racing AppendRows either hits an entry no newer
// than its own epoch — brought current from its own frozen delta runs — or
// computes against its own frozen snapshot, and a published rebuild
// invalidates simply by moving the token.
type ShardedIndex struct {
	col     *Column
	tbl     *Table // owning table: result cache, admission, name for fingerprints
	colName string
	shards  int
	cur     atomic.Pointer[shardedEpoch]
}

// shardedEpoch is one published state of the index — a segment stamped with
// the epoch-layer cache identity: a fresh base (build or fold), or an absorbed
// append batch sharing the previous epoch's base arrays and search structure
// with one more delta run stacked on top.
type shardedEpoch struct {
	segment
	epoch uint64
	uid   uint64       // globally-unique epoch id: the version a join's pair set is stamped with
	tok   qcache.Token // cache token: Gen the uid of the last build or fold, Epoch the rows covered
}

// reader is the epoch's cache reader: entries are brought current from its
// own frozen runs, never from the live table.
func (s *shardedEpoch) reader() qcache.Reader {
	return qcache.Reader{Tok: s.tok, Runs: &s.segment}
}

// epochUID issues globally-unique ids for published epochs.  Epoch() counts
// per index instance and restarts at 1 when BuildShardedIndex replaces an
// index, so the *cache* generation must come from here: a straggler reader's
// late insert stamped with an old instance's rebuild can then never collide
// with a fresh instance's tokens.
var epochUID atomic.Uint64

// BuildShardedIndex builds a sharded index on the column and registers it;
// shards ≤ 0 picks the cssidx default (GOMAXPROCS, capped at 16).
// AppendRows publishes each new state — an absorbed run, or a fold's merged
// base — atomically.
func (t *Table) BuildShardedIndex(colName string, shards int) (*ShardedIndex, error) {
	col, ok := t.cols[colName]
	if !ok {
		return nil, fmt.Errorf("mmdb: no column %s in table %s", colName, t.name)
	}
	ix := &ShardedIndex{col: col, tbl: t, colName: colName, shards: shards}
	ix.install(col.sortedPairs())
	// Rows appended since the last fold are not in the frozen encoding
	// the rebuild indexed; absorb them as a delta run so a late-built
	// index still covers every row.
	if t.rows > t.baseRows {
		ix.absorb(col.raw[t.baseRows:], uint32(t.baseRows))
	}
	if old, ok := t.sharded[colName]; ok {
		old.Close() // release the replaced index's background rebuilder
	}
	t.sharded[colName] = ix
	t.Cache().DropTable(t.name) // see BuildIndex
	return ix, nil
}

// ShardedIndex returns the registered sharded index on a column, if any.
func (t *Table) ShardedIndex(colName string) (*ShardedIndex, bool) {
	ix, ok := t.sharded[colName]
	return ix, ok
}

// install constructs the next epoch over (keys, rids) — the column's current
// encoding in sorted order, fresh arrays from the build's sort or a fold's
// merge — and publishes it with a single pointer swap.  The previous epoch's
// background rebuilder is released; readers still holding it keep valid
// results.
func (ix *ShardedIndex) install(keys, rids []uint32) {
	idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: ix.shards})
	next := &shardedEpoch{
		segment: segment{
			dom: ix.col.dom, keys: keys, rids: rids, ord: idx, shards: idx,
			tbl: ix.tbl, col: ix.colName, layer: qcache.LayerEpoch,
		},
		epoch: 1,
		uid:   epochUID.Add(1),
	}
	next.tok = qcache.Token{Gen: next.uid, Epoch: uint64(len(rids))}
	if old := ix.cur.Load(); old != nil {
		next.epoch = old.epoch + 1
		// Absorb epochs share one base idx; the fold closes it exactly once.
		old.shards.Close()
	}
	ix.cur.Store(next)
}

// absorb publishes the next epoch with one more delta run, sharing the
// previous epoch's domain, base arrays and search structure (which is why
// only install — never absorb — closes the underlying index).
func (ix *ShardedIndex) absorb(vals []uint32, startRID uint32) {
	next := *ix.cur.Load()
	next.epoch++
	next.uid = epochUID.Add(1)
	next.tok.Epoch += uint64(len(vals))
	next.runs = pushRun(next.runs, newIdxRun(vals, startRID))
	ix.cur.Store(&next)
}

// Epoch returns the current table-level epoch (1 = initial build, +1 per
// published AppendRows state — a fold or an absorbed batch).
func (ix *ShardedIndex) Epoch() uint64 { return ix.cur.Load().epoch }

// ShardCount returns the shard count of the current epoch's index.
func (ix *ShardedIndex) ShardCount() int { return ix.cur.Load().shards.ShardCount() }

// SpaceBytes returns the current epoch's footprint: RID list, key array and
// the per-shard arrays (counted as one extra key copy across shards).
func (ix *ShardedIndex) SpaceBytes() int {
	s := ix.cur.Load()
	return s.spaceBytes() + 4*s.shards.Len()
}

// SelectEqual returns the RIDs of rows whose column equals value — base
// rows first, then delta rows, which is ascending-RID order.
func (ix *ShardedIndex) SelectEqual(value uint32) []uint32 {
	return ix.cur.Load().selectEqual(value)
}

// SelectEqualCtx is SelectEqual under governance: the probe enters the
// owning table's admission controller as ClassPoint — the class with the
// most queue headroom, served last by the shed policy — and the result is
// charged against ctx's byte budget.
func (ix *ShardedIndex) SelectEqualCtx(ctx context.Context, value uint32) ([]uint32, error) {
	return selectEqualCtx(ctx, &ix.cur.Load().segment, value)
}

// SelectIn returns the RIDs of rows whose column equals any value in the
// IN-list, against one table-level epoch: the list is translated through the
// domain with one lockstep descent per chunk and probed with the sharded
// index's batched equal-range, with large lists fanned across the parallel
// worker pool.  Duplicate list values contribute their rows once; RIDs come
// back grouped by list order, ascending within a value.  Results are cached
// per frozen epoch.
func (ix *ShardedIndex) SelectIn(values []uint32) []uint32 {
	out, _ := ix.SelectInCtx(context.Background(), values)
	return out
}

// SelectInCtx is SelectIn under governance; the list probes enter the
// owning table's admission controller as ClassSelect after a cache miss.
func (ix *ShardedIndex) SelectInCtx(ctx context.Context, values []uint32) (out []uint32, err error) {
	var q entry
	if q.enter(ctx, nil, nil) {
		out, err = ix.selectIn(q.env, dedupeValues(values))
	}
	return out, q.leave(err)
}

// selectIn runs the cached IN path (query.go) against the epoch current at
// entry, as that epoch's reader.
func (ix *ShardedIndex) selectIn(e env, distinct []uint32) ([]uint32, error) {
	s := ix.cur.Load()
	return selectIn(&s.segment, s.reader(), e, distinct, len(distinct))
}

// joinFreeze captures the prober state for a whole join: the current
// table-level epoch's segment, probing one frozen snapshot of every shard,
// versioned by the epoch's uid — so a join probes one consistent index
// state no matter how many AppendRows epochs publish while it runs.
func (ix *ShardedIndex) joinFreeze() (*segment, uint64) {
	s := ix.cur.Load()
	seg := s.segment
	seg.ord = s.shards.Snapshot()
	return &seg, s.uid
}

// SelectRange returns the RIDs of rows with lo ≤ column ≤ hi, in (value,
// RID) order — base and delta rows interleaved exactly as a rebuilt epoch
// would order them.  Results are cached per frozen epoch under the raw
// closed bounds, with containment reuse: a cached wider range on this
// column (no newer than the epoch) answers the query by slicing its sorted
// run.
func (ix *ShardedIndex) SelectRange(lo, hi uint32) ([]uint32, error) {
	return ix.SelectRangeCtx(context.Background(), lo, hi)
}

// SelectRangeCtx is SelectRange under governance; a cache-missing range
// enters the owning table's admission controller as ClassSelect and the
// merged result is charged against ctx's byte budget.
func (ix *ShardedIndex) SelectRangeCtx(ctx context.Context, lo, hi uint32) (out []uint32, err error) {
	var q entry
	if q.enter(ctx, nil, nil) {
		out, err = ix.selectRange(q.env, lo, hi, -1)
	}
	return out, q.leave(err)
}

// selectRange runs the cached range path (query.go) against the epoch
// current at entry, as that epoch's reader.  est is the row estimate of the
// table layer, which has resolved the bounds already and answered a range no
// live value can fall in; a direct call passes -1, and the path resolves
// them only on a miss.
func (ix *ShardedIndex) selectRange(e env, lo, hi uint32, est int) ([]uint32, error) {
	if lo > hi {
		return nil, nil
	}
	s := ix.cur.Load()
	return selectRange(&s.segment, s.reader(), e, lo, hi, est)
}

// CountRange is SelectRange without materialising RIDs.
func (ix *ShardedIndex) CountRange(lo, hi uint32) (int, error) {
	return ix.cur.Load().countRange(lo, hi)
}

// Close releases the current epoch's background rebuilder.  Queries remain
// valid; call when the table is done serving.
func (ix *ShardedIndex) Close() { ix.cur.Load().shards.Close() }

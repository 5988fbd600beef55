// Package mmdb is a miniature main-memory column store providing the §2
// decision-support context the paper's indexes live in: domain-encoded
// columns, record-identifier lists sorted by an attribute, selections and
// range queries through a pluggable index, indexed nested-loop joins, and
// the OLAP batch-update cycle where indexes are rebuilt from scratch rather
// than maintained incrementally (§2.3).
//
// A Table stores columns of uint32 values.  Each column is domain-encoded
// (internal/domain): the column holds rank IDs, the domain holds each
// distinct value once in sorted order.  An index on a column is a RID list
// sorted by the column ("a list of record identifiers sorted by some columns
// provides ordered access to the base relation", §2.2) plus a companion
// sorted key array searched by any cssidx method.
package mmdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cssidx"
	"cssidx/internal/domain"
	"cssidx/internal/governor"
	"cssidx/internal/parallel"
	"cssidx/internal/qcache"
	"cssidx/internal/sortu32"
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
	indexes map[string]*SortedIndex
	sharded map[string]*ShardedIndex

	// baseRows is the prefix of rows covered by the frozen encodings:
	// domains, ID columns and index base arrays are built over rows
	// [0, baseRows) at the last fold; rows beyond live in the delta layer
	// (delta.go) until the next fold.
	baseRows  int
	appendPol AppendPolicy

	// gen is the table generation: 1 after creation, +1 per *fold* (a
	// full rebuild of encodings and indexes).  Together with deltaSeq it
	// forms the validity token of every cached result computed against
	// the table's in-place state (cache.go), read atomically so the
	// epoch-serving ShardedIndex surfaces can stamp entries while a
	// rebuild publishes.
	gen atomic.Uint64
	// deltaSeq counts absorbed append batches (never reset): the token's
	// second component, so an absorb moves the token without the
	// generation — letting the cache patch entries across it rather than
	// drop the table.
	deltaSeq atomic.Uint64
	// stateVer is 1 after creation, +1 per AppendRows batch of either
	// kind — the single-counter version join caching stamps outer state
	// with (always gen + deltaSeq, kept explicit for cheap reads).
	stateVer atomic.Uint64
	// cache is the attached result cache (nil = caching off); behind an
	// atomic pointer so concurrent sharded readers see attachment safely.
	cache atomic.Pointer[qcache.Cache]
	// gov is the attached admission controller (nil = admission off);
	// same atomic-pointer discipline as cache (govern.go).
	gov atomic.Pointer[governor.Admission]
}

// Column is one domain-encoded attribute.
type Column struct {
	name string
	raw  []uint32 // source values, row order
	dom  *domain.IntDomain
	ids  []uint32 // domain IDs, row order
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	t := &Table{
		name:    name,
		cols:    map[string]*Column{},
		indexes: map[string]*SortedIndex{},
		sharded: map[string]*ShardedIndex{},
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
	dom, ids := domain.BuildInt(values)
	t.cols[name] = &Column{
		name: name,
		raw:  append([]uint32(nil), values...),
		dom:  dom,
		ids:  ids,
	}
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

// Domain returns the column's ordered domain.
func (c *Column) Domain() *domain.IntDomain { return c.dom }

// Len returns the number of rows in the column.
func (c *Column) Len() int { return len(c.raw) }

// --- sorted RID lists with a search index ----------------------------------

// SortedIndex is a RID list sorted by one column, with a companion sorted
// key array (of domain IDs) searched by the chosen cssidx method.  Queries
// arrive as raw values and are translated through the domain first — the
// §2.2 flow: "transforming domain values to domain IDs requires searching on
// the domain".
type SortedIndex struct {
	col   *Column
	owner *Table // registering table (generation + cache for join reuse)
	kind  cssidx.Kind
	opts  cssidx.Options
	keys  []uint32 // domain IDs in sorted order
	rids  []uint32 // RIDs ordered by column value
	idx   cssidx.Index
	batch cssidx.BatchIndex        // idx behind the batch surface (native or adapted)
	bord  cssidx.BatchOrderedIndex // non-nil when the method has ordered access
	runs  []idxRun                 // absorbed delta runs since the last fold, geometrically tiered (delta.go)
}

// BuildIndex builds (or rebuilds) an index on the column using the given
// method, and registers it on the table.
func (t *Table) BuildIndex(colName string, kind cssidx.Kind, opts cssidx.Options) (*SortedIndex, error) {
	col, ok := t.cols[colName]
	if !ok {
		return nil, fmt.Errorf("mmdb: no column %s in table %s", colName, t.name)
	}
	ix := &SortedIndex{col: col, owner: t, kind: kind, opts: opts}
	ix.rebuild()
	// The base structure covers the frozen encoding (baseRows); rows
	// appended since the last fold live only in raw form, so hand them to
	// the delta layer as one run — exactly the state absorbRows would
	// have left had the index existed when they arrived.
	if t.rows > t.baseRows {
		ix.absorb(col.raw[t.baseRows:], uint32(t.baseRows))
	}
	t.indexes[colName] = ix
	return ix, nil
}

// Index returns the registered index on a column, if any.
func (t *Table) Index(colName string) (*SortedIndex, bool) {
	ix, ok := t.indexes[colName]
	return ix, ok
}

// rebuild re-sorts the RID list and reconstructs the search structure.
// The key/RID pair sort is a stable radix sort (internal/sortu32), the
// cache-conscious choice for the 4-byte keys of Table 1.
func (ix *SortedIndex) rebuild() {
	n := len(ix.col.ids)
	ix.rids = make([]uint32, n)
	ix.keys = make([]uint32, n)
	copy(ix.keys, ix.col.ids)
	for i := range ix.rids {
		ix.rids[i] = uint32(i)
	}
	sortu32.SortPairs(ix.keys, ix.rids)
	ix.idx = cssidx.New(ix.kind, ix.keys, ix.opts)
	ix.batch = cssidx.AsBatch(ix.idx)
	ix.bord = nil
	if ord, ok := ix.idx.(cssidx.OrderedIndex); ok {
		ix.bord = cssidx.AsBatchOrdered(ord)
	}
	ix.runs = nil
}

// absorb lands one appended batch in the delta layer: a sorted run over
// the batch's (value, RID) pairs pushed onto the geometric tier (pushRun).
// The base arrays and search structure are untouched.
func (ix *SortedIndex) absorb(vals []uint32, startRID uint32) {
	ix.runs = pushRun(ix.runs, newIdxRun(vals, startRID))
}

// Kind returns the index method.
func (ix *SortedIndex) Kind() cssidx.Kind { return ix.kind }

// SpaceBytes returns the index footprint: RID list, key array, structure
// and outstanding delta runs.
func (ix *SortedIndex) SpaceBytes() int {
	return 4*len(ix.rids) + 4*len(ix.keys) + ix.idx.SpaceBytes() + deltaRunsBytes(ix.runs)
}

// RIDs returns the RID list in column-value order (ordered access, §2.2).
func (ix *SortedIndex) RIDs() []uint32 { return ix.rids }

// SelectEqual returns the RIDs of rows whose column equals value, in RID
// order of the sorted list (stable: insertion order within duplicates).
// Delta rows follow base rows — still ascending-RID, since appended RIDs
// exceed all resident ones.
func (ix *SortedIndex) SelectEqual(value uint32) []uint32 {
	var out []uint32
	if id, ok := ix.col.dom.ID(value); ok {
		if pos := ix.idx.Search(id); pos >= 0 {
			for ; pos < len(ix.keys) && ix.keys[pos] == id; pos++ {
				out = append(out, ix.rids[pos])
			}
		}
	}
	return deltaEqualAppend(ix.runs, value, out)
}

// SelectEqualCtx is SelectEqual under governance: the context's
// cancellation/deadline/budget are observed, and on an attached admission
// controller the probe enters as ClassPoint — the class served last by the
// shed policy, with extra queue headroom under overload.
func (ix *SortedIndex) SelectEqualCtx(ctx context.Context, value uint32) ([]uint32, error) {
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		governor.NoteAbort(err)
		return nil, err
	}
	if ix.owner != nil {
		release, err := ix.owner.admit(ctl, governor.ClassPoint, 0)
		if err != nil {
			governor.NoteAbort(err)
			return nil, err
		}
		defer release()
	}
	out := ix.SelectEqual(value)
	if err := ctl.Charge(4 * int64(len(out))); err != nil {
		governor.NoteAbort(err)
		return nil, err
	}
	return out, nil
}

// SelectInCtx is SelectIn under governance; see SelectEqualCtx.  The list
// probes under ClassSelect with cancellation observed at chunk boundaries.
func (ix *SortedIndex) SelectInCtx(ctx context.Context, values []uint32) ([]uint32, error) {
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		governor.NoteAbort(err)
		return nil, err
	}
	var release = func() {}
	if ix.owner != nil {
		var err error
		release, err = ix.owner.admit(ctl, governor.ClassSelect, 4*int64(len(values)))
		if err != nil {
			governor.NoteAbort(err)
			return nil, err
		}
	}
	defer release()
	out, err := ix.selectInCtl(ctl, dedupeValues(values))
	if err != nil {
		governor.NoteAbort(err)
		return nil, err
	}
	return out, nil
}

// SelectRangeCtx is SelectRange under governance; the merged result is
// charged against the context's budget after materialisation.
func (ix *SortedIndex) SelectRangeCtx(ctx context.Context, lo, hi uint32) ([]uint32, error) {
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		governor.NoteAbort(err)
		return nil, err
	}
	var release = func() {}
	if ix.owner != nil {
		var err error
		release, err = ix.owner.admit(ctl, governor.ClassSelect, 0)
		if err != nil {
			governor.NoteAbort(err)
			return nil, err
		}
	}
	defer release()
	out, err := ix.SelectRange(lo, hi)
	if err == nil {
		err = ctl.Charge(4 * int64(len(out)))
	}
	if err != nil {
		governor.NoteAbort(err)
		return nil, err
	}
	return out, nil
}

// SelectIn returns the RIDs of rows whose column equals any value in the
// IN-list, driving the index through the batched probe surface (one lockstep
// domain translation + one batched equal-range probe per chunk of
// cssidx.DefaultBatchSize values), with large lists fanned across the
// parallel worker pool.  Duplicate list values contribute their rows once;
// RIDs come back grouped by list order, ascending within a value.
func (ix *SortedIndex) SelectIn(values []uint32) []uint32 {
	out, _ := ix.selectInCtl(nil, dedupeValues(values))
	return out
}

// selectInCtl is SelectIn over a pre-deduplicated list under governance:
// the ctl's cancellation, deadline and budget are observed at chunk
// boundaries inside the probe loops (nil ctl = the legacy ungoverned path,
// bit-identical output).
func (ix *SortedIndex) selectInCtl(ctl *governor.Ctl, distinct []uint32) ([]uint32, error) {
	if len(ix.runs) == 0 {
		return selectInRIDs(ix.col.dom, ix.rids, distinct, ix.equalRangeBatchIDs, parallel.Options{}, ctl)
	}
	return selectInMerged(ix.col.dom, ix.rids, distinct, ix.equalRangeBatchIDs, ix.runs, ctl.Checkpoint())
}

// selectInGrouped answers the pre-deduplicated IN-list single-threaded with
// per-value group offsets, the admission shape the result cache's
// subset/superset reuse needs.  Output rows are identical to SelectIn's.
func (ix *SortedIndex) selectInGrouped(distinct []uint32, cp *governor.Checkpoint) (out, goff []uint32, err error) {
	return selectInGrouped(ix.col.dom, ix.rids, distinct, ix.equalRangeBatchIDs, ix.runs, true, cp)
}

// selectInRIDs is the shared IN-list driver: deduped values are translated
// and probed in chunks (forEachEqualRange), gathering rids[first:last] per
// present value.  Lists large enough for the worker options are split into
// contiguous spans probed concurrently — probe is required to be safe for
// concurrent use — and the per-span results concatenate in span order, so
// the output is identical at every worker count.  A governed call (non-nil
// ctl) observes cancellation and the byte budget at chunk boundaries, each
// worker through its own Checkpoint.
func selectInRIDs(dom *domain.IntDomain, rids []uint32, values []uint32, probe func(ids []uint32, first, last []int32), par parallel.Options, ctl *governor.Ctl) ([]uint32, error) {
	w := par.WorkersFor(len(values))
	span := func(vals []uint32, cp *governor.Checkpoint) ([]uint32, error) {
		var out []uint32
		err := forEachEqualRange(dom, vals, probe, cp, func(first, last int32) {
			out = append(out, rids[first:last]...)
			cp.Charge(4 * int64(last-first))
		})
		if err == nil {
			err = cp.Flush()
		}
		return out, err
	}
	if w <= 1 {
		return span(values, ctl.Checkpoint())
	}
	outs := make([][]uint32, w)
	errs := make([]error, w)
	body := func(t int) {
		lo, hi := parallel.Span(len(values), w, t)
		outs[t], errs[t] = span(values[lo:hi], ctl.Checkpoint())
	}
	var err error
	if ctl == nil {
		parallel.Do(w, len(values), par, body)
	} else {
		err = parallel.DoCtx(ctl.Context(), w, len(values), par, body)
	}
	for _, e := range errs {
		if err == nil && e != nil {
			err = e
		}
	}
	if err != nil {
		return nil, err
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]uint32, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, nil
}

// dedupeValues keeps the first occurrence of each value, preserving order.
func dedupeValues(values []uint32) []uint32 {
	seen := make(map[uint32]struct{}, len(values))
	out := make([]uint32, 0, len(values))
	for _, v := range values {
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	return out
}

// SelectRange returns the RIDs of rows with lo ≤ column ≤ hi, in (value,
// RID) order — base and delta rows interleaved exactly as a fully rebuilt
// index would order them.  Methods without ordered access return
// ErrNoOrderedAccess.
func (ix *SortedIndex) SelectRange(lo, hi uint32) ([]uint32, error) {
	rids, _, err := ix.rangeMerged(lo, hi, false)
	return rids, err
}

// rangeMerged is the one range path: the base segment resolved through the
// ordered surface, woven with the delta runs' clipped spans at read time
// (mergeRangeDelta) — O(result + delta-in-range), whatever the table size
// and however recent the last absorb.  wantKeys additionally returns the
// merged raw values: the cache's containment runs and every stitch gap
// probe want them, a bare SelectRange does not pay for them.
func (ix *SortedIndex) rangeMerged(lo, hi uint32, wantKeys bool) (rids, rawKeys []uint32, err error) {
	ord, ok := ix.idx.(cssidx.OrderedIndex)
	if !ok {
		return nil, nil, ErrNoOrderedAccess
	}
	if lo > hi {
		return nil, nil, nil
	}
	loID, hiID := ix.col.dom.IDRange(lo, hi)
	var first, last int
	if loID < hiID {
		first, last = ord.LowerBound(loID), ord.LowerBound(hiID)
	}
	rids, rawKeys = mergeRangeDelta(ix.col.dom, ix.keys, ix.rids, first, last, ix.runs, lo, hi, wantKeys)
	return rids, rawKeys, nil
}

// CountRange is SelectRange without materialising RIDs.
func (ix *SortedIndex) CountRange(lo, hi uint32) (int, error) {
	ord, ok := ix.idx.(cssidx.OrderedIndex)
	if !ok {
		return 0, ErrNoOrderedAccess
	}
	if lo > hi {
		return 0, nil
	}
	n := deltaCountRange(ix.runs, lo, hi)
	loID, hiID := ix.col.dom.IDRange(lo, hi)
	if loID < hiID {
		n += ord.LowerBound(hiID) - ord.LowerBound(loID)
	}
	return n, nil
}

// --- batched probing core ------------------------------------------------------

// probeScratch holds the reusable buffers of one batched probe stream; drawn
// from scratchPool per worker and grown to the chunk size, so concurrent
// join spans reuse buffers without sharing them.
type probeScratch struct {
	ids    []int32  // domain IDs per raw value (-1 = absent from the domain)
	probes []uint32 // compacted present IDs
	ord    []int32  // original ordinal within the chunk per compacted probe
	first  []int32
	last   []int32
}

// ensure sizes the scratch for chunks of up to n values.
func (s *probeScratch) ensure(n int) {
	if cap(s.ids) < n {
		s.ids = make([]int32, n)
		s.probes = make([]uint32, 0, n)
		s.ord = make([]int32, 0, n)
		s.first = make([]int32, n)
		s.last = make([]int32, n)
	}
}

// scratchPool recycles probeScratch across batched operations and workers.
var scratchPool = sync.Pool{New: func() any { return &probeScratch{} }}

func newProbeScratch(n int) *probeScratch {
	s := scratchPool.Get().(*probeScratch)
	s.ensure(n)
	return s
}

// probeEqualBatch probes the index with one chunk of raw values: the chunk is
// translated to domain IDs in one lockstep descent of the domain tree, the
// present IDs are compacted and answered by one batched equal-range probe
// (lockstep again for CSS methods, scalar loop for the rest), and emit is
// called per occurrence with the value's ordinal in the chunk and the
// matching row's RID.  Emission order matches the scalar path: chunk
// order, then ascending RID within a value's duplicates (base rows before
// delta rows).
func (ix *SortedIndex) probeEqualBatch(values []uint32, s *probeScratch, emit func(ordinal int, rid uint32)) int {
	return probeEqualCore(ix.col.dom, values, s, ix.equalRangeBatchIDs, ix.rids, ix.runs, emit)
}

// probeEqualCore is the shared translate-compact-probe-emit driver behind
// every join prober: the chunk is translated to domain IDs in one lockstep
// descent, absent values are compacted away, the present IDs are answered by
// one batched equal-range call, and emit runs per occurrence in chunk order
// then ascending RID — base positions first, then the delta runs, whose
// RIDs all exceed the base's.  A negative first marks an absent probe (the
// hash-backed equal range); it contributes nothing.  Values absent from
// the frozen domain still probe the runs: the delta may hold values the
// dictionary has never seen.
func probeEqualCore(dom *domain.IntDomain, values []uint32, s *probeScratch, equalRange func(probes []uint32, first, last []int32), rids []uint32, runs []idxRun, emit func(ordinal int, rid uint32)) int {
	s.ensure(len(values))
	ids := s.ids[:len(values)]
	dom.IDsBatch(values, ids)
	s.probes = s.probes[:0]
	s.ord = s.ord[:0]
	for i, id := range ids {
		if id >= 0 {
			s.probes = append(s.probes, uint32(id))
			s.ord = append(s.ord, int32(i))
		}
	}
	if len(s.probes) == 0 && len(runs) == 0 {
		return 0
	}
	first := s.first[:len(s.probes)]
	last := s.last[:len(s.probes)]
	if len(s.probes) > 0 {
		equalRange(s.probes, first, last)
	}
	count := 0
	emitBase := func(j int, ordinal int) {
		f, l := first[j], last[j]
		if f < 0 {
			return
		}
		count += int(l - f)
		if emit != nil {
			for pos := f; pos < l; pos++ {
				emit(ordinal, rids[pos])
			}
		}
	}
	if len(runs) == 0 {
		for j := range s.probes {
			emitBase(j, int(s.ord[j]))
		}
		return count
	}
	j := 0
	for i, v := range values {
		if ids[i] >= 0 {
			emitBase(j, i)
			j++
		}
		for ri := range runs {
			f, l := runs[ri].equalRange(v)
			count += l - f
			if emit != nil {
				for k := f; k < l; k++ {
					emit(i, runs[ri].rids[k])
				}
			}
		}
	}
	return count
}

// selectInMerged is the delta-aware IN-list driver: per chunk one lockstep
// domain translation and one batched equal-range for the base, then per
// listed value the base RIDs followed by the runs' — the same value-grouped,
// ascending-RID output selectInRIDs produces against a rebuilt index.
func selectInMerged(dom *domain.IntDomain, rids []uint32, values []uint32, probe func(ids []uint32, first, last []int32), runs []idxRun, cp *governor.Checkpoint) ([]uint32, error) {
	out, _, err := selectInGrouped(dom, rids, values, probe, runs, false, cp)
	return out, err
}

// selectInGrouped is selectInMerged with group offsets: when wantGroups is
// set, goff[i] marks where value i's rows start in out (goff has
// len(values)+1 entries), which is what the cache's subset/superset reuse
// and per-group append patching need.  runs may be empty — the driver then
// degenerates to the pure-base batched probe with identical output to
// selectInRIDs at any worker count.  cp (nil = ungoverned) is consulted
// once per chunk and charged for the gathered rows.
func selectInGrouped(dom *domain.IntDomain, rids []uint32, values []uint32, probe func(ids []uint32, first, last []int32), runs []idxRun, wantGroups bool, cp *governor.Checkpoint) (out, goff []uint32, err error) {
	if len(values) == 0 {
		if wantGroups {
			goff = []uint32{0}
		}
		return nil, goff, nil
	}
	if wantGroups {
		goff = make([]uint32, 0, len(values)+1)
	}
	batch := cssidx.DefaultBatchSize
	if batch > len(values) {
		batch = len(values)
	}
	ids := make([]int32, batch)
	probes := make([]uint32, 0, batch)
	first := make([]int32, batch)
	last := make([]int32, batch)
	for base := 0; base < len(values); base += batch {
		end := base + batch
		if end > len(values) {
			end = len(values)
		}
		prevRows := len(out)
		chunk := values[base:end]
		dom.IDsBatch(chunk, ids[:len(chunk)])
		probes = probes[:0]
		for _, id := range ids[:len(chunk)] {
			if id >= 0 {
				probes = append(probes, uint32(id))
			}
		}
		if len(probes) > 0 {
			probe(probes, first[:len(probes)], last[:len(probes)])
		}
		j := 0
		for i, v := range chunk {
			if wantGroups {
				goff = append(goff, uint32(len(out)))
			}
			if ids[i] >= 0 {
				if f, l := first[j], last[j]; f >= 0 && f < l {
					out = append(out, rids[f:l]...)
				}
				j++
			}
			out = deltaEqualAppend(runs, v, out)
		}
		cp.Charge(4 * int64(len(out)-prevRows))
		if err := cp.TickN(len(chunk)); err != nil {
			return nil, nil, err
		}
	}
	if wantGroups {
		goff = append(goff, uint32(len(out)))
	}
	return out, goff, cp.Flush()
}

// equalRangeBatchIDs answers the equal range of every domain-ID probe:
// batched through the ordered surface when the method has one, or — for hash
// — batched leftmost-hit searches extended across each hit's duplicate run
// in the sorted key array (§3.6).
func (ix *SortedIndex) equalRangeBatchIDs(probes []uint32, first, last []int32) {
	if ix.bord != nil {
		ix.bord.EqualRangeBatch(probes, first, last)
		return
	}
	ix.batch.SearchBatch(probes, first)
	n := int32(len(ix.keys))
	for j, f := range first {
		e := f
		if f >= 0 {
			e++
			for e < n && ix.keys[e] == probes[j] {
				e++
			}
		}
		last[j] = e
	}
}

// forEachEqualRange drives the shared IN-list flow: values (pre-deduplicated)
// are translated to domain IDs in chunks of cssidx.DefaultBatchSize with one
// lockstep descent each, absent values are compacted away, present IDs are
// answered by one batched equal-range probe, and emit is called per value
// with its half-open position range.  cp (nil = ungoverned) is consulted
// once per chunk; on abort the error surfaces mid-stream and emitted values
// so far stand.
func forEachEqualRange(dom *domain.IntDomain, values []uint32, probe func(ids []uint32, first, last []int32), cp *governor.Checkpoint, emit func(first, last int32)) error {
	if len(values) == 0 {
		return nil
	}
	batch := cssidx.DefaultBatchSize
	if batch > len(values) {
		batch = len(values)
	}
	ids := make([]int32, batch)
	probes := make([]uint32, 0, batch)
	first := make([]int32, batch)
	last := make([]int32, batch)
	for base := 0; base < len(values); base += batch {
		end := base + batch
		if end > len(values) {
			end = len(values)
		}
		chunk := values[base:end]
		if err := cp.TickN(len(chunk)); err != nil {
			return err
		}
		dom.IDsBatch(chunk, ids[:len(chunk)])
		probes = probes[:0]
		for _, id := range ids[:len(chunk)] {
			if id >= 0 {
				probes = append(probes, uint32(id))
			}
		}
		if len(probes) == 0 {
			continue
		}
		probe(probes, first[:len(probes)], last[:len(probes)])
		for j := range probes {
			emit(first[j], last[j])
		}
	}
	return nil
}

// --- joins -------------------------------------------------------------------

// JoinIndex is an inner-index surface the nested-loop join can probe: a
// *SortedIndex, or a *ShardedIndex whose whole state (domain, RID list,
// shard snapshots) is frozen once per join so the join keeps serving —
// against one consistent epoch — while concurrent AppendRows publish new
// ones.
type JoinIndex interface {
	// joinFreeze captures the prober state the whole join runs against.
	joinFreeze() joinProber
}

// joinProber answers equality probes for join chunks against one frozen
// index state.  Implementations must be safe for concurrent probeEqual
// calls with distinct scratches.
type joinProber interface {
	// probeEqual probes one chunk of raw outer values and calls emit per
	// matching occurrence with the value's ordinal in the chunk and the
	// matching row's RID; it returns the number of occurrences.  Emission
	// order: chunk order, ascending RID within a value's duplicates (base
	// rows before delta rows).
	probeEqual(values []uint32, s *probeScratch, emit func(ordinal int, rid uint32)) int
	// cacheTag identifies the frozen inner state for result caching: a
	// fingerprint of the inner index identity and the single-counter
	// version (table state version or frozen epoch) this prober serves.
	// ok=false opts the join out of caching.
	cacheTag() (hash uint64, version uint64, ok bool)
}

// joinFreeze: a SortedIndex has no concurrent rebuilds to freeze against
// (Table.AppendRows rebuilds it in place, which was never safe to race);
// the index itself is the frozen state.
func (ix *SortedIndex) joinFreeze() joinProber { return ix }

func (ix *SortedIndex) probeEqual(values []uint32, s *probeScratch, emit func(ordinal int, rid uint32)) int {
	return ix.probeEqualBatch(values, s, emit)
}

// cacheTag: a SortedIndex inner is identified by its table and column and
// versioned by the table state version (AppendRows moves it in place,
// whether the batch folds or is absorbed).
func (ix *SortedIndex) cacheTag() (uint64, uint64, bool) {
	if ix.owner == nil {
		return 0, 0, false
	}
	h := qcache.HashString(qcache.HashString(qcache.HashSeed, ix.owner.name), ix.col.name)
	h = qcache.HashU32(h, uint32(qcache.LayerTable))
	return h, ix.owner.stateVer.Load(), true
}

// JoinOptions configures JoinWith.
type JoinOptions struct {
	// BatchSize is the probe chunk size: 0 = cssidx.DefaultBatchSize,
	// 1 = the scalar schedule.
	BatchSize int
	// Parallel tunes the worker pool fanning outer-row spans across cores.
	// The zero value is the default engine (GOMAXPROCS workers, sequential
	// below ~4k outer rows); Workers 1 forces the streaming sequential
	// path.
	Parallel cssidx.ParallelOptions
}

// Join performs the indexed nested-loop join of §2.2 with the default probe
// batch size; see JoinWith.
func Join(outer *Table, outerCol string, inner JoinIndex, emit func(outerRID, innerRID uint32)) (int, error) {
	return JoinWith(outer, outerCol, inner, JoinOptions{}, emit)
}

// JoinBatch is JoinWith with only the chunk size configured.
func JoinBatch(outer *Table, outerCol string, inner JoinIndex, batchSize int, emit func(outerRID, innerRID uint32)) (int, error) {
	return JoinWith(outer, outerCol, inner, JoinOptions{BatchSize: batchSize}, emit)
}

// JoinWith performs the indexed nested-loop join of §2.2, driving the inner
// index through the batched probe surface: outer rows are processed in
// chunks of BatchSize, each chunk is translated through the inner domain and
// probed with one lockstep descent, and emit is called for each matching
// (outerRID, innerRID) pair, in the same order as scalar probing.  It
// returns the number of result pairs.
//
// Outer spans large enough for the worker options run concurrently, each
// with its own pooled scratch, multiplying the lockstep kernel's
// memory-level parallelism by the core count.  On the sequential path (small
// outers, or Parallel.Workers 1) the join streams: emit runs as pairs are
// found and nothing is materialised.  On the parallel path each worker
// stages its span's pairs and emit runs span by span once all workers
// finish, so the emission order is identical — at the price of buffering the
// result pairs; pass Workers 1 when streaming matters more than cores.
//
// A *ShardedIndex inner is frozen once for the whole join (one table-level
// epoch, one snapshot per shard), so joins running concurrently with
// AppendRows see one consistent index state throughout.
//
// When the outer table has a result cache attached, the whole pair set is
// fingerprinted by (outer table+column, inner index identity) and stamped
// with the (outer generation, inner generation/epoch) pair: a repeat of
// the join against unchanged state replays the cached pairs through emit
// without probing.  Count-only joins (emit nil) consult the cache but
// never fill it, so they stay unbuffered; emitting joins fill it, which
// buffers the pairs even on the otherwise-streaming sequential path —
// disable the cache when streaming emission matters more than reuse.
func JoinWith(outer *Table, outerCol string, inner JoinIndex, opts JoinOptions, emit func(outerRID, innerRID uint32)) (int, error) {
	start := telemetry.Now()
	n, err := joinWith(nil, outer, outerCol, inner, opts, emit, nil)
	histJoinNs.Since(start)
	return n, err
}

// JoinWithTraced is JoinWith recording an EXPLAIN ANALYZE trace under tr's
// root span: cache outcome, worker fan-out, probe batch size and pair
// count.  tr may be nil.
func JoinWithTraced(outer *Table, outerCol string, inner JoinIndex, opts JoinOptions, emit func(outerRID, innerRID uint32), tr *telemetry.Trace) (int, error) {
	start := telemetry.Now()
	n, err := joinWith(nil, outer, outerCol, inner, opts, emit, tr.Root())
	histJoinNs.Since(start)
	tr.Finish()
	return n, err
}

// JoinWithCtx is JoinWith under governance: probe workers observe ctx's
// cancellation/deadline at chunk boundaries, staged pairs are charged
// against the context's budget, and on an attached admission controller
// the join enters as ClassSelect after a cache miss.  A cancelled join
// never fills the pair cache.  tr may be nil.
func JoinWithCtx(ctx context.Context, outer *Table, outerCol string, inner JoinIndex, opts JoinOptions, emit func(outerRID, innerRID uint32), tr *telemetry.Trace) (int, error) {
	start := telemetry.Now()
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		return 0, abortEntry(tr, err)
	}
	n, err := joinWith(ctl, outer, outerCol, inner, opts, emit, tr.Root())
	histJoinNs.Since(start)
	tr.Finish()
	if err != nil {
		governor.NoteAbort(err)
	}
	return n, err
}

func joinWith(ctl *governor.Ctl, outer *Table, outerCol string, inner JoinIndex, opts JoinOptions, emit func(outerRID, innerRID uint32), sp *telemetry.Span) (int, error) {
	col, ok := outer.cols[outerCol]
	if !ok {
		return 0, fmt.Errorf("mmdb: no column %s in table %s", outerCol, outer.name)
	}
	sp.Attr("outer", outer.name).Attr("outer_col", outerCol)
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = cssidx.DefaultBatchSize
	}
	if batchSize > len(col.raw) && len(col.raw) > 0 {
		batchSize = len(col.raw)
	}
	p := inner.joinFreeze()

	qc := outer.Cache()
	var jkey qcache.Key
	var jtok qcache.Token
	cacheable := false
	if qc.Enabled() {
		if h, version, ok := p.cacheTag(); ok {
			cs := sp.Child("cache")
			jkey = qcache.Key{Table: outer.name, Col: outerCol, Kind: qcache.KindJoin, Hash: h}
			jtok = qcache.Token{Gen: outer.stateVer.Load(), Epoch: version}
			if emit == nil {
				if n, ok := qc.LookupPairCount(jkey, jtok); ok {
					cs.Attr("outcome", "hit").AttrInt("pairs", n)
					cs.End()
					return n, nil
				}
			} else if a, b, ok := qc.LookupPair(jkey, jtok); ok {
				for i := range a {
					emit(a[i], b[i])
				}
				cs.Attr("outcome", "hit").AttrInt("pairs", len(a))
				cs.End()
				return len(a), nil
			}
			cs.Attr("outcome", "miss")
			cs.End()
			cacheable = emit != nil
		}
	}
	release, aerr := outer.admit(ctl, governor.ClassSelect, 4*int64(len(col.raw)))
	if aerr != nil {
		sp.Attr("aborted", aerr.Error())
		return 0, aerr
	}
	defer release()
	ex := sp.Child("execute")
	start := time.Now()
	nRows := len(col.raw)
	par := parallel.Options{Workers: opts.Parallel.Workers, MinBatchPerWorker: opts.Parallel.MinBatchPerWorker}
	w := par.WorkersFor(nRows)
	ex.Attr("path", "indexed-nested-loop").AttrInt("outer_rows", nRows).AttrInt("batch", batchSize).AttrInt("workers", w)

	// joinSpan probes rows [lo, hi) in chunks, emitting through spanEmit;
	// a governed join pays one checkpoint consult per chunk and charges
	// the budget 8 bytes per staged pair.
	joinSpan := func(lo, hi int, cp *governor.Checkpoint, spanEmit func(outerRID, innerRID uint32)) (int, error) {
		s := newProbeScratch(batchSize)
		defer scratchPool.Put(s)
		count := 0
		for base := lo; base < hi; base += batchSize {
			end := base + batchSize
			if end > hi {
				end = hi
			}
			chunkBase := base
			var chunkEmit func(ordinal int, rid uint32)
			if spanEmit != nil {
				chunkEmit = func(ordinal int, rid uint32) {
					spanEmit(uint32(chunkBase+ordinal), rid)
				}
			}
			n := p.probeEqual(col.raw[base:end], s, chunkEmit)
			count += n
			cp.Charge(8 * int64(n))
			if err := cp.TickN(end - base); err != nil {
				return count, err
			}
		}
		if err := cp.Flush(); err != nil {
			return count, err
		}
		return count, nil
	}

	type pair struct{ outer, inner uint32 }
	var bufs [][]pair
	count := 0
	switch {
	case w <= 1 && !cacheable:
		n, err := joinSpan(0, nRows, ctl.Checkpoint(), emit)
		if err != nil {
			ex.Attr("aborted", err.Error())
			ex.End()
			return 0, err
		}
		ex.AttrInt("pairs", n)
		ex.End()
		return n, nil
	case w <= 1:
		var err error
		bufs = make([][]pair, 1)
		count, err = joinSpan(0, nRows, ctl.Checkpoint(), func(o, i uint32) { bufs[0] = append(bufs[0], pair{o, i}) })
		if err != nil {
			ex.Attr("aborted", err.Error())
			ex.End()
			return 0, err
		}
	default:
		counts := make([]int, w)
		errs := make([]error, w)
		if emit != nil || cacheable {
			bufs = make([][]pair, w)
		}
		body := func(t int) {
			lo, hi := parallel.Span(nRows, w, t)
			var spanEmit func(outerRID, innerRID uint32)
			if bufs != nil {
				spanEmit = func(o, i uint32) { bufs[t] = append(bufs[t], pair{o, i}) }
			}
			counts[t], errs[t] = joinSpan(lo, hi, ctl.Checkpoint(), spanEmit)
		}
		var err error
		if ctl == nil {
			parallel.Do(w, nRows, par, body)
		} else {
			err = parallel.DoCtx(ctl.Context(), w, nRows, par, body)
		}
		for _, e := range errs {
			if err == nil && e != nil {
				err = e
			}
		}
		if err != nil {
			ex.Attr("aborted", err.Error())
			ex.End()
			return 0, err
		}
		for _, c := range counts {
			count += c
		}
	}
	ex.AttrInt("pairs", count)
	ex.End()
	// A pair set admission would reject anyway (oversized for the cache)
	// is not worth staging a second copy of.
	if cacheable && qcache.EntryBytesForPairs(count) > qc.MaxEntryBytes() {
		cacheable = false
	}
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
		ad := sp.Child("admit")
		qc.InsertPair(jkey, jtok, cacheOuter, cacheInner, joinRecomputeCost(time.Since(start), nRows, count))
		ad.End()
	}
	return count, nil
}

// --- batch updates -------------------------------------------------------------

// AppendRows appends a batch of rows: newCols must supply every column with
// equal-length slices.  Small batches are *absorbed* into the delta layer —
// sorted per-index runs over the appended rows, served merged with the base
// by every read surface (delta.go) — so an append stream stops paying a
// full O(n) rebuild per batch.  Once the delta reaches the AppendPolicy
// threshold (or the policy disables absorption), the batch *folds*: domains
// and ID encodings are rebuilt (domain IDs are ranks, so inserting new
// distinct values renumbers them) and every registered index is rebuilt
// from scratch — the paper's OLAP position: "in a main-memory system, it
// may be relatively cheap to rebuild an index from scratch after a batch
// of updates."
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
	batch, err := t.validateBatch(newCols)
	if err != nil {
		return err
	}
	// Last cancellation point: past here the batch lands atomically.
	if err := ctl.Err(); err != nil {
		return err
	}
	if batch == 0 || t.appendPol.shouldFold(t.rows-t.baseRows+batch, t.baseRows) {
		t.foldRows(newCols, batch)
	} else {
		t.absorbRows(newCols, batch)
	}
	return nil
}

// validateBatch checks an AppendRows batch supplies every column with
// equal-length slices and returns the batch row count.
func (t *Table) validateBatch(newCols map[string][]uint32) (int, error) {
	if len(t.cols) == 0 {
		return 0, errors.New("mmdb: table has no columns")
	}
	var batch int
	for i, name := range t.order {
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

// foldRows is the full-rebuild path: encodings, indexes and sharded epochs
// are reconstructed over all rows (clearing any outstanding delta runs),
// the generation moves, and the table's cached entries are swept.
func (t *Table) foldRows(newCols map[string][]uint32, batch int) {
	for _, name := range t.order {
		c := t.cols[name]
		c.raw = append(c.raw, newCols[name]...)
		c.dom, c.ids = domain.BuildInt(c.raw)
	}
	t.rows += batch
	t.baseRows = t.rows
	for _, ix := range t.indexes {
		ix.rebuild()
	}
	for _, ix := range t.sharded {
		ix.rebuild()
	}
	// Generation invalidation: move the token, then sweep this table's
	// entries.  Readers never block — a concurrent sharded reader still
	// holding the previous epoch simply stops matching, and any entry it
	// inserts late is stamped with the old epoch and reaped at its next
	// access.
	t.gen.Add(1)
	t.stateVer.Add(1)
	t.Cache().DropTable(t.name)
}

// absorbRows is the delta path: raw columns grow, the frozen encodings do
// not, and each index absorbs the batch as one sorted run (sharded indexes
// publish a new epoch sharing the base arrays).  Instead of dropping the
// table's cached entries, the move from the old token to the new one is a
// PatchAppend sweep: entries whose key domain misses the batch are carried
// across untouched, intersecting ones are extended with the qualifying
// appended rows, and only the kinds that cannot be patched drop.
func (t *Table) absorbRows(newCols map[string][]uint32, batch int) {
	startRID := uint32(t.rows)
	oldTok := t.token()
	var oldUIDs map[string]uint64
	if len(t.sharded) > 0 {
		oldUIDs = make(map[string]uint64, len(t.sharded))
		for col, six := range t.sharded {
			oldUIDs[col] = six.cur.Load().uid
		}
	}
	for _, name := range t.order {
		c := t.cols[name]
		c.raw = append(c.raw, newCols[name]...)
	}
	t.rows += batch
	for col, ix := range t.indexes {
		ix.absorb(newCols[col], startRID)
	}
	for col, six := range t.sharded {
		six.absorb(newCols[col], startRID)
	}
	t.deltaSeq.Add(1)
	t.stateVer.Add(1)
	if qc := t.Cache(); qc.Enabled() {
		qc.PatchAppend(qcache.AppendPatch{
			Table: t.name, Layer: qcache.LayerTable,
			OldTok: oldTok, NewTok: t.token(),
			StartRID: startRID, Cols: newCols,
		})
		for col, six := range t.sharded {
			qc.PatchAppend(qcache.AppendPatch{
				Table: t.name, Layer: qcache.LayerEpoch, Col: col,
				OldTok:   qcache.Token{Epoch: oldUIDs[col]},
				NewTok:   qcache.Token{Epoch: six.cur.Load().uid},
				StartRID: startRID, Cols: newCols,
			})
		}
	}
}

package qcache

// Delta revalidation.  When a table absorbs an append batch into its delta
// layer instead of rebuilding, the previously cached results are not all
// garbage: a range whose bounds miss every appended value is still the
// exact answer under the new epoch, and a range that does intersect can be
// fixed by merging in the few qualifying rows — recomputing it would walk
// the whole index to rediscover everything it already holds.  PatchAppend
// is that sweep: one pass over the affected (table, layer) entries that
// carries each one across the epoch individually instead of the old
// drop-the-table invalidation, so an append-heavy stream stops paying a
// full cache rebuild per batch.
//
// Per kind:
//
//   - KindRange with a key run: qualifying appended (value, RID) pairs are
//     merged into the run.  Appended RIDs all exceed resident RIDs, so the
//     merged payload is exactly what recomputing against base ∪ delta
//     would produce.
//   - KindRange in row order (nil key run): qualifying RIDs are appended —
//     row order is ascending-RID order and appended RIDs are larger.
//   - KindIn with group offsets (index-path results): qualifying appended
//     rows are spliced into their value groups — appended RIDs exceed all
//     resident ones, so appending at a group's end preserves the
//     ascending-RID-within-value order a recompute would produce.
//   - KindIn without groups (scan/parallel path): carried over when no
//     appended value is in the list; a hit inside a value group would have
//     to splice mid-result, which needs offsets the entry does not keep,
//     so it drops.
//   - KindWhere with conjunct bounds: appended rows are qualified against
//     the whole conjunction and the survivors appended.
//   - KindAgg over all rows: the appended (group, measure) pairs fold into
//     the sorted group list — aggregates commute, so the merge equals a
//     recompute.  Over an explicit RID set the entry is retokened
//     unchanged: appends never mutate existing rows.
//   - KindJoin: dropped — a join result can grow with any appended inner
//     or outer row and the entry cannot tell.
//
// Entries are immutable after insert (readers copy payloads outside the
// stripe lock), so a patch REPLACES the entry rather than editing it; the
// old entry becomes a dead ring husk exactly as invalidation leaves one.

import (
	"sort"

	"cssidx/internal/sortu32"
)

// PredBound is one conjunct of a cached KindWhere entry: the raw closed
// bounds its rows satisfy on one column.
type PredBound struct {
	Col    string
	Lo, Hi uint32
}

// AppendPatch describes one absorbed append batch to revalidate against.
type AppendPatch struct {
	Table string
	Layer Layer
	// Col restricts the sweep to one column's entries; "" sweeps every
	// column of the layer.  Epoch-layer callers patch per indexed column.
	Col string
	// OldTok is the token the surviving entries currently carry; NewTok is
	// the token they carry after the patch.  Entries with tokens older than
	// OldTok are removed (stragglers), newer ones are left alone.
	OldTok, NewTok Token
	// StartRID is the row ID of the first appended row: appended row i has
	// RID StartRID+i.
	StartRID uint32
	// Cols holds the appended raw values per column, row-aligned.  A kind
	// that needs a column missing here drops its entries instead.
	Cols map[string][]uint32
}

// PatchAppend revalidates the cached results of one (table, layer) across
// an absorbed append: every entry stamped OldTok is retokened, extended,
// or dropped per its kind (see the package comment above); entries with
// provably older tokens are dropped.  Safe to call concurrently with
// lookups and inserts — the sweep holds one stripe lock at a time.
func (c *Cache) PatchAppend(p AppendPatch) {
	if !c.Enabled() {
		return
	}
	// Sort each batch column's (value, RID) pairs once up front: patchOne
	// then finds an entry's qualifying rows by binary search instead of
	// scanning the whole batch per entry, so a sweep over many resident
	// entries costs O(entries·log batch + qualifying), not O(entries·batch).
	// The radix pair sort is stable: equal values keep append order, i.e.
	// ascending RID — the invariant every splice below relies on.
	sorted := make(map[string]sortedBatch, len(p.Cols))
	for col, vals := range p.Cols {
		sk := append([]uint32(nil), vals...)
		sr := make([]uint32, len(vals))
		for i := range sr {
			sr[i] = p.StartRID + uint32(i)
		}
		sortu32.SortPairs(sk, sr)
		sorted[col] = sortedBatch{keys: sk, rids: sr}
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		// Collect first: patching replaces map entries mid-iteration.
		var sweep []*entry
		for k, e := range st.m {
			if k.Table == p.Table && k.Layer == p.Layer && (p.Col == "" || k.Col == p.Col) {
				sweep = append(sweep, e)
			}
		}
		for _, e := range sweep {
			if e.dead {
				continue // superseded by an earlier patch's link this sweep
			}
			switch {
			case e.tok == p.OldTok:
				if st.patchOne(e, p, sorted, c) {
					st.stats.Patches++
				} else {
					st.remove(e, c)
					st.stats.Invalidations++
				}
			case olderOrEqual(e.tok, p.OldTok):
				st.remove(e, c)
				st.stats.Invalidations++
			}
		}
		if len(st.ring) > 4*st.live+64 {
			st.compactRing()
		}
		st.mu.Unlock()
	}
}

// sortedBatch is one batch column's (value, RID) pairs sorted by value —
// equal values keep append order, so RIDs ascend within a value.
type sortedBatch struct {
	keys, rids []uint32
}

// patchOne builds the entry's successor under NewTok and swaps it in, or
// reports false when the entry cannot be carried across the append.  The
// caller holds the stripe lock and removes the entry on false; sorted holds
// the batch columns presorted by value (see PatchAppend).
func (st *stripe) patchOne(e *entry, p AppendPatch, sorted map[string]sortedBatch, c *Cache) bool {
	ne := &entry{key: e.key, tok: p.NewTok, lo: e.lo, hi: e.hi, cost: e.cost, ref: e.ref}
	switch e.key.Kind {
	case KindRange:
		sb, ok := sorted[e.key.Col]
		if !ok {
			return false
		}
		f := sort.Search(len(sb.keys), func(i int) bool { return sb.keys[i] >= e.lo })
		l := sort.Search(len(sb.keys), func(i int) bool { return sb.keys[i] > e.hi })
		qKeys, qRids := sb.keys[f:l], sb.rids[f:l]
		switch {
		case len(qKeys) == 0:
			// No appended row lands in the bounds: same answer, new epoch.
			ne.keys, ne.rids = e.keys, e.rids
		case e.keys != nil:
			ne.keys, ne.rids = mergePairs(e.keys, e.rids, qKeys, qRids)
		default:
			// Row-order entry: qualifying RIDs append in ascending-RID
			// order, which the value sort scrambled.
			qr := append([]uint32(nil), qRids...)
			sort.Slice(qr, func(i, j int) bool { return qr[i] < qr[j] })
			ne.rids = concatU32(e.rids, qr)
		}
	case KindIn:
		sb, ok := sorted[e.key.Col]
		if !ok || e.vals == nil {
			return false
		}
		if e.goff != nil {
			// Grouped entry: splice qualifying appended rows into their
			// value groups.  adds[g] collects group g's new RIDs in append
			// order — ascending, and above every resident RID.
			var adds map[uint32][]uint32
			total := 0
			for pos, v := range e.vals {
				f := sort.Search(len(sb.keys), func(j int) bool { return sb.keys[j] >= v })
				for j := f; j < len(sb.keys) && sb.keys[j] == v; j++ {
					if adds == nil {
						adds = make(map[uint32][]uint32)
					}
					g := e.s2g[pos]
					adds[g] = append(adds[g], sb.rids[j])
					total++
				}
			}
			ne.vals, ne.s2g = e.vals, e.s2g
			if total == 0 {
				ne.rids, ne.goff = e.rids, e.goff
				break
			}
			groups := len(e.goff) - 1
			rids := make([]uint32, 0, len(e.rids)+total)
			goff := make([]uint32, groups+1)
			for g := 0; g < groups; g++ {
				goff[g] = uint32(len(rids))
				rids = append(rids, e.rids[e.goff[g]:e.goff[g+1]]...)
				rids = append(rids, adds[uint32(g)]...)
			}
			goff[groups] = uint32(len(rids))
			ne.rids, ne.goff = rids, goff
			break
		}
		for _, v := range e.vals {
			j := sort.Search(len(sb.keys), func(i int) bool { return sb.keys[i] >= v })
			if j < len(sb.keys) && sb.keys[j] == v {
				return false
			}
		}
		ne.vals, ne.rids = e.vals, e.rids
	case KindWhere:
		if len(e.preds) == 0 {
			return false
		}
		n := -1
		for _, pb := range e.preds {
			col, ok := p.Cols[pb.Col]
			if !ok {
				return false
			}
			n = len(col)
		}
		var qRids []uint32
	rows:
		for i := 0; i < n; i++ {
			for _, pb := range e.preds {
				if v := p.Cols[pb.Col][i]; v < pb.Lo || v > pb.Hi {
					continue rows
				}
			}
			qRids = append(qRids, p.StartRID+uint32(i))
		}
		ne.preds = e.preds
		if len(qRids) == 0 {
			ne.rids = e.rids
		} else {
			ne.rids = concatU32(e.rids, qRids)
		}
	case KindAgg:
		ne.aggMeasure, ne.aggAll = e.aggMeasure, e.aggAll
		if !e.aggAll {
			// Explicit source rows: appended rows are not among them and
			// existing rows never change, so the result carries as-is.
			ne.aggs = e.aggs
			break
		}
		gvals, ok := p.Cols[e.key.Col]
		mvals, ok2 := p.Cols[e.aggMeasure]
		if !ok || !ok2 {
			return false
		}
		ne.aggs = mergeAggAppend(e.aggs, gvals, mvals)
	default: // KindJoin and anything unrecognised
		return false
	}
	ne.bytes = payloadBytes(ne)
	if e.inID != 0 {
		// The successor lists the same values: the column index's postings
		// stay as they are, and remove below leaves them alone.
		st.inIdx[e.key.column()].inherit(e, ne)
	}
	st.remove(e, c)
	if !st.evictFor(ne.bytes, c) {
		st.unlinkIn(ne)
		return false
	}
	st.m[ne.key] = ne
	st.link(ne, c)
	st.ring = append(st.ring, ne)
	st.bytes += ne.bytes
	st.live++
	st.stats.Entries++
	st.stats.Bytes += ne.bytes
	return true
}

// mergePairs merges two (key, RID) pair runs each sorted by (key, RID)
// into a fresh pair of slices; a-pairs win ties, which is (key, RID) order
// whenever every b-RID exceeds every a-RID (the append invariant).
func mergePairs(ak, ar, bk, br []uint32) (keys, rids []uint32) {
	keys = make([]uint32, 0, len(ak)+len(bk))
	rids = make([]uint32, 0, len(ar)+len(br))
	i, j := 0, 0
	for i < len(ak) && j < len(bk) {
		if ak[i] <= bk[j] {
			keys, rids = append(keys, ak[i]), append(rids, ar[i])
			i++
		} else {
			keys, rids = append(keys, bk[j]), append(rids, br[j])
			j++
		}
	}
	keys = append(append(keys, ak[i:]...), bk[j:]...)
	rids = append(append(rids, ar[i:]...), br[j:]...)
	return keys, rids
}

// concatU32 returns a fresh a ++ b.
func concatU32(a, b []uint32) []uint32 {
	return append(append(make([]uint32, 0, len(a)+len(b)), a...), b...)
}

// mergeAggAppend folds the appended rows' (group value, measure) pairs
// into a value-sorted aggregate slice, producing a fresh slice — exactly
// what recomputing the whole-table aggregate over base ∪ delta yields,
// because COUNT/SUM/MIN/MAX commute with row order.
func mergeAggAppend(aggs []AggRow, gvals, mvals []uint32) []AggRow {
	// Aggregate the batch by group value first (batches are small).
	gv := append([]uint32(nil), gvals...)
	mv := append([]uint32(nil), mvals...)
	sortu32.SortPairs(gv, mv)
	delta := make([]AggRow, 0, len(gv))
	for i := 0; i < len(gv); {
		r := AggRow{Value: gv[i], Count: 1, Sum: uint64(mv[i]), Min: mv[i], Max: mv[i]}
		for i++; i < len(gv) && gv[i] == r.Value; i++ {
			v := mv[i]
			if v < r.Min {
				r.Min = v
			}
			if v > r.Max {
				r.Max = v
			}
			r.Count++
			r.Sum += uint64(v)
		}
		delta = append(delta, r)
	}
	out := make([]AggRow, 0, len(aggs)+len(delta))
	i, j := 0, 0
	for i < len(aggs) && j < len(delta) {
		switch {
		case aggs[i].Value < delta[j].Value:
			out = append(out, aggs[i])
			i++
		case aggs[i].Value > delta[j].Value:
			out = append(out, delta[j])
			j++
		default:
			r := aggs[i]
			d := delta[j]
			if d.Min < r.Min {
				r.Min = d.Min
			}
			if d.Max > r.Max {
				r.Max = d.Max
			}
			r.Count += d.Count
			r.Sum += d.Sum
			out = append(out, r)
			i, j = i+1, j+1
		}
	}
	out = append(append(out, aggs[i:]...), delta[j:]...)
	return out
}

package qcache

// Refresh on touch.  A cached result is the answer over rows [0, mark) of
// one fold generation (Token), and appends never change existing rows — so an
// absorbed append leaves every resident entry exactly as right as it was,
// about fewer rows, and costs the cache nothing.  The price is paid where the
// benefit is: when a lookup picks an entry to answer from and the reader
// covers more rows, current brings that one entry up to the reader's rows from
// the tail [mark, reader's rows) — read through the views the reader carries —
// and swaps the successor in.  An entry nobody asks for again is never touched
// again; it ages out by CLOCK or dies at the fold.
//
// Per kind (extend):
//
//   - KindRange with a key run: the tail's qualifying (value, RID) pairs are
//     merged into the run.  Tail RIDs all exceed resident RIDs, so the merged
//     payload is exactly what recomputing over the reader's rows would
//     produce.
//   - KindRange in row order (nil key run): qualifying RIDs are appended —
//     row order is ascending-RID order and tail RIDs are larger.
//   - KindIn with group offsets (index-path results): each listed value's
//     tail rows are appended to its group — ascending RID within a value, as
//     a recompute would order them.
//   - KindIn without groups (scan/parallel path): carried over when no tail
//     row holds a listed value; a hit inside a value group would have to
//     splice mid-result, which needs offsets the entry does not keep, so it
//     drops.
//   - KindWhere with conjunct bounds: tail rows are qualified against the
//     whole conjunction and the survivors appended.
//   - KindAgg over all rows: the tail's (group, measure) pairs fold into the
//     sorted group list — aggregates commute, so the merge equals a
//     recompute.  Over an explicit RID set the entry is re-stamped unchanged.
//   - KindJoin, and any kind whose reader lacks the view or column it needs:
//     dropped.
//
// Entries are immutable after insert (readers read payloads outside the
// stripe lock), so the successor REPLACES the entry rather than editing it;
// the old entry becomes a dead ring husk exactly as invalidation leaves one.
// The successor keeps the plans the entry was stored with: an absorb leaves
// the frozen domain, and so every selectivity, as it was.

import "cssidx/internal/sortu32"

// PredBound is one conjunct of a cached KindWhere entry: the raw closed
// bounds its rows satisfy on one column, and the conjunct's plan.
type PredBound struct {
	Col    string
	Lo, Hi uint32
	Plan   Plan
}

// Reader is the state a lookup is asked against: its token, and the views of
// the rows at or past a staler entry's mark that bring such an entry current.
// The views are called under a stripe lock: they must only read state frozen
// for the reader and never call back into the cache.  A nil view drops the
// entries that need it.
type Reader struct {
	Tok Token
	// Runs is the entry column's delta runs — the index-path view, whose cost
	// follows the qualifying rows, not the appended ones.
	Runs RunTail
	// Rows is the table's raw appended rows — the scan-path view, for the
	// kinds whose own compute path is a scan of the whole table.
	Rows RowTail
}

// RunTail reads one column's rows at or past a mark out of sorted delta runs.
type RunTail interface {
	// Pairs returns the (value, RID) pairs with lo ≤ value ≤ hi and
	// RID ≥ mark, in (value, RID) order.
	Pairs(lo, hi, mark uint32) (vals, rids []uint32)
	// Equal appends the RIDs ≥ mark of the rows equal to v, ascending.
	Equal(v, mark uint32, out []uint32) []uint32
}

// RowTail reads the raw rows at or past a mark.
type RowTail interface {
	// Column returns col's raw values for rows [mark, the reader's rows), or
	// false when there is no such column.
	Column(col string, mark uint32) ([]uint32, bool)
}

// Current is the tail count of a hit whose entry already covered the
// reader's rows: nothing was merged because nothing was missing.
const Current = -1

// current is the step every lookup takes with the entry it picked to answer
// from: it returns e brought current for rd, with one more CLOCK life, and
// how many tail rows that merged (Current when e already covered the reader's
// rows) — e itself, its successor swapped in and counted in Patches, or nil
// after removing an entry that cannot be carried (counted in Invalidations).
// The caller holds the stripe lock and has checked e.tok.serves(rd.Tok).
func (st *stripe) current(e *entry, rd Reader, c *Cache) (*entry, int) {
	tail := Current
	if e.tok.Epoch != rd.Tok.Epoch {
		ne, merged, ok := extend(e, rd)
		if ok {
			ne.bytes = payloadBytes(ne)
			if e.inID != 0 {
				// The successor lists the same values: the column index's
				// postings stay as they are, and remove leaves them alone.
				st.inIdx[e.key.column()].inherit(e, ne)
			}
			st.remove(e, c)
			if ok = st.evictFor(ne.bytes, c); !ok {
				st.unlinkIn(ne)
			}
		}
		if !ok {
			st.remove(e, c)
			st.stats.Invalidations++
			return nil, Current
		}
		st.admit(ne, c)
		st.stats.Patches++
		e, tail = ne, merged
	}
	if e.ref < 3 {
		e.ref++
	}
	return e, tail
}

// extend builds e's successor over the reader's rows, and reports how many
// tail rows it merged; ok is false when the entry cannot be carried.  The
// successor shares every payload slice the tail leaves unchanged.
func extend(e *entry, rd Reader) (ne *entry, merged int, ok bool) {
	mark := uint32(e.tok.Epoch)
	ne = new(entry)
	*ne = *e
	ne.tok = rd.Tok
	preds := e.preds
	switch e.key.Kind {
	case KindRange:
		if e.ordered {
			if rd.Runs == nil {
				return nil, 0, false
			}
			qKeys, qRids := rd.Runs.Pairs(e.lo, e.hi, mark)
			if merged = len(qKeys); merged > 0 {
				ne.keys, ne.rids = sortu32.MergePairs(e.keys, e.rids, qKeys, qRids)
			}
			break
		}
		// A row-order range is a conjunction of one.
		preds = []PredBound{{Col: e.key.Col, Lo: e.key.Lo, Hi: e.key.Hi}}
		fallthrough
	case KindWhere:
		if len(preds) == 0 {
			return nil, 0, false
		}
		cols := make([][]uint32, len(preds))
		for i, pb := range preds {
			if cols[i], ok = rd.column(pb.Col, mark); !ok {
				return nil, 0, false
			}
		}
		var qRids []uint32
	rows:
		for r := range cols[0] {
			for i, pb := range preds {
				if v := cols[i][r]; v < pb.Lo || v > pb.Hi {
					continue rows
				}
			}
			qRids = append(qRids, mark+uint32(r))
		}
		ne.rids, merged = concatU32(e.rids, qRids), len(qRids)
	case KindIn:
		if e.vals == nil || (e.goff == nil && rd.listed(e, mark)) || (e.goff != nil && rd.Runs == nil) {
			return nil, 0, false
		}
		if e.goff == nil {
			break // ungrouped and no tail row holds a listed value: carried as-is
		}
		// Grouped entry: adds[g] collects group g's tail RIDs — ascending, and
		// above every resident RID.
		var adds map[uint32][]uint32
		for pos, v := range e.vals {
			if q := rd.Runs.Equal(v, mark, nil); len(q) > 0 {
				if adds == nil {
					adds = make(map[uint32][]uint32)
				}
				adds[e.s2g[pos]] = q
				merged += len(q)
			}
		}
		if merged == 0 {
			break
		}
		groups := len(e.goff) - 1
		ne.rids = make([]uint32, 0, len(e.rids)+merged)
		ne.goff = make([]uint32, groups+1)
		for g := 0; g < groups; g++ {
			ne.goff[g] = uint32(len(ne.rids))
			ne.rids = append(ne.rids, e.rids[e.goff[g]:e.goff[g+1]]...)
			ne.rids = append(ne.rids, adds[uint32(g)]...)
		}
		ne.goff[groups] = uint32(len(ne.rids))
	case KindAgg:
		if !e.aggAll {
			// Explicit source rows: tail rows are not among them and existing
			// rows never change, so the result carries as-is.
			break
		}
		gvals, ok := rd.column(e.key.Col, mark)
		mvals, ok2 := rd.column(e.aggMeasure, mark)
		if !ok || !ok2 {
			return nil, 0, false
		}
		ne.aggs, merged = mergeAggAppend(e.aggs, gvals, mvals), len(gvals)
	default: // KindJoin and anything unrecognised
		return nil, 0, false
	}
	return ne, merged, true
}

// column is Rows.Column, declining when the reader has no row view.
func (rd Reader) column(col string, mark uint32) ([]uint32, bool) {
	if rd.Rows == nil {
		return nil, false
	}
	return rd.Rows.Column(col, mark)
}

// listed reports whether any tail row holds a value an ungrouped IN entry
// lists (true also when the reader has no view to tell by): one membership
// search per tail row through the raw rows, else one run probe per value.
func (rd Reader) listed(e *entry, mark uint32) bool {
	if col, ok := rd.column(e.key.Col, mark); ok {
		for _, v := range col {
			if _, hit := findSorted(e.vals, v); hit {
				return true
			}
		}
		return false
	}
	if rd.Runs == nil {
		return true
	}
	var buf []uint32
	for _, v := range e.vals {
		if buf = rd.Runs.Equal(v, mark, buf[:0]); len(buf) > 0 {
			return true
		}
	}
	return false
}

// concatU32 returns a ++ b: a itself when b is empty (entries are immutable,
// so the successor may share it), else a fresh slice.
func concatU32(a, b []uint32) []uint32 {
	if len(b) == 0 {
		return a
	}
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

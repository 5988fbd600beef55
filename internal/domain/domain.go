// Package domain implements the ordered-domain storage scheme of §2.1: when
// data is loaded into the main-memory database, distinct column values are
// stored once, in sorted order, in an external structure (the domain), and
// columns hold small integer domain IDs in place of values.
//
// Going beyond [AHK85] exactly as the paper does, domains are kept *sorted*
// and IDs are ranks, so both equality and inequality predicates evaluate
// directly on IDs — a range predicate on values becomes an integer range
// test on IDs.  "Transforming domain values to domain IDs requires searching
// on the domain" (§2.2): that search is a level CSS-tree over the domain
// array, the very workload the paper optimises.
package domain

import (
	"slices"
	"sort"

	"cssidx/internal/csstree"
	"cssidx/internal/sortu32"
)

// IntDomain is a sorted dictionary of distinct uint32 values with
// rank-assigned IDs.
type IntDomain struct {
	values []uint32
	idx    *csstree.Tree
}

// BuildInt constructs the domain of column and returns it together with the
// column re-encoded as domain IDs (ids[i] is the rank of column[i]).
func BuildInt(column []uint32) (*IntDomain, []uint32) {
	values := make([]uint32, len(column))
	copy(values, column)
	sortu32.Sort(values)
	distinct := slices.Compact(values)
	// The domain lives as long as the column: do not let 64 distinct values
	// pin the n-element array they were deduped in.
	if len(distinct) < len(values) {
		distinct = append(make([]uint32, 0, len(distinct)), distinct...)
	}
	d := &IntDomain{
		values: distinct,
		idx:    csstree.BuildLevel(distinct, 16),
	}
	ids := make([]uint32, len(column))
	d.Encode(column, ids)
	return d, ids
}

// Encode stores the domain ID of values[i] into ids[i] (len(ids) must equal
// len(values)) through the lockstep batched translation, a chunk at a time
// so the position scratch stays cache-resident.  Every value must be in the
// domain.
func (d *IntDomain) Encode(values, ids []uint32) {
	var pos [encodeChunk]int32
	for base := 0; base < len(values); base += encodeChunk {
		chunk := values[base:min(base+encodeChunk, len(values))]
		d.IDsBatch(chunk, pos[:len(chunk)])
		for i, p := range pos[:len(chunk)] {
			if p < 0 {
				panic("domain: encoding a value the domain does not hold")
			}
			ids[base+i] = uint32(p)
		}
	}
}

// Extend returns the domain grown by added — ascending values, duplicates
// allowed, not retained — and the table that carries old IDs over:
// remap[oldID] is the ID the same value has in the grown domain.  IDs are
// ranks, so a new distinct value only shifts the IDs above it: remap is
// monotone, and re-encoding a column is one gather instead of a search per
// row.  When added brings no new value (every batch of a low-cardinality
// column) the result is d itself and a nil remap.  d is never modified:
// readers holding it keep a valid domain.
func (d *IntDomain) Extend(added []uint32) (*IntDomain, []uint32) {
	old := d.values
	// Count the values the domain lacks first, so the grown array is
	// allocated exactly (and nothing at all when there are none).
	fresh, i := 0, 0
	for j, v := range added {
		if j > 0 && v == added[j-1] {
			continue
		}
		for i < len(old) && old[i] < v {
			i++
		}
		if i == len(old) || old[i] != v {
			fresh++
		}
	}
	if fresh == 0 {
		return d, nil
	}
	values := make([]uint32, 0, len(old)+fresh)
	remap := make([]uint32, len(old))
	i = 0
	for j, v := range added {
		if j > 0 && v == added[j-1] {
			continue
		}
		for ; i < len(old) && old[i] < v; i++ {
			remap[i] = uint32(len(values))
			values = append(values, old[i])
		}
		if i == len(old) || old[i] != v {
			values = append(values, v)
		}
	}
	for ; i < len(old); i++ {
		remap[i] = uint32(len(values))
		values = append(values, old[i])
	}
	return &IntDomain{values: values, idx: csstree.BuildLevel(values, 16)}, remap
}

// encodeChunk is how many column values Encode translates per batched
// descent of the domain tree.
const encodeChunk = 1024

// ID returns the domain ID (rank) of value, and whether it is present.
func (d *IntDomain) ID(value uint32) (uint32, bool) {
	i := d.idx.Search(value)
	if i < 0 {
		return 0, false
	}
	return uint32(i), true
}

// IDsBatch translates a batch of values to domain IDs in one lockstep
// descent of the domain's CSS-tree: ids[i] receives the rank of values[i], or
// -1 when the value is not in the domain (len(ids) must equal len(values)).
// Since IDs are ranks, Search's leftmost position IS the ID.
func (d *IntDomain) IDsBatch(values []uint32, ids []int32) {
	d.idx.SearchBatch(values, ids)
}

// LowerBoundBatch stores into out[i] the number of distinct domain values
// < probes[i] (the rank lower bound) for a whole probe batch, answered by
// one lockstep descent of the domain's CSS-tree — the batched counterpart
// of the translation inside IDRange, for callers resolving many predicate
// bounds at once (len(out) must equal len(probes)).
func (d *IntDomain) LowerBoundBatch(probes []uint32, out []int32) {
	d.idx.LowerBoundBatch(probes, out)
}

// Value returns the value for a domain ID.
func (d *IntDomain) Value(id uint32) uint32 { return d.values[int(id)] }

// IDRange translates a closed value range [lo,hi] into a half-open ID range
// [loID,hiID): the §2.1 point that inequality predicates act on IDs
// directly.  An empty range yields loID == hiID.
func (d *IntDomain) IDRange(lo, hi uint32) (loID, hiID uint32) {
	l := d.idx.LowerBound(lo)
	var h int
	if hi == ^uint32(0) {
		h = len(d.values)
	} else {
		h = d.idx.LowerBound(hi + 1)
	}
	if h < l {
		h = l
	}
	return uint32(l), uint32(h)
}

// Len returns the number of distinct values.
func (d *IntDomain) Len() int { return len(d.values) }

// Values returns the sorted distinct values (read-only).
func (d *IntDomain) Values() []uint32 { return d.values }

// SpaceBytes returns the domain footprint: values plus the CSS directory.
func (d *IntDomain) SpaceBytes() int { return 4*len(d.values) + d.idx.SpaceBytes() }

// StringDomain is a sorted dictionary of distinct strings — the paper's
// "simplified handling of variable-length fields": columns store fixed-size
// IDs while the variable-length values live here once.
type StringDomain struct {
	values []string
}

// BuildString constructs the domain of a string column and the re-encoded
// ID column.
func BuildString(column []string) (*StringDomain, []uint32) {
	values := append([]string(nil), column...)
	sort.Strings(values)
	distinct := values[:0]
	for i, v := range values {
		if i == 0 || v != values[i-1] {
			distinct = append(distinct, v)
		}
	}
	d := &StringDomain{values: distinct}
	ids := make([]uint32, len(column))
	for i, v := range column {
		id, _ := d.ID(v)
		ids[i] = id
	}
	return d, ids
}

// ID returns the domain ID (rank) of value, and whether it is present.
func (d *StringDomain) ID(value string) (uint32, bool) {
	i := sort.SearchStrings(d.values, value)
	if i < len(d.values) && d.values[i] == value {
		return uint32(i), true
	}
	return 0, false
}

// Value returns the string for a domain ID.
func (d *StringDomain) Value(id uint32) string { return d.values[int(id)] }

// IDRange translates a closed string range [lo,hi] into a half-open ID
// range.
func (d *StringDomain) IDRange(lo, hi string) (loID, hiID uint32) {
	l := sort.SearchStrings(d.values, lo)
	h := sort.Search(len(d.values), func(i int) bool { return d.values[i] > hi })
	if h < l {
		h = l
	}
	return uint32(l), uint32(h)
}

// Len returns the number of distinct values.
func (d *StringDomain) Len() int { return len(d.values) }

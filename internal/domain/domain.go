// Package domain implements the ordered-domain storage scheme of §2.1:
// distinct column values are stored once, in sorted order, in an external
// structure (the domain), and a value's ID is its rank there.  A column may
// be re-encoded as the small integer IDs (BuildInt, Encode); for sorted
// values the IDs come from one walk over the domain (EncodeSorted), and a
// domain grows by a monotone ID remap (Extend).
//
// Going beyond [AHK85] exactly as the paper does, domains are kept *sorted*
// and IDs are ranks, so ID order is value order.  "Transforming domain
// values to domain IDs requires searching on the domain" (§2.2): that search
// is a level CSS-tree over the domain array, the very workload the paper
// optimises.
package domain

import (
	"slices"

	"cssidx/internal/csstree"
	"cssidx/internal/sortu32"
)

// IntDomain is a sorted dictionary of distinct uint32 values with
// rank-assigned IDs.
type IntDomain struct {
	values []uint32
	idx    *csstree.Tree
}

// NewInt constructs the domain of column: its distinct values, sorted, and
// the CSS-tree that searches them.  column is not retained.
func NewInt(column []uint32) *IntDomain {
	values := make([]uint32, len(column))
	copy(values, column)
	sortu32.Sort(values)
	distinct := slices.Compact(values)
	// The domain lives as long as the column: do not let 64 distinct values
	// pin the n-element array they were deduped in.
	if len(distinct) < len(values) {
		distinct = append(make([]uint32, 0, len(distinct)), distinct...)
	}
	return &IntDomain{
		values: distinct,
		idx:    csstree.BuildLevel(distinct, 16),
	}
}

// BuildInt constructs the domain of column and returns it together with the
// column re-encoded as domain IDs (ids[i] is the rank of column[i]).
func BuildInt(column []uint32) (*IntDomain, []uint32) {
	d := NewInt(column)
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
		// IDs are ranks, so Search's leftmost position is the ID.
		d.idx.SearchBatch(chunk, pos[:len(chunk)])
		for i, p := range pos[:len(chunk)] {
			if p < 0 {
				panic("domain: encoding a value the domain does not hold")
			}
			ids[base+i] = uint32(p)
		}
	}
}

// EncodeSorted stores the domain ID of sorted[i] into ids[i] (len(ids) must
// equal len(sorted); ids may be sorted itself).  The values must ascend, so
// their IDs do too: the translation is one forward walk over the domain's
// values, no tree search.  Every value must be in the domain.
func (d *IntDomain) EncodeSorted(sorted, ids []uint32) {
	id := 0
	for i, v := range sorted {
		for id < len(d.values) && d.values[id] < v {
			id++
		}
		if id == len(d.values) || d.values[id] != v {
			panic("domain: encoding a value the domain does not hold")
		}
		ids[i] = uint32(id)
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

// Value returns the value for a domain ID.
func (d *IntDomain) Value(id uint32) uint32 { return d.values[int(id)] }

// Len returns the number of distinct values.
func (d *IntDomain) Len() int { return len(d.values) }

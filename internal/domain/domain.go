// Package domain implements the ordered-domain storage scheme of §2.1:
// distinct column values are stored once, in sorted order, in an external
// structure (the domain), and a value's ID is its rank there.  Going beyond
// [AHK85] exactly as the paper does, domains are kept *sorted* and IDs are
// ranks, so ID order is value order.  "Transforming domain values to domain
// IDs requires searching on the domain" (§2.2) — unless the values arrive
// sorted: then their IDs come from one walk over the domain (EncodeSorted),
// and a domain grows by a monotone ID remap (Extend).  Every ID the engine
// assigns arrives that way, so a domain needs no search structure.
package domain

import "cssidx/internal/sortu32"

// IntDomain is a sorted dictionary of distinct uint32 values with
// rank-assigned IDs.
type IntDomain struct {
	values []uint32
}

// NewInt constructs the domain of the ascending values sorted (duplicates
// allowed, not retained): its distinct values in an exactly sized array.
func NewInt(sorted []uint32) *IntDomain {
	d, _ := new(IntDomain).Extend(sorted)
	return d
}

// BuildInt constructs the domain of column and returns it together with the
// column re-encoded as domain IDs (ids[i] is the rank of column[i]): one
// (value, row) pair sort, then one Rank walk down it.
func BuildInt(column []uint32) (*IntDomain, []uint32) {
	keys, rows := append([]uint32(nil), column...), make([]uint32, len(column))
	for i := range rows {
		rows[i] = uint32(i)
	}
	sortu32.SortPairs(keys, rows)
	ids := make([]uint32, len(column))
	Rank(keys, rows, ids, func(int) error { return nil })
	return NewInt(keys), ids
}

// Rank stores at ids[rows[i]] the rank of sorted[i] among sorted's distinct
// values — its domain ID, counted by one walk with no search — and calls
// tick after every rankChunk rows with the rows ranked; an error from tick
// stops the walk.  Rank returns the domain's size.
func Rank(sorted, rows, ids []uint32, tick func(rows int) error) (int, error) {
	id := uint32(0)
	for lo := 0; lo < len(sorted); lo += rankChunk {
		hi := min(lo+rankChunk, len(sorted))
		for i := lo; i < hi; i++ {
			if i > 0 && sorted[i] != sorted[i-1] {
				id++
			}
			ids[rows[i]] = id
		}
		if err := tick(hi - lo); err != nil {
			return 0, err
		}
	}
	return min(len(sorted), int(id)+1), nil
}

// rankChunk is how many rows Rank ranks between two calls of its tick.
const rankChunk = 4096

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
	return &IntDomain{values: values}, remap
}

// Value returns the value for a domain ID.
func (d *IntDomain) Value(id uint32) uint32 { return d.values[int(id)] }

// Len returns the number of distinct values.
func (d *IntDomain) Len() int { return len(d.values) }

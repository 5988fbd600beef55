package csstree

import (
	"fmt"

	"cssidx/internal/binsearch"
	"cssidx/internal/mem"
)

// Full is a full CSS-tree (§4.1): a directory of internal nodes, each holding
// exactly m keys with m+1 implicit children, stored level by level in a flat
// aligned array over the sorted key slice.  Zero value is not usable; build
// with BuildFull.
type Full struct {
	keys []uint32 // the sorted array a (not owned; never modified)
	dir  []uint32 // internal-node directory, g.Internal nodes of m slots
	g    Geometry
}

// BuildFull constructs a full CSS-tree over the sorted slice keys with m keys
// per node, following Algorithm 4.1: internal entries are filled from the
// last entry of the last internal node down to entry 0, each with the largest
// key of its immediate left subtree found by chasing rightmost children down
// to the (virtual) leaf level.
//
// keys must be sorted ascending (duplicates allowed) and is retained, not
// copied: the tree is a directory over the caller's array, exactly as in the
// paper ("the array is given to us without assumptions that it can be
// restructured").  m must be ≥ 2; node size m·4 bytes is typically the cache
// line (m=16 for 64-byte lines, §5.1).  keys and the directory are hinted
// onto huge pages (mem.Huge), which changes no byte of either.
func BuildFull(keys []uint32, m int) *Full {
	g := FullGeometry(len(keys), m)
	t := &Full{keys: keys, g: g}
	if g.Internal == 0 {
		return t
	}
	t.dir = mem.AlignedU32(g.DirectoryKeys(), mem.CacheLine)
	fan := g.Fanout
	for i := g.DirectoryKeys() - 1; i >= 0; i-- {
		d := i / m // node number of entry i
		j := i % m // slot within the node
		// Immediate left child of slot j, then chase rightmost children
		// until past the internal region.
		c := d*fan + 1 + j
		for c <= g.LNode {
			c = c*fan + fan // the (m+1)-th child
		}
		t.dir[i] = keys[g.LeafMaxIndex(c)]
	}
	mem.Huge(keys)
	mem.Huge(t.dir)
	return t
}

// Search returns the index in the sorted array of the leftmost occurrence of
// key, or -1 if key is absent (Algorithm 4.2).
func (t *Full) Search(key uint32) int {
	i := t.LowerBound(key)
	if i < len(t.keys) && t.keys[i] == key {
		return i
	}
	return -1
}

// LowerBound returns the smallest index i with keys[i] >= key, or len(keys).
// Because internal keys are left-subtree maxima and node search picks the
// leftmost slot ≥ key, the descent lands on the leaf holding the leftmost
// candidate, so duplicates resolve to their first occurrence.
func (t *Full) LowerBound(key uint32) int {
	g := &t.g
	if g.Internal == 0 {
		return binsearch.LowerBound(t.keys, key)
	}
	m, fan := g.M, g.Fanout
	d := 0
	for d <= g.LNode {
		base := d * m
		j := binsearch.NodeLowerBound(t.dir[base:base+m], m, key)
		d = d*fan + 1 + j
	}
	lo, hi := g.LeafRange(d)
	return lo + binsearch.NodeLowerBound(t.keys[lo:hi], hi-lo, key)
}

// EqualRange returns the half-open range [first,last) of indexes equal to
// key (§3.6: find the leftmost match, scan right).
func (t *Full) EqualRange(key uint32) (first, last int) {
	first = t.LowerBound(key)
	last = first
	for last < len(t.keys) && t.keys[last] == key {
		last++
	}
	return first, last
}

// LowerBoundGeneric is LowerBound using the non-unrolled node search; it
// exists for the code-specialisation ablation (§6.2 reports the generic
// version 20–45% slower).
func (t *Full) LowerBoundGeneric(key uint32) int {
	g := &t.g
	if g.Internal == 0 {
		return binsearch.LowerBound(t.keys, key)
	}
	m, fan := g.M, g.Fanout
	d := 0
	for d <= g.LNode {
		base := d * m
		j := binsearch.NodeLowerBoundGeneric(t.dir[base:base+m], m, key)
		d = d*fan + 1 + j
	}
	lo, hi := g.LeafRange(d)
	return lo + binsearch.NodeLowerBoundGeneric(t.keys[lo:hi], hi-lo, key)
}

// Keys returns the sorted array the tree indexes.
func (t *Full) Keys() []uint32 { return t.keys }

// Dir returns the internal-node directory array (node d occupies slots
// [d·m, (d+1)·m)).  Read-only: exposed for inspection and for the cache
// simulator, which replays directory accesses address by address.
func (t *Full) Dir() []uint32 { return t.dir }

// M returns the number of key slots per node.
func (t *Full) M() int { return t.g.M }

// Geometry returns the node-numbering layout (for inspection, the simulator
// and the analytic model).
func (t *Full) Geometry() Geometry { return t.g }

// SpaceBytes returns the extra space the index occupies beyond the sorted
// array: the directory (§5.2: nK²⁄sc with K=4).
func (t *Full) SpaceBytes() int { return mem.SliceBytes(t.dir) }

// Levels returns the number of node levels traversed by a search, including
// the leaf.
func (t *Full) Levels() int { return t.g.Levels() }

// String describes the tree for diagnostics.
func (t *Full) String() string {
	return fmt.Sprintf("full CSS-tree{n=%d m=%d internal=%d levels=%d dir=%s}",
		t.g.N, t.g.M, t.g.Internal, t.Levels(), mem.Bytes(t.SpaceBytes()))
}

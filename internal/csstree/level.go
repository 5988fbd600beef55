package csstree

import (
	"fmt"

	"cssidx/internal/binsearch"
	"cssidx/internal/mem"
)

// Level is a level CSS-tree (§4.2): nodes have m = 2ᵗ slots but only m−1
// routing keys, so the within-node search is a perfect binary tree costing
// exactly t comparisons, at the price of a branching factor of m instead of
// m+1 (one extra level every log_m steps).  The spare slot of each node
// caches the largest key of the node's last branch, which lets the builder
// avoid chasing rightmost children down whole subtrees — the reason the
// paper's Figure 9 shows level trees building faster than full trees.
type Level struct {
	keys []uint32
	dir  []uint32
	g    Geometry
}

// BuildLevel constructs a level CSS-tree over the sorted slice keys with m
// slots per node.  m must be a power of two ≥ 2.  keys is retained, not
// copied; it and the directory are hinted onto huge pages (mem.Huge), which
// changes no byte of either.
func BuildLevel(keys []uint32, m int) *Level {
	if !mem.IsPow2(m) {
		panic(fmt.Sprintf("csstree: level tree node size m=%d is not a power of two", m))
	}
	g := LevelGeometry(len(keys), m)
	t := &Level{keys: keys, g: g}
	if g.Internal == 0 {
		return t
	}
	t.dir = mem.AlignedU32(g.DirectoryKeys(), mem.CacheLine)
	// Populate nodes from the last internal node towards the root.  Children
	// have higher node numbers than their parent, so every child's aux slot
	// (its subtree maximum) is ready before the parent needs it.
	for d := g.LNode; d >= 0; d-- {
		base := d * m
		// Aux slot first: the maximum of the last branch (child m-1).
		t.dir[base+m-1] = t.subtreeMax(d*m + m)
		// Routing keys: slot j holds the maximum of child j's subtree.
		for j := m - 2; j >= 0; j-- {
			t.dir[base+j] = t.subtreeMax(d*m + 1 + j)
		}
	}
	mem.Huge(keys)
	mem.Huge(t.dir)
	return t
}

// subtreeMax returns the largest real key in the subtree rooted at node c,
// reading a child's cached aux slot when c is internal and mapping through
// the leaf arithmetic otherwise.
func (t *Level) subtreeMax(c int) uint32 {
	if c <= t.g.LNode {
		return t.dir[c*t.g.M+t.g.M-1]
	}
	return t.keys[t.g.LeafMaxIndex(c)]
}

// Search returns the index in the sorted array of the leftmost occurrence of
// key, or -1 if absent.
func (t *Level) Search(key uint32) int {
	i := t.LowerBound(key)
	if i < len(t.keys) && t.keys[i] == key {
		return i
	}
	return -1
}

// LowerBound returns the smallest index i with keys[i] >= key, or len(keys).
func (t *Level) LowerBound(key uint32) int {
	g := &t.g
	if g.Internal == 0 {
		return binsearch.LowerBound(t.keys, key)
	}
	m := g.M
	d := 0
	for d <= g.LNode {
		base := d * m
		j := binsearch.NodeLowerBound(t.dir[base:base+m-1], m-1, key)
		d = d*m + 1 + j
	}
	lo, hi := g.LeafRange(d)
	return lo + binsearch.NodeLowerBound(t.keys[lo:hi], hi-lo, key)
}

// EqualRange returns the half-open range [first,last) of indexes equal to key.
func (t *Level) EqualRange(key uint32) (first, last int) {
	first = t.LowerBound(key)
	last = first
	for last < len(t.keys) && t.keys[last] == key {
		last++
	}
	return first, last
}

// LowerBoundGeneric is LowerBound with the non-unrolled node search, for the
// code-specialisation ablation.
func (t *Level) LowerBoundGeneric(key uint32) int {
	g := &t.g
	if g.Internal == 0 {
		return binsearch.LowerBound(t.keys, key)
	}
	m := g.M
	d := 0
	for d <= g.LNode {
		base := d * m
		j := binsearch.NodeLowerBoundGeneric(t.dir[base:base+m-1], m-1, key)
		d = d*m + 1 + j
	}
	lo, hi := g.LeafRange(d)
	return lo + binsearch.NodeLowerBoundGeneric(t.keys[lo:hi], hi-lo, key)
}

// Keys returns the sorted array the tree indexes.
func (t *Level) Keys() []uint32 { return t.keys }

// Dir returns the internal-node directory array (node d occupies slots
// [d·m, (d+1)·m); slot d·m+m−1 is the cached subtree maximum).  Read-only:
// exposed for inspection and for the cache simulator.
func (t *Level) Dir() []uint32 { return t.dir }

// M returns the number of slots per node (m−1 of which hold routing keys).
func (t *Level) M() int { return t.g.M }

// Geometry returns the node-numbering layout.
func (t *Level) Geometry() Geometry { return t.g }

// SpaceBytes returns the directory size in bytes (§5.2: nK²⁄(sc−K)).
func (t *Level) SpaceBytes() int { return mem.SliceBytes(t.dir) }

// Levels returns the number of node levels traversed, including the leaf.
func (t *Level) Levels() int { return t.g.Levels() }

// String describes the tree for diagnostics.
func (t *Level) String() string {
	return fmt.Sprintf("level CSS-tree{n=%d m=%d internal=%d levels=%d dir=%s}",
		t.g.N, t.g.M, t.g.Internal, t.Levels(), mem.Bytes(t.SpaceBytes()))
}

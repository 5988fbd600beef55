package csstree

import (
	"fmt"

	"cssidx/internal/binsearch"
	"cssidx/internal/mem"
)

// Tree is a CSS-tree: a directory of internal nodes, each of m slots, stored
// level by level in a flat aligned array over the sorted key slice.  Whether
// it is a full (§4.1) or a level (§4.2) tree is a property of its Geometry
// alone: a node routes on Fanout−1 of its slots, and nothing else in the
// read path depends on the variant.  Zero value is not usable; build with
// BuildFull or BuildLevel.  The directory is derived state: nothing persists
// it, and a restart rebuilds it from the keys.
type Tree struct {
	keys []uint32 // the sorted array a (not owned; never modified)
	dir  []uint32 // internal-node directory, g.Internal nodes of m slots
	g    Geometry
}

// Level is the name the level tree had as a type of its own, kept because
// benchmark/layers.go names *csstree.Level.
type Level = Tree

// BuildFull constructs a full CSS-tree over the sorted slice keys with m keys
// per node (m+1 children), filled by Algorithm 4.1 (see fill).
//
// keys must be sorted ascending (duplicates allowed) and is retained, not
// copied: the tree is a directory over the caller's array, exactly as in the
// paper ("the array is given to us without assumptions that it can be
// restructured").  m must be ≥ 2; node size m·4 bytes is typically the cache
// line (m=16 for 64-byte lines, §5.1).  keys and the directory are hinted
// onto huge pages (mem.Huge), which changes no byte of either.
func BuildFull(keys []uint32, m int) *Tree {
	return build(keys, FullGeometry(len(keys), m))
}

// BuildLevel constructs a level CSS-tree over the sorted slice keys with m
// slots per node: m−1 routing keys, so the within-node search is a perfect
// binary tree costing exactly t = log₂ m comparisons, at the price of a
// branching factor of m instead of m+1.  The spare slot of each node caches
// the largest key of its last branch, which lets the fill avoid chasing
// rightmost children down whole subtrees — the reason the paper's Figure 9
// shows level trees building faster than full trees.  m must be a power of
// two ≥ 2, the only sizes whose m−1 routing keys form a perfect binary
// search tree; keys is retained and hinted as for BuildFull.
func BuildLevel(keys []uint32, m int) *Tree {
	if m < 2 || !mem.IsPow2(m) {
		panic(fmt.Sprintf("csstree: level tree node size m=%d is not a power of two ≥ 2", m))
	}
	return build(keys, LevelGeometry(len(keys), m))
}

// build lays an aligned directory of g's shape over keys and fills it.
func build(keys []uint32, g Geometry) *Tree {
	t := &Tree{keys: keys, g: g}
	if g.Internal == 0 {
		return t
	}
	t.dir = mem.AlignedU32(g.DirectoryKeys(), mem.CacheLine)
	fill(g, t.dir, keys)
	mem.Huge(keys)
	mem.Huge(t.dir)
	return t
}

// fill writes the directory of the tree laid out by g over the sorted keys
// into dir (g.DirectoryKeys() slots).  It holds the one copy of each
// variant's fill:
//
//   - full trees (Algorithm 4.1): every entry, from the last slot of the
//     last internal node down to slot 0, gets the largest key of its
//     immediate left subtree, found by chasing rightmost children down to
//     the (virtual) leaf level;
//   - level trees (§4.2): nodes fill from the last internal node towards
//     the root, the aux slot first.  Children have higher node numbers than
//     their parent, so a routing key reads its child's cached maximum
//     instead of chasing.
func fill(g Geometry, dir, keys []uint32) {
	m, fan := g.M, g.Fanout
	if g.IsFull() {
		for i := g.DirectoryKeys() - 1; i >= 0; i-- {
			// Immediate left child of slot i%m of node i/m, then its
			// rightmost descendants until past the internal region.
			c := i/m*fan + 1 + i%m
			for c <= g.LNode {
				c = c*fan + fan
			}
			dir[i] = keys[g.LeafMaxIndex(c)]
		}
		return
	}
	subtreeMax := func(c int) uint32 {
		if c <= g.LNode {
			return dir[c*m+m-1]
		}
		return keys[g.LeafMaxIndex(c)]
	}
	for d := g.LNode; d >= 0; d-- {
		base := d * m
		// Aux slot first: the maximum of the last branch (child m−1).
		dir[base+m-1] = subtreeMax(d*fan + fan)
		// Routing keys: slot j holds the maximum of child j's subtree.
		for j := m - 2; j >= 0; j-- {
			dir[base+j] = subtreeMax(d*fan + 1 + j)
		}
	}
}

// Search returns the index in the sorted array of the leftmost occurrence of
// key, or -1 if key is absent (Algorithm 4.2).
func (t *Tree) Search(key uint32) int {
	i := t.LowerBound(key)
	if i < len(t.keys) && t.keys[i] == key {
		return i
	}
	return -1
}

// LowerBound returns the smallest index i with keys[i] >= key, or len(keys).
// Because routing keys are left-subtree maxima and node search picks the
// leftmost slot ≥ key, the descent lands on the leaf holding the leftmost
// candidate, so duplicates resolve to their first occurrence.
func (t *Tree) LowerBound(key uint32) int {
	g := &t.g
	if g.Internal == 0 {
		return binsearch.LowerBound(t.keys, key)
	}
	m, fan, r := g.M, g.Fanout, g.Routing()
	d := 0
	for d <= g.LNode {
		base := d * m
		j := binsearch.NodeLowerBound(t.dir[base:base+r], r, key)
		d = d*fan + 1 + j
	}
	lo, hi := g.LeafRange(d)
	return lo + binsearch.NodeLowerBound(t.keys[lo:hi], hi-lo, key)
}

// EqualRange returns the half-open range [first,last) of indexes equal to
// key (§3.6: find the leftmost match, scan right).
func (t *Tree) EqualRange(key uint32) (first, last int) {
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
func (t *Tree) LowerBoundGeneric(key uint32) int {
	g := &t.g
	if g.Internal == 0 {
		return binsearch.LowerBound(t.keys, key)
	}
	m, fan, r := g.M, g.Fanout, g.Routing()
	d := 0
	for d <= g.LNode {
		base := d * m
		j := binsearch.NodeLowerBoundGeneric(t.dir[base:base+r], r, key)
		d = d*fan + 1 + j
	}
	lo, hi := g.LeafRange(d)
	return lo + binsearch.NodeLowerBoundGeneric(t.keys[lo:hi], hi-lo, key)
}

// Keys returns the sorted array the tree indexes.
func (t *Tree) Keys() []uint32 { return t.keys }

// Dir returns the internal-node directory array (node d occupies slots
// [d·m, (d+1)·m); in a level tree slot d·m+m−1 is the cached subtree
// maximum).  Read-only: exposed for inspection and for the cache simulator,
// which replays directory accesses address by address.
func (t *Tree) Dir() []uint32 { return t.dir }

// M returns the number of key slots per node.
func (t *Tree) M() int { return t.g.M }

// Geometry returns the node-numbering layout (for inspection, the simulator
// and the analytic model).
func (t *Tree) Geometry() Geometry { return t.g }

// Name returns the variant's name in the paper's figure legends.
func (t *Tree) Name() string {
	if t.g.IsFull() {
		return "full CSS-tree"
	}
	return "level CSS-tree"
}

// SpaceBytes returns the extra space the index occupies beyond the sorted
// array: the directory (§5.2: nK²⁄sc for full trees, nK²⁄(sc−K) for level).
func (t *Tree) SpaceBytes() int { return mem.SliceBytes(t.dir) }

// Levels returns the number of node levels traversed by a search, including
// the leaf.
func (t *Tree) Levels() int { return t.g.Levels() }

// String describes the tree for diagnostics.
func (t *Tree) String() string {
	return fmt.Sprintf("%s{n=%d m=%d internal=%d levels=%d dir=%s}",
		t.Name(), t.g.N, t.g.M, t.g.Internal, t.Levels(), mem.Bytes(t.SpaceBytes()))
}

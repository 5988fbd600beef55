// Package csstree implements Cache-Sensitive Search Trees, the contribution
// of Rao & Ross (CUCS-019-98 / VLDB'99): a pointerless search directory laid
// over a sorted array, with node size chosen to match the cache-line size.
//
// There is one tree type, Tree, with the paper's two builds:
//
//   - BuildFull (§4.1): every node holds m keys and has m+1 children.
//     Child node numbers are computed by arithmetic (children of node b are
//     b(m+1)+1 … b(m+1)+(m+1)), so no child pointers are stored and every
//     byte of a cache line holds a key.
//
//   - BuildLevel (§4.2): nodes have m = 2ᵗ slots but use only m−1 keys,
//     giving a branching factor of m.  Within a node the m−1 keys form a
//     perfect binary search tree, so every probe costs exactly t comparisons;
//     the spare slot caches the subtree maximum, which makes building cheaper.
//
// The two differ only in their Geometry's fan-out and in how Fill populates
// the directory; search, batches and snapshots read the fan-out from the
// geometry and never branch on the variant.
//
// The leaves of a CSS-tree are the sorted array itself.  Because the deepest
// leaf level holds the *front* of the array while the shallower leaf level
// holds the *back* (the region I/II switch of Figure 3), search maps a
// computed leaf offset through the "mark" as described in §4.1.
//
// Both builds tolerate n not being a multiple of m: the array is virtually
// padded to B·m elements; padded positions replicate the last real key at
// build time (the paper's "fill in those dangling keys with the last element
// in the first half of array a") and leaf search clamps to real bounds.
package csstree

import (
	"fmt"

	"cssidx/internal/mem"
)

// Geometry captures the node-numbering arithmetic of Lemma 4.1 (full trees)
// and its level-tree analogue.  All quantities are in *nodes* unless suffixed
// otherwise.  It is shared by the builders, the address-trace simulator, and
// the analytic model, so the arithmetic lives in exactly one place.
type Geometry struct {
	N          int // number of elements in the sorted array (real)
	M          int // slots per node
	Fanout     int // branching factor: m+1 for full trees, m for level trees
	Leaves     int // B = ⌈n/m⌉, leaf nodes of m keys each
	Depth      int // k: leaf levels sit at depth k-1 and k (internal depth < k)
	Internal   int // number of internal nodes (lNode+1)
	LNode      int // node number of the last internal node
	FirstBot   int // node number of the first leaf at the deepest level
	MarkKeys   int // MARK: key offset of the first deep-level leaf (FirstBot·m)
	BottomEnd  int // first array index NOT covered by deep-level leaves (clamped to n)
	PaddedKeys int // B·m, the virtually padded array size
	TopLeaves  int // leaves at depth k-1 (region II)
	BotLeaves  int // leaves at depth k (region I)
}

// FullGeometry computes the layout of a full CSS-tree over n keys with m
// keys per node (fanout m+1), per Lemma 4.1.
func FullGeometry(n, m int) Geometry {
	return geometry(n, m, m+1, m)
}

// LevelGeometry computes the layout of a level CSS-tree over n keys with m
// slots per node (fanout m, m−1 routing keys).
func LevelGeometry(n, m int) Geometry {
	return geometry(n, m, m, m-1)
}

// geometry derives the node numbering for a tree whose internal nodes have
// `fanout` children and whose directory gain per extra parent is `gain`
// (= fanout−1): turning one slot at depth k−1 into a parent adds `fanout`
// leaves at depth k but consumes one leaf slot, a net gain of fanout−1.
func geometry(n, m, fanout, gain int) Geometry {
	if m < 2 {
		panic(fmt.Sprintf("csstree: node size m=%d too small", m))
	}
	if n < 0 {
		panic("csstree: negative n")
	}
	g := Geometry{N: n, M: m, Fanout: fanout}
	b := (n + m - 1) / m
	g.Leaves = b
	g.PaddedKeys = b * m
	if b <= 1 {
		// The whole array fits in one leaf: no directory at all.
		g.Depth = 0
		g.Internal = 0
		g.LNode = -1
		g.FirstBot = 0
		g.MarkKeys = 0
		g.BotLeaves = b
		g.BottomEnd = n
		return g
	}
	// k = smallest depth whose leaf level can hold all B leaves.
	k := 1
	cap := fanout
	for cap < b {
		cap *= fanout
		k++
	}
	c := cap / fanout // fanout^(k-1), the size of the shallower leaf level
	x := b - c        // leaves beyond one full level at depth k-1
	p := (x + gain - 1) / gain
	g.Depth = k
	g.TopLeaves = c - p
	g.BotLeaves = x + p
	// Node number of the first node at depth d is (fanout^d - 1)/(fanout-1).
	firstKm1 := (c - 1) / (fanout - 1)
	g.FirstBot = (cap - 1) / (fanout - 1)
	g.LNode = firstKm1 + p - 1
	g.Internal = g.LNode + 1
	g.MarkKeys = g.FirstBot * m
	be := g.BotLeaves * m
	if be > n {
		be = n
	}
	g.BottomEnd = be
	return g
}

// CheckLevelSlots reports whether m is a valid level-tree node size: the m−1
// routing keys of a level node form a perfect binary search tree only when m
// is a power of two ≥ 2.  BuildLevel, the root package's generic level trees
// and Restore all apply this one rule.
func CheckLevelSlots(m int) error {
	if m < 2 || !mem.IsPow2(m) {
		return fmt.Errorf("level tree node size m=%d is not a power of two ≥ 2", m)
	}
	return nil
}

// IsFull reports whether g lays out a full CSS-tree (fan-out m+1) rather
// than a level CSS-tree (fan-out m): the variant is this one fact.
func (g Geometry) IsFull() bool { return g.Fanout == g.M+1 }

// Routing returns the number of routing keys a node search reads, Fanout−1:
// m in a full tree, m−1 in a level tree (whose last slot is the aux slot).
func (g Geometry) Routing() int { return g.Fanout - 1 }

// DirectoryKeys returns the number of uint32 slots the directory array needs.
func (g Geometry) DirectoryKeys() int { return g.Internal * g.M }

// DirectoryBytes returns the directory size in bytes.
func (g Geometry) DirectoryBytes() int { return 4 * g.DirectoryKeys() }

// Levels returns the number of node levels a search traverses, counting the
// leaf level (so a single-leaf tree has 1 level).
func (g Geometry) Levels() int { return g.Depth + 1 }

// LeafRange maps a virtual leaf node number d (> LNode) to the half-open
// range [lo,hi) of the sorted array it covers, applying the region I/II
// switch of Figure 3 and clamping padding.  A dangling leaf (beyond the
// real data) yields an empty range whose position is the correct global
// lower bound for any probe routed to it.  The receiver is a pointer because
// the batch descent calls this once per probe and a value receiver copies
// the whole struct each time.
func (g *Geometry) LeafRange(d int) (lo, hi int) {
	diff := d*g.M - g.MarkKeys
	if diff < 0 {
		// Region II: shallower leaf level holds the back of the array.
		lo = g.PaddedKeys + diff
		hi = lo + g.M
		if hi > g.N {
			hi = g.N
		}
		return lo, hi
	}
	// Region I: deepest leaf level holds the front of the array.
	lo = diff
	hi = lo + g.M
	if lo > g.BottomEnd {
		lo = g.BottomEnd
	}
	if hi > g.BottomEnd {
		hi = g.BottomEnd
	}
	return lo, hi
}

// LeafMaxIndex returns the array index holding the largest *real* key covered
// by virtual leaf d, used when populating internal keys ("the value of the
// largest key in its immediate left subtree", Algorithm 4.1).  Dangling
// leaves — entirely beyond the real data — clamp to the last element of the
// region, exactly as the paper fills dangling keys.
func (g Geometry) LeafMaxIndex(d int) int {
	lo, hi := g.LeafRange(d)
	if lo < hi {
		return hi - 1
	}
	// Dangling deep-level leaf: last element of the first part of the array.
	if g.BottomEnd > 0 {
		return g.BottomEnd - 1
	}
	return 0
}

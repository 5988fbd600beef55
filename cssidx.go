// Package cssidx is a main-memory indexing library for decision-support
// (OLAP) workloads, reproducing "Cache Conscious Indexing for Decision-
// Support in Main Memory" (Rao & Ross, Columbia CUCS-019-98 / VLDB'99).
//
// The centrepiece is the Cache-Sensitive Search Tree (CSS-tree): a
// pointer-free search directory laid over a sorted array whose node size
// matches the CPU cache line, giving close to the minimum possible cache
// misses per lookup while adding only a few percent of space.  The package
// also provides every structure the paper evaluates against — array binary
// search, interpolation search, binary search trees, T-trees, B+-trees and
// chained bucket hashing — behind one interface, so the paper's space/time
// trade-off (Figure 2/14) can be explored directly on your data.
//
// All indexes are built in one shot from a sorted key array and are
// read-only afterwards: in an OLAP setting batch updates are absorbed by
// rebuilding (§2.3, §4.1.1 — rebuilding 25M keys takes well under a second;
// see BenchmarkFig9Build).
//
// # Quick start
//
//	keys := []cssidx.Key{2, 3, 5, 8, 13, 21, 34}   // sorted
//	idx := cssidx.NewLevelCSS(keys, cssidx.DefaultNodeBytes)
//	i := idx.Search(13)                             // 4
//	lo := idx.LowerBound(9)                         // 4 (first key ≥ 9)
//
// The sorted array itself is the leaf level: Search and LowerBound return
// positions in it, which double as RIDs for a record-identifier list sorted
// by the indexed attribute (§2.2).
//
// # Batched probing: the execution model
//
// Decision-support operations probe in bulk — a join once per outer row, an
// IN-list once per element — so the batch, not the single lookup, is the
// unit of execution.  BatchIndex/BatchOrderedIndex answer whole probe
// batches: the CSS-trees descend a batch in lockstep (independent cache
// misses overlap; upper directory levels stay cache-resident across the
// group), AsBatch/AsBatchOrdered adapt every other method, and SortedBatch
// adds the sort-probes-first schedule for skewed streams (radix-sort the
// batch, descend each distinct key once, scatter results back).  Batched
// results are bit-identical to the scalar methods; only the memory-access
// schedule changes.  ShardedIndex batches partition by shard boundary and
// run against one frozen snapshot epoch, and the mmdb joins, IN-lists and
// access-path selection are built on this surface.
//
// # Concurrent serving: ShardedIndex
//
// ShardedIndex turns the §2.3 rebuild cycle into a concurrent serving
// layer: the key space is range-partitioned across N shards of equal key
// count, each shard's CSS-tree sits behind an atomic pointer, and
// Search/LowerBound/EqualRange/range scans are lock-free while a background
// goroutine absorbs batched Insert/Delete traffic per shard and publishes
// freshly rebuilt trees with epoch-swaps.
//
//	idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[cssidx.Key]{Shards: 8})
//	defer idx.Close()
//	go func() { idx.Insert(batch...); idx.Sync() }()   // writers
//	pos := idx.Search(13)                              // readers, lock-free
//
// Use Snapshot for repeatable reads with stable positions across shards,
// and Ascend for merged cross-shard range scans.
package cssidx

import (
	"fmt"

	"cssidx/internal/binsearch"
	"cssidx/internal/bptree"
	"cssidx/internal/bst"
	"cssidx/internal/csstree"
	"cssidx/internal/hashidx"
	"cssidx/internal/interp"
	"cssidx/internal/mem"
	"cssidx/internal/ttree"
)

// Key is a 4-byte index key (K = 4 bytes in the paper's Table 1).
type Key = uint32

// RID is a 4-byte record identifier (R = 4 bytes in Table 1).  In this
// library RIDs are positions in the sorted key array.
type RID = uint32

// DefaultNodeBytes is the default tree node size: one cache line.
const DefaultNodeBytes = mem.CacheLine

// Index is a read-only search index over a sorted array of keys.
type Index interface {
	// Name identifies the method, matching the paper's figure legends.
	Name() string
	// Search returns the position in the indexed sorted array of the
	// leftmost occurrence of key, or -1 if absent.
	Search(key Key) int
	// SpaceBytes is the memory the structure occupies beyond the sorted
	// array it indexes (0 for binary and interpolation search).
	SpaceBytes() int
}

// OrderedIndex additionally supports order-based access: range queries and
// duplicate enumeration.  Every method except hashing provides it
// (Figure 7's "RID-Ordered Access" column).
type OrderedIndex interface {
	Index
	// LowerBound returns the smallest position whose key is ≥ key, or the
	// number of keys if none is.
	LowerBound(key Key) int
	// EqualRange returns the half-open position range [first,last) of
	// occurrences of key; first==last means absent.
	EqualRange(key Key) (first, last int)
}

// --- CSS-trees -------------------------------------------------------------

// cssTree serves both CSS-tree variants: the tree's geometry fixes its
// fan-out and its Name.
type cssTree struct{ t *csstree.Tree }

// NewFullCSS builds a full CSS-tree (§4.1) over the sorted keys with the
// given node size in bytes (use DefaultNodeBytes to match the cache line).
// keys is retained, not copied.
func NewFullCSS(keys []Key, nodeBytes int) OrderedIndex {
	return cssTree{csstree.BuildFull(keys, slotsFor(nodeBytes))}
}

// NewLevelCSS builds a level CSS-tree (§4.2) over the sorted keys with the
// given node size in bytes; the node size must be a power of two ≥ 8.
// Level CSS-trees trade a slightly larger directory for fewer comparisons —
// across the paper's tests they were up to 8% faster than full CSS-trees.
func NewLevelCSS(keys []Key, nodeBytes int) OrderedIndex {
	return cssTree{csstree.BuildLevel(keys, slotsFor(nodeBytes))}
}

func (x cssTree) Name() string                  { return x.t.Name() }
func (x cssTree) Search(key Key) int            { return x.t.Search(key) }
func (x cssTree) LowerBound(key Key) int        { return x.t.LowerBound(key) }
func (x cssTree) EqualRange(key Key) (int, int) { return x.t.EqualRange(key) }
func (x cssTree) SpaceBytes() int               { return x.t.SpaceBytes() }

// --- B+-tree ----------------------------------------------------------------

type bplus struct{ t *bptree.Tree }

// NewBPlusTree builds a bulk-loaded, 100%-full B+-tree (§3.4) with the given
// node size in bytes.
func NewBPlusTree(keys []Key, nodeBytes int) OrderedIndex {
	return bplus{bptree.Build(keys, slotsFor(nodeBytes))}
}

func (x bplus) Name() string { return "B+-tree" }
func (x bplus) Search(key Key) int {
	rid, ok := x.t.Search(key)
	if !ok {
		return -1
	}
	return int(rid)
}
func (x bplus) LowerBound(key Key) int        { return x.t.LowerBound(key) }
func (x bplus) EqualRange(key Key) (int, int) { return x.t.EqualRange(key) }
func (x bplus) SpaceBytes() int               { return x.t.SpaceBytes() }

// --- T-tree -----------------------------------------------------------------

type tTree struct{ t *ttree.Tree }

// NewTTree builds the improved T-tree of [LC86b] (§3.3).  nodeBytes sizes
// the node block: capacity = (nodeBytes − 2·4)/(4+4) ⟨key,RID⟩ pairs.
func NewTTree(keys []Key, nodeBytes int) OrderedIndex {
	return tTree{ttree.Build(keys, ttreeCapacityFor(nodeBytes))}
}

func (x tTree) Name() string { return "T-tree" }
func (x tTree) Search(key Key) int {
	rid, ok := x.t.Search(key)
	if !ok {
		return -1
	}
	return int(rid)
}
func (x tTree) LowerBound(key Key) int        { return x.t.LowerBound(key) }
func (x tTree) EqualRange(key Key) (int, int) { return x.t.EqualRange(key) }
func (x tTree) SpaceBytes() int               { return x.t.SpaceBytes() }

// --- binary search tree ------------------------------------------------------

type bstIdx struct{ t *bst.Tree }

// NewBST builds a balanced pointer-based binary search tree ("tree binary
// search" in Figures 10–11).
func NewBST(keys []Key) OrderedIndex {
	return bstIdx{bst.Build(keys)}
}

func (x bstIdx) Name() string { return "tree binary search" }
func (x bstIdx) Search(key Key) int {
	rid, ok := x.t.Search(key)
	if !ok {
		return -1
	}
	return int(rid)
}
func (x bstIdx) LowerBound(key Key) int        { return x.t.LowerBound(key) }
func (x bstIdx) EqualRange(key Key) (int, int) { return x.t.EqualRange(key) }
func (x bstIdx) SpaceBytes() int               { return x.t.SpaceBytes() }

// --- array searches ----------------------------------------------------------

type binIdx struct{ keys []Key }

// NewBinarySearch wraps plain array binary search (§3.2): zero extra space,
// log₂ n cache misses.
func NewBinarySearch(keys []Key) OrderedIndex { return binIdx{keys} }

func (x binIdx) Name() string           { return "array binary search" }
func (x binIdx) Search(key Key) int     { return binsearch.Search(x.keys, key) }
func (x binIdx) LowerBound(key Key) int { return binsearch.LowerBound(x.keys, key) }
func (x binIdx) EqualRange(key Key) (int, int) {
	return binsearch.EqualRange(x.keys, key)
}
func (x binIdx) SpaceBytes() int { return 0 }

type interpIdx struct{ keys []Key }

// NewInterpolation wraps interpolation search: zero extra space, fast only
// on linearly distributed keys (§6.3).
func NewInterpolation(keys []Key) OrderedIndex { return interpIdx{keys} }

func (x interpIdx) Name() string           { return "interpolation search" }
func (x interpIdx) Search(key Key) int     { return interp.Search(x.keys, key) }
func (x interpIdx) LowerBound(key Key) int { return interp.LowerBound(x.keys, key) }
func (x interpIdx) EqualRange(key Key) (int, int) {
	return interp.EqualRange(x.keys, key)
}
func (x interpIdx) SpaceBytes() int { return 0 }

// --- hashing ------------------------------------------------------------------

type hashIdx struct{ t *hashidx.Table }

// NewHash builds a chained-bucket hash index (§3.5) with cache-line-sized
// buckets.  dirSize (power of two) controls the space/time trade: the paper
// uses 2²² buckets for 10M keys.  Hashing returns an Index, not an
// OrderedIndex — it cannot answer range queries.
func NewHash(keys []Key, dirSize int) Index {
	return hashIdx{hashidx.Build(keys, dirSize, mem.CacheLine)}
}

// DefaultHashDirSize returns a directory sizing that keeps chains near one
// bucket for n keys: the next power of two ≥ n/4 (≈4 pairs per 7-pair
// bucket).
func DefaultHashDirSize(n int) int {
	if n < 16 {
		return 4
	}
	return mem.NextPow2(n / 4)
}

func (x hashIdx) Name() string { return "hash" }
func (x hashIdx) Search(key Key) int {
	rid, ok := x.t.Search(key)
	if !ok {
		return -1
	}
	return int(rid)
}
func (x hashIdx) SpaceBytes() int { return x.t.SpaceBytes() }

// --- kinds ---------------------------------------------------------------------

// Kind names an index method for table-driven construction.
type Kind int

// The methods of the paper's evaluation.
const (
	KindBinarySearch Kind = iota
	KindInterpolation
	KindBST
	KindTTree
	KindBPlusTree
	KindFullCSS
	KindLevelCSS
	KindHash
)

// Kinds returns all methods in the paper's figure order.
func Kinds() []Kind {
	return []Kind{
		KindBinarySearch, KindBST, KindInterpolation, KindTTree,
		KindBPlusTree, KindFullCSS, KindLevelCSS, KindHash,
	}
}

// String returns the method name used in the paper's figures.
func (k Kind) String() string {
	switch k {
	case KindBinarySearch:
		return "array binary search"
	case KindInterpolation:
		return "interpolation search"
	case KindBST:
		return "tree binary search"
	case KindTTree:
		return "T-tree"
	case KindBPlusTree:
		return "B+-tree"
	case KindFullCSS:
		return "full CSS-tree"
	case KindLevelCSS:
		return "level CSS-tree"
	case KindHash:
		return "hash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Options configures New.
type Options struct {
	// NodeBytes is the node size for tree methods; 0 means DefaultNodeBytes.
	NodeBytes int
	// HashDirSize is the hash directory size; 0 means DefaultHashDirSize(n).
	HashDirSize int
}

// New builds an index of the given kind over the sorted keys.  Methods with
// order support satisfy OrderedIndex (assert to use range queries).
func New(kind Kind, keys []Key, opts Options) Index {
	nb := opts.NodeBytes
	if nb == 0 {
		nb = DefaultNodeBytes
	}
	switch kind {
	case KindBinarySearch:
		return NewBinarySearch(keys)
	case KindInterpolation:
		return NewInterpolation(keys)
	case KindBST:
		return NewBST(keys)
	case KindTTree:
		return NewTTree(keys, nb)
	case KindBPlusTree:
		return NewBPlusTree(keys, nb)
	case KindFullCSS:
		return NewFullCSS(keys, nb)
	case KindLevelCSS:
		return NewLevelCSS(keys, nb)
	case KindHash:
		ds := opts.HashDirSize
		if ds == 0 {
			ds = DefaultHashDirSize(len(keys))
		}
		return NewHash(keys, ds)
	default:
		panic(fmt.Sprintf("cssidx: unknown kind %d", int(kind)))
	}
}

// slotsFor converts a node size in bytes to 4-byte slots, validating it.
func slotsFor(nodeBytes int) int {
	if nodeBytes < 8 || nodeBytes%4 != 0 {
		panic(fmt.Sprintf("cssidx: node size %d bytes must be a multiple of 4 and ≥ 8", nodeBytes))
	}
	return nodeBytes / 4
}

// ttreeCapacityFor converts a node size in bytes to ⟨key,RID⟩ pairs after
// the two child links.
func ttreeCapacityFor(nodeBytes int) int {
	c := (nodeBytes - 2*mem.PtrBytes) / (mem.KeyBytes + mem.RIDBytes)
	if c < 2 {
		panic(fmt.Sprintf("cssidx: node size %d bytes too small for a T-tree node", nodeBytes))
	}
	return c
}

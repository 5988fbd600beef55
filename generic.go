// Generic CSS-trees: the §4.1 generalisation — "our techniques apply to
// sorted arrays having elements of size different from the size of a key;
// offsets into the leaf array are independent of the record size within the
// array".
//
// Two forms are provided:
//
//   - Generic[K]: a CSS-tree over a sorted []K for any ordered key type
//     (ints of any width, floats, strings);
//   - RecordTree[K]: a CSS-tree over *records* of arbitrary type accessed
//     through a key extractor, so a table clustered by an attribute can be
//     indexed in place without materialising a key array.
//
// The uint32 fast path (NewFullCSS/NewLevelCSS) remains the tuned,
// paper-exact implementation; these generic forms trade the hard-coded node
// search for type generality.
package cssidx

import (
	"cmp"
	"fmt"

	"cssidx/internal/csstree"
)

// Generic is a CSS-tree (full or level variant) over a sorted slice of any
// ordered key type.  Build with NewGenericFull or NewGenericLevel.
type Generic[K cmp.Ordered] struct {
	keys    []K
	dir     []K
	g       csstree.Geometry
	routing int // routing keys per node: m (full) or m−1 (level)

	// When K's width permits — K is uint32 — the same slices re-typed,
	// cached once at build time: the batch descents then run through the
	// dispatched node-search kernels of internal/binsearch (SIMD/scalar)
	// instead of the generic comparison loop, without paying an interface
	// conversion per call.
	keysU32 []uint32
	dirU32  []uint32
}

// NewGenericFull builds a full CSS-tree over the sorted keys with m keys
// per node.  Choose m so that m·sizeof(K) matches the cache line (e.g. m=8
// for 8-byte keys on 64-byte lines).  keys is retained, not copied.
func NewGenericFull[K cmp.Ordered](keys []K, m int) *Generic[K] {
	g := csstree.FullGeometry(len(keys), m)
	return buildGeneric(keys, g, m)
}

// NewGenericLevel builds a level CSS-tree over the sorted keys with m slots
// per node (m−1 routing keys); m must be a power of two ≥ 2.
func NewGenericLevel[K cmp.Ordered](keys []K, m int) *Generic[K] {
	if m&(m-1) != 0 || m < 2 {
		panic(fmt.Sprintf("cssidx: level tree node size m=%d is not a power of two", m))
	}
	g := csstree.LevelGeometry(len(keys), m)
	return buildGeneric(keys, g, m-1)
}

// buildGeneric populates the directory by chasing rightmost children to the
// virtual leaves, exactly like Algorithm 4.1 (aux-slot shortcuts are a
// uint32-path optimisation only).
func buildGeneric[K cmp.Ordered](keys []K, g csstree.Geometry, routing int) *Generic[K] {
	t := &Generic[K]{keys: keys, g: g, routing: routing}
	if g.Internal == 0 {
		t.cacheU32()
		return t
	}
	t.dir = make([]K, g.DirectoryKeys())
	m, fan := g.M, g.Fanout
	for d := 0; d <= g.LNode; d++ {
		base := d * m
		for j := 0; j < routing; j++ {
			c := d*fan + 1 + j
			for c <= g.LNode {
				c = c*fan + fan
			}
			t.dir[base+j] = keys[g.LeafMaxIndex(c)]
		}
	}
	t.cacheU32()
	return t
}

// cacheU32 records the uint32 views of the key and directory arrays when K
// is uint32, unlocking the dispatched node-search kernels for batches.
func (t *Generic[K]) cacheU32() {
	if ku, ok := any(t.keys).([]uint32); ok {
		t.keysU32 = ku
		t.dirU32, _ = any(t.dir).([]uint32)
	}
}

// Search returns the index of the leftmost occurrence of key, or -1.
func (t *Generic[K]) Search(key K) int {
	i := t.LowerBound(key)
	if i < len(t.keys) && t.keys[i] == key {
		return i
	}
	return -1
}

// LowerBound returns the smallest index i with keys[i] >= key, or len(keys).
func (t *Generic[K]) LowerBound(key K) int {
	g := &t.g
	if g.Internal == 0 {
		return lowerBoundG(t.keys, key)
	}
	m := g.M
	d := 0
	for d <= g.LNode {
		base := d * m
		j := lowerBoundG(t.dir[base:base+t.routing], key)
		d = d*g.Fanout + 1 + j
	}
	lo, hi := g.LeafRange(d)
	return lo + lowerBoundG(t.keys[lo:hi], key)
}

// EqualRange returns the half-open index range [first,last) equal to key.
func (t *Generic[K]) EqualRange(key K) (first, last int) {
	first = t.LowerBound(key)
	last = first
	for last < len(t.keys) && t.keys[last] == key {
		last++
	}
	return first, last
}

// Levels returns the node levels traversed per lookup, leaf included.
func (t *Generic[K]) Levels() int { return t.g.Levels() }

// DirectoryLen returns the number of key slots in the directory.
func (t *Generic[K]) DirectoryLen() int { return len(t.dir) }

// lowerBoundG is the leftmost-≥ search over a small sorted slice, with the
// same shift-halving and sequential tail as the specialised path.
func lowerBoundG[K cmp.Ordered](a []K, key K) int {
	lo, hi := 0, len(a)
	for hi-lo > 5 {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && a[lo] < key {
		lo++
	}
	return lo
}

// RecordTree is a full CSS-tree over a sorted record array accessed through
// a key extractor — §4.1's "a could alternatively contain records of a
// table or packed domain clustered by column k".  Only the directory stores
// keys; leaves read through the extractor, so records of any size are
// indexed in place.
type RecordTree[K cmp.Ordered] struct {
	keyAt func(int) K
	n     int
	dir   []K
	g     csstree.Geometry
}

// NewRecordTree builds a full CSS-tree over n records whose i-th key is
// keyAt(i); records must be sorted by key (duplicates allowed).  m is the
// directory node size in keys.
func NewRecordTree[K cmp.Ordered](n int, keyAt func(int) K, m int) *RecordTree[K] {
	g := csstree.FullGeometry(n, m)
	t := &RecordTree[K]{keyAt: keyAt, n: n, g: g}
	if g.Internal == 0 {
		return t
	}
	t.dir = make([]K, g.DirectoryKeys())
	fan := g.Fanout
	for i := range t.dir {
		d, j := i/m, i%m
		c := d*fan + 1 + j
		for c <= g.LNode {
			c = c*fan + fan
		}
		t.dir[i] = keyAt(g.LeafMaxIndex(c))
	}
	return t
}

// Search returns the index of the leftmost record with the key, or -1.
func (t *RecordTree[K]) Search(key K) int {
	i := t.LowerBound(key)
	if i < t.n && t.keyAt(i) == key {
		return i
	}
	return -1
}

// LowerBound returns the smallest record index whose key is ≥ key, or n.
func (t *RecordTree[K]) LowerBound(key K) int {
	g := &t.g
	if g.Internal == 0 {
		return t.leafLowerBound(0, t.n, key)
	}
	m := g.M
	d := 0
	for d <= g.LNode {
		base := d * m
		j := lowerBoundG(t.dir[base:base+m], key)
		d = d*g.Fanout + 1 + j
	}
	lo, hi := g.LeafRange(d)
	return t.leafLowerBound(lo, hi, key)
}

// EqualRange returns [first,last) of record indexes whose key equals key.
func (t *RecordTree[K]) EqualRange(key K) (first, last int) {
	first = t.LowerBound(key)
	last = first
	for last < t.n && t.keyAt(last) == key {
		last++
	}
	return first, last
}

// leafLowerBound searches records [lo,hi) through the extractor.
func (t *RecordTree[K]) leafLowerBound(lo, hi int, key K) int {
	for hi-lo > 5 {
		mid := int(uint(lo+hi) >> 1)
		if t.keyAt(mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && t.keyAt(lo) < key {
		lo++
	}
	return lo
}

// Levels returns the node levels traversed per lookup, leaf included.
func (t *RecordTree[K]) Levels() int { return t.g.Levels() }

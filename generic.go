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
// Both lay out their directories with csstree's Geometry and fill them with
// csstree.Fill, the one fill routine of each variant, so a Generic[uint32]
// or RecordTree[uint32] directory equals BuildFull's or BuildLevel's slot
// for slot.  The uint32 index (NewFullCSS/NewLevelCSS) remains the tuned,
// paper-exact path, with the dispatched node-search kernels and the
// prefetching batch descent; these generic forms trade them for type
// generality.
package cssidx

import (
	"cmp"

	"cssidx/internal/csstree"
)

// Generic is a CSS-tree (full or level variant) over a sorted slice of any
// ordered key type.  Build with NewGenericFull or NewGenericLevel.
type Generic[K cmp.Ordered] struct {
	keys []K
	dir  []K
	g    csstree.Geometry
}

// NewGenericFull builds a full CSS-tree over the sorted keys with m keys
// per node.  Choose m so that m·sizeof(K) matches the cache line (e.g. m=8
// for 8-byte keys on 64-byte lines).  keys is retained, not copied.
func NewGenericFull[K cmp.Ordered](keys []K, m int) *Generic[K] {
	return newGeneric(keys, csstree.FullGeometry(len(keys), m))
}

// NewGenericLevel builds a level CSS-tree over the sorted keys with m slots
// per node (m−1 routing keys); m must be a power of two ≥ 2.
func NewGenericLevel[K cmp.Ordered](keys []K, m int) *Generic[K] {
	if err := csstree.CheckLevelSlots(m); err != nil {
		panic("cssidx: " + err.Error())
	}
	return newGeneric(keys, csstree.LevelGeometry(len(keys), m))
}

// newGeneric lays a directory of g's shape over keys and fills it.
func newGeneric[K cmp.Ordered](keys []K, g csstree.Geometry) *Generic[K] {
	t := &Generic[K]{keys: keys, g: g, dir: make([]K, g.DirectoryKeys())}
	csstree.Fill(g, t.dir, func(i int) K { return keys[i] })
	return t
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
	m, r := g.M, g.Routing()
	d := 0
	for d <= g.LNode {
		base := d * m
		j := lowerBoundG(t.dir[base:base+r], key)
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
	t := &RecordTree[K]{keyAt: keyAt, n: n, g: g, dir: make([]K, g.DirectoryKeys())}
	csstree.Fill(g, t.dir, keyAt)
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

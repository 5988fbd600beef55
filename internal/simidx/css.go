package simidx

import (
	"cssidx/internal/cachesim"
	"cssidx/internal/csstree"
	"cssidx/internal/mem"
)

// CSSTree models full and level CSS-tree lookups: one region for the
// directory, one for the sorted array; a node visit binary-searches slots
// within one (or s) cache line(s) and moves by arithmetic, never touching
// pointers.  The wrapped tree's geometry gives the fan-out, the routing
// width and the name.
type CSSTree struct {
	t       *csstree.Tree
	dirBase uint64
	arrBase uint64
}

// NewFullCSS builds a full CSS-tree and assigns simulated addresses.
func NewFullCSS(keys []uint32, m int, alloc *cachesim.AddrAlloc) *CSSTree {
	return newCSS(csstree.BuildFull(keys, m), alloc)
}

// NewLevelCSS builds a level CSS-tree and assigns simulated addresses.
func NewLevelCSS(keys []uint32, m int, alloc *cachesim.AddrAlloc) *CSSTree {
	return newCSS(csstree.BuildLevel(keys, m), alloc)
}

// newCSS assigns simulated addresses to t's directory and sorted array.
func newCSS(t *csstree.Tree, alloc *cachesim.AddrAlloc) *CSSTree {
	return &CSSTree{
		t:       t,
		dirBase: alloc.Alloc(t.SpaceBytes(), mem.CacheLine),
		arrBase: alloc.Alloc(4*len(t.Keys()), mem.CacheLine),
	}
}

// Name implements Sim.
func (s *CSSTree) Name() string { return s.t.Name() }

// SpaceBytes implements Sim.
func (s *CSSTree) SpaceBytes() int { return s.t.SpaceBytes() }

// Probe replays Algorithm 4.2: descend the directory by offset arithmetic,
// then search the mapped leaf range of the sorted array.
func (s *CSSTree) Probe(h *cachesim.Hierarchy, key uint32) ProbeResult {
	var pr ProbeResult
	g, dir, keys := s.t.Geometry(), s.t.Dir(), s.t.Keys()
	if g.Internal == 0 {
		pr.Index = s.searchRange(h, s.arrBase, keys, 0, len(keys), key, &pr)
		return pr
	}
	m, r := g.M, g.Routing()
	d := 0
	for d <= g.LNode {
		base := d * m
		j := s.searchRange(h, s.dirBase, dir, base, base+r, key, &pr)
		d = d*g.Fanout + 1 + (j - base)
		pr.Moves++
	}
	lo, hi := g.LeafRange(d)
	pr.Index = s.searchRange(h, s.arrBase, keys, lo, hi, key, &pr)
	return pr
}

// searchRange binary-searches slice[lo:hi] for the leftmost slot ≥ key,
// reporting each touched slot at base+4·index, and returns the absolute slot
// index.  This is the access pattern of the hard-coded node searches.
func (s *CSSTree) searchRange(h *cachesim.Hierarchy, base uint64, slice []uint32, lo, hi int, key uint32, pr *ProbeResult) int {
	for hi-lo > tailScanMax {
		mid := int(uint(lo+hi) >> 1)
		access(h, base+4*uint64(mid), 4)
		pr.Cmps++
		if slice[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi {
		access(h, base+4*uint64(lo), 4)
		pr.Cmps++
		if slice[lo] >= key {
			break
		}
		lo++
	}
	return lo
}

// RealLowerBound exposes the wrapped tree's answer for equivalence tests.
func (s *CSSTree) RealLowerBound(key uint32) int { return s.t.LowerBound(key) }

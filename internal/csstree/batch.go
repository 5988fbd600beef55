package csstree

// Batched lookups: decision-support plans rarely need one key — an indexed
// nested-loop join probes millions (§2.2).  The paper prices a lookup at one
// cache miss per level; a batch pays those misses together instead of one
// after another.  Probes descend in groups of groupWidth, one level per
// pass: a pass is ONE call into the level-pass kernel of internal/binsearch,
// which searches every probe's node, stores its child and prefetches the
// child's line, so by the time the next pass reads a node its miss has been
// in flight for a whole group's worth of work.  After Depth passes every
// probe is on a leaf: the leaf lines are prefetched the same way, one
// leaf-pass call (binsearch.LeafLowerBounds) finds every probe's lower
// bound in its leaf, and a loop finishes each answer — Search's match test,
// EqualRange's duplicate scan — on the line just read, rather than in a
// second walk over the key array after the lines have gone cold.
//
// Tree.descend is the only copy of that descent: the three batch methods
// call it, with the fan-out read from the geometry whichever build made the
// tree.  A batch tail, or a batch shorter than a group, is simply a shorter
// group.
//
// The answers are bit-identical to the scalar Search/LowerBound/EqualRange;
// only the schedule of memory accesses changes.

import "cssidx/internal/binsearch"

// groupWidth is the number of probes descended in lockstep.  The kernel's
// prefetches, not the out-of-order window, carry the overlap, so the width
// is set by how long a miss takes against how long a probe's node search
// does: 64 searches cover a DRAM round trip with room to spare, and the
// group's state (three 256-byte arrays) stays in L1 on the stack.  Widths
// 16, 32 and 128 measured no better.
const groupWidth = 64

// batchOp selects what descend stores for each probe.
type batchOp uint8

const (
	// batchLowerBound stores LowerBound(probe) into first.
	batchLowerBound batchOp = iota
	// batchSearch stores Search(probe) into first: the leftmost position,
	// or -1 if the probe is absent.
	batchSearch
	// batchEqualRange stores EqualRange(probe) into (first, last).
	batchEqualRange
)

// descend answers every probe against the tree.  first (and, for
// batchEqualRange, last) must be as long as probes; last is otherwise
// unused.  It allocates nothing.
func (t *Tree) descend(op batchOp, probes []uint32, first, last []int32) {
	g, dir, keys := &t.g, t.dir, t.keys
	if len(first) != len(probes) || (op == batchEqualRange && len(last) != len(probes)) {
		panic("csstree: probes/out length mismatch")
	}
	var nodes, los, his, lbs [groupWidth]int32
	for i := 0; i < len(probes); i += groupWidth {
		group := probes[i:min(i+groupWidth, len(probes))]
		n := len(group)
		// Every probe starts at the root.  Leaves sit on the two deepest
		// levels only, so the kernel's "already on a leaf" skip fires on the
		// last pass alone.  A tree of one leaf has Depth 0: node 0 is that
		// leaf and no pass runs.
		clear(nodes[:n])
		for pass := 0; pass < g.Depth; pass++ {
			binsearch.DescendLevel(dir, g.M, g.Fanout, g.LNode, group, nodes[:n])
		}
		for j, d := range nodes[:n] {
			lo, hi := g.LeafRange(int(d))
			los[j], his[j] = int32(lo), int32(hi)
		}
		binsearch.PrefetchAt(keys, los[:n])
		binsearch.LeafLowerBounds(keys, los[:n], his[:n], group, lbs[:n])
		for j, p := range group {
			pos := int(lbs[j])
			switch op {
			case batchSearch:
				if pos >= len(keys) || keys[pos] != p {
					pos = -1
				}
			case batchEqualRange:
				end := pos
				for end < len(keys) && keys[end] == p {
					end++
				}
				last[i+j] = int32(end)
			}
			first[i+j] = int32(pos)
		}
	}
}

// LowerBoundBatch computes LowerBound for every probe into out
// (len(out) must equal len(probes)).
func (t *Tree) LowerBoundBatch(probes []uint32, out []int32) {
	t.descend(batchLowerBound, probes, out, nil)
}

// SearchBatch computes Search for every probe into out (len(out) must equal
// len(probes)): the position of the leftmost occurrence, or -1 if absent.
func (t *Tree) SearchBatch(probes []uint32, out []int32) {
	t.descend(batchSearch, probes, out, nil)
}

// EqualRangeBatch computes EqualRange for every probe: first and last receive
// the half-open position range of each probe's occurrences (all three slices
// must have equal length).
func (t *Tree) EqualRangeBatch(probes []uint32, first, last []int32) {
	t.descend(batchEqualRange, probes, first, last)
}

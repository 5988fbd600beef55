package csstree

// Batched lookups: decision-support plans rarely need one key — an indexed
// nested-loop join probes millions (§2.2).  The paper prices a lookup at one
// cache miss per level; a batch pays those misses together instead of one
// after another.  Probes descend in groups of groupWidth, one level per
// pass: a pass is ONE call into the level-pass kernel of internal/binsearch,
// which searches every probe's node, stores its child and prefetches the
// child's line, so by the time the next pass reads a node its miss has been
// in flight for a whole group's worth of work.  After Depth passes every
// probe is on a leaf, and the leaf-locate pass (binsearch.LocateLeaves, one
// call) maps every probe's leaf to its window of the array and prefetches
// its line.  Where binsearch.CanAnswerLeaves holds (the simd tier, 16-key
// leaves) one more call, the leaf-answer pass, stores each op's answer —
// the lower bound, Search's match test, EqualRange's run — from the line
// just read, and Go finishes only the probes it hands back: a partial or
// dangling leaf, a probe above its leaf's last key, or an EqualRange run
// reaching the leaf's end.  Every other tier and leaf size finishes each
// probe in Go the same way.
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
// group's state (four 256-byte arrays) stays in L1 on the stack.  Widths
// 16, 32 and 128 measured no better.
const groupWidth = 64

// descend answers every probe against the tree.  first (and, for
// OpEqualRange, last) must be as long as probes; last is otherwise unused.
// It allocates nothing.
func (t *Tree) descend(op binsearch.LeafOp, probes []uint32, first, last []int32) {
	g, dir, keys := &t.g, t.dir, t.keys
	if len(first) != len(probes) || (op == binsearch.OpEqualRange && len(last) != len(probes)) {
		panic("csstree: probes/out length mismatch")
	}
	answer := binsearch.CanAnswerLeaves(g.M)
	var nodes, los, his, todo [groupWidth]int32
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
		if !binsearch.LocateLeaves(keys, g.M, g.MarkKeys, g.PaddedKeys, g.BottomEnd, nodes[:n], los[:n], his[:n]) {
			for j, d := range nodes[:n] {
				lo, hi := g.LeafRange(int(d))
				los[j], his[j] = int32(lo), int32(hi)
			}
		}
		if !answer {
			for j, p := range group {
				t.finish(op, p, int(los[j]), int(his[j]), i+j, first, last)
			}
			continue
		}
		var lastGroup []int32
		if op == binsearch.OpEqualRange {
			lastGroup = last[i : i+n]
		}
		left := binsearch.AnswerLeaves(op, keys, group, los[:n], his[:n], first[i:i+n], lastGroup, todo[:n])
		for _, j := range todo[:left] {
			t.finish(op, group[j], int(los[j]), int(his[j]), i+int(j), first, last)
		}
	}
}

// finish answers probe p, which the descent has brought to the leaf
// keys[lo:hi], into first[at] (and last[at]) by the scalar methods' own
// steps.
func (t *Tree) finish(op binsearch.LeafOp, p uint32, lo, hi, at int, first, last []int32) {
	keys := t.keys
	pos := lo + binsearch.NodeLowerBound(keys[lo:hi], hi-lo, p)
	switch op {
	case binsearch.OpSearch:
		if pos >= len(keys) || keys[pos] != p {
			pos = -1
		}
	case binsearch.OpEqualRange:
		end := pos
		for end < len(keys) && keys[end] == p {
			end++
		}
		last[at] = int32(end)
	}
	first[at] = int32(pos)
}

// LowerBoundBatch computes LowerBound for every probe into out
// (len(out) must equal len(probes)).
func (t *Tree) LowerBoundBatch(probes []uint32, out []int32) {
	t.descend(binsearch.OpLowerBound, probes, out, nil)
}

// SearchBatch computes Search for every probe into out (len(out) must equal
// len(probes)): the position of the leftmost occurrence, or -1 if absent.
func (t *Tree) SearchBatch(probes []uint32, out []int32) {
	t.descend(binsearch.OpSearch, probes, out, nil)
}

// EqualRangeBatch computes EqualRange for every probe: first and last receive
// the half-open position range of each probe's occurrences (all three slices
// must have equal length).
func (t *Tree) EqualRangeBatch(probes []uint32, first, last []int32) {
	t.descend(binsearch.OpEqualRange, probes, first, last)
}

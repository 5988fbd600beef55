// Batched probing: the system-wide execution model for multi-key lookups.
//
// Decision-support operations rarely probe one key: an indexed nested-loop
// join probes once per outer row (§2.2), an IN-list selection once per list
// element.  Descending a group of independent probes through the directory in
// lockstep overlaps their cache misses (memory-level parallelism) and reuses
// cache-resident upper levels across the group — the §8 direction of
// exploiting cache behaviour across whole operations rather than single
// lookups.  Batched results are bit-identical to the scalar methods; only the
// memory-access schedule changes.
//
// BatchIndex and BatchOrderedIndex are the batch counterparts of Index and
// OrderedIndex.  The uint32 CSS-trees implement them natively with the
// lockstep kernel of internal/csstree (Generic[K] has a lockstep comparison
// descent of its own for every key type); AsBatch/AsBatchOrdered adapt
// any other method through a scalar loop, so every Kind can be driven through
// the same batched call sites.  Positions are int32 (the paper's 4-byte RID,
// Table 1), which keeps result buffers at half the size of []int and lets one
// buffer be reused across batches.

package cssidx

import (
	"cssidx/internal/parallel"
	"cssidx/internal/sortu32"
)

// BatchIndex is the batched counterpart of Index: one call answers a whole
// probe batch.  Results are bit-identical to calling the scalar method per
// probe.
type BatchIndex interface {
	Index
	// SearchBatch stores Search(probes[i]) into out[i] for every probe;
	// len(out) must equal len(probes).
	SearchBatch(probes []Key, out []int32)
}

// BatchOrderedIndex adds the batched order-based lookups.
type BatchOrderedIndex interface {
	OrderedIndex
	BatchIndex
	// LowerBoundBatch stores LowerBound(probes[i]) into out[i];
	// len(out) must equal len(probes).
	LowerBoundBatch(probes []Key, out []int32)
	// EqualRangeBatch stores EqualRange(probes[i]) into (first[i], last[i]);
	// all three slices must have equal length.
	EqualRangeBatch(probes []Key, first, last []int32)
}

// DefaultBatchSize is the probe chunk size the higher layers (mmdb joins and
// IN-lists, the bench harness) use when none is configured: large enough to
// amortise the batch setup and keep many independent misses in flight, small
// enough that probe and result buffers stay cache-resident.
const DefaultBatchSize = 512

// AsBatch returns idx's native batched form when it has one, and otherwise
// wraps idx so SearchBatch runs the scalar Search per probe.  Either way the
// result answers batches for every Kind.
func AsBatch(idx Index) BatchIndex {
	if b, ok := idx.(BatchIndex); ok {
		return b
	}
	if ord, ok := idx.(OrderedIndex); ok {
		return scalarBatchOrdered{ord}
	}
	return scalarBatch{idx}
}

// AsBatchOrdered returns idx's native batched ordered form when it has one,
// and otherwise wraps the scalar methods.
func AsBatchOrdered(idx OrderedIndex) BatchOrderedIndex {
	if b, ok := idx.(BatchOrderedIndex); ok {
		return b
	}
	return scalarBatchOrdered{idx}
}

// scalarBatch adapts a scalar Index (hash) to BatchIndex.
type scalarBatch struct{ Index }

func (s scalarBatch) SearchBatch(probes []Key, out []int32) {
	checkBatchLen(len(probes), len(out))
	for i, p := range probes {
		out[i] = int32(s.Index.Search(p))
	}
}

// scalarBatchOrdered adapts a scalar OrderedIndex to BatchOrderedIndex.
type scalarBatchOrdered struct{ OrderedIndex }

func (s scalarBatchOrdered) SearchBatch(probes []Key, out []int32) {
	checkBatchLen(len(probes), len(out))
	for i, p := range probes {
		out[i] = int32(s.OrderedIndex.Search(p))
	}
}

func (s scalarBatchOrdered) LowerBoundBatch(probes []Key, out []int32) {
	checkBatchLen(len(probes), len(out))
	for i, p := range probes {
		out[i] = int32(s.OrderedIndex.LowerBound(p))
	}
}

func (s scalarBatchOrdered) EqualRangeBatch(probes []Key, first, last []int32) {
	checkBatchLen(len(probes), len(first))
	checkBatchLen(len(probes), len(last))
	for i, p := range probes {
		f, l := s.OrderedIndex.EqualRange(p)
		first[i], last[i] = int32(f), int32(l)
	}
}

func checkBatchLen(probes, out int) {
	if probes != out {
		panic("cssidx: probes/results length mismatch")
	}
}

// --- sort-probes-first schedule ---------------------------------------------

// SortedBatch wraps a BatchOrderedIndex with the sort-probes-first schedule:
// each batch is radix-sorted by key and deduplicated before the lockstep
// descent, and results scatter back to input order.  Sorted probes walk
// neighbouring root-to-leaf paths (each directory node is touched once per
// batch) and repeated probes descend once — the probe-scheduling payoff of
// skewed workloads, where a handful of hot keys dominate the stream.
// Results stay bit-identical to the scalar methods.
//
// A SortedBatch reuses internal scratch buffers across calls and is
// therefore NOT safe for concurrent use; give each goroutine its own.
type SortedBatch struct {
	b BatchOrderedIndex

	u         sortu32.Unique
	res, resL []int32
}

// NewSortedBatch wraps idx (made batchable with AsBatchOrdered if needed)
// with the sort-probes-first schedule.
func NewSortedBatch(idx OrderedIndex) *SortedBatch {
	return &SortedBatch{b: AsBatchOrdered(idx)}
}

// Name identifies the underlying method.
func (s *SortedBatch) Name() string { return s.b.Name() }

// SpaceBytes returns the underlying structure's space.
func (s *SortedBatch) SpaceBytes() int { return s.b.SpaceBytes() }

// Search is the scalar passthrough.
func (s *SortedBatch) Search(key Key) int { return s.b.Search(key) }

// LowerBound is the scalar passthrough.
func (s *SortedBatch) LowerBound(key Key) int { return s.b.LowerBound(key) }

// EqualRange is the scalar passthrough.
func (s *SortedBatch) EqualRange(key Key) (first, last int) { return s.b.EqualRange(key) }

// plan sorts and dedups a batch: the distinct probes ascending, and probe
// perm[j]'s answer at distinct slot expand[j].
func (s *SortedBatch) plan(probes []Key) (distinct, perm []uint32, expand []int32) {
	distinct, perm, expand = s.u.Sort(probes, parallel.Options{Workers: 1})
	if cap(s.res) < len(distinct) {
		s.res, s.resL = make([]int32, len(distinct)), make([]int32, len(distinct))
	}
	return distinct, perm, expand
}

// SearchBatch answers the batch with the sorted schedule.
func (s *SortedBatch) SearchBatch(probes []Key, out []int32) {
	checkBatchLen(len(probes), len(out))
	distinct, perm, expand := s.plan(probes)
	s.b.SearchBatch(distinct, s.res[:len(distinct)])
	for j, e := range expand {
		out[perm[j]] = s.res[e]
	}
}

// LowerBoundBatch answers the batch with the sorted schedule.
func (s *SortedBatch) LowerBoundBatch(probes []Key, out []int32) {
	checkBatchLen(len(probes), len(out))
	distinct, perm, expand := s.plan(probes)
	s.b.LowerBoundBatch(distinct, s.res[:len(distinct)])
	for j, e := range expand {
		out[perm[j]] = s.res[e]
	}
}

// EqualRangeBatch answers the batch with the sorted schedule.
func (s *SortedBatch) EqualRangeBatch(probes []Key, first, last []int32) {
	checkBatchLen(len(probes), len(first))
	checkBatchLen(len(probes), len(last))
	distinct, perm, expand := s.plan(probes)
	s.b.EqualRangeBatch(distinct, s.res[:len(distinct)], s.resL[:len(distinct)])
	for j, e := range expand {
		first[perm[j]], last[perm[j]] = s.res[e], s.resL[e]
	}
}

// --- native batch methods of the uint32 CSS-trees ---------------------------

func (x cssTree) SearchBatch(probes []Key, out []int32)     { x.t.SearchBatch(probes, out) }
func (x cssTree) LowerBoundBatch(probes []Key, out []int32) { x.t.LowerBoundBatch(probes, out) }
func (x cssTree) EqualRangeBatch(probes []Key, first, last []int32) {
	x.t.EqualRangeBatch(probes, first, last)
}

// --- generic CSS-tree batch descent -----------------------------------------

// genericBatchWidth is the lockstep width of the comparison descent below:
// with one lowerBoundG call per visit and no prefetch, the overlap comes
// from the out-of-order window, which sixteen independent node reads fill.
const genericBatchWidth = 16

// LowerBoundBatch computes LowerBound for every probe into out
// (len(out) must equal len(probes)), descending the group in lockstep.
func (t *Generic[K]) LowerBoundBatch(probes []K, out []int32) {
	checkBatchLen(len(probes), len(out))
	g := &t.g
	if g.Internal == 0 {
		for i, p := range probes {
			out[i] = int32(t.LowerBound(p))
		}
		return
	}
	m, fan, lNode, routing := g.M, g.Fanout, g.LNode, g.Routing()
	var nodes [genericBatchWidth]int32
	i := 0
	for ; i+genericBatchWidth <= len(probes); i += genericBatchWidth {
		group := probes[i : i+genericBatchWidth]
		for j := range nodes {
			nodes[j] = 0
		}
		// Leaves exist only on the two deepest levels, so the first Depth-1
		// passes are internal for every probe — no depth checks needed.
		for pass := 0; pass < g.Depth-1; pass++ {
			for j := 0; j < genericBatchWidth; j++ {
				d := int(nodes[j])
				base := d * m
				k := lowerBoundG(t.dir[base:base+routing], group[j])
				nodes[j] = int32(d*fan + 1 + k)
			}
		}
		for j := 0; j < genericBatchWidth; j++ {
			d := int(nodes[j])
			if d > lNode {
				continue
			}
			base := d * m
			k := lowerBoundG(t.dir[base:base+routing], group[j])
			nodes[j] = int32(d*fan + 1 + k)
		}
		for j := 0; j < genericBatchWidth; j++ {
			lo, hi := g.LeafRange(int(nodes[j]))
			out[i+j] = int32(lo + lowerBoundG(t.keys[lo:hi], group[j]))
		}
	}
	for ; i < len(probes); i++ {
		out[i] = int32(t.LowerBound(probes[i]))
	}
}

// SearchBatch computes Search for every probe into out: the position of the
// leftmost occurrence, or -1 if absent.
func (t *Generic[K]) SearchBatch(probes []K, out []int32) {
	t.LowerBoundBatch(probes, out)
	n := int32(len(t.keys))
	for i, p := range probes {
		if lb := out[i]; lb >= n || t.keys[lb] != p {
			out[i] = -1
		}
	}
}

// EqualRangeBatch computes EqualRange for every probe into (first, last).
func (t *Generic[K]) EqualRangeBatch(probes []K, first, last []int32) {
	checkBatchLen(len(probes), len(last))
	t.LowerBoundBatch(probes, first)
	n := int32(len(t.keys))
	for i, p := range probes {
		end := first[i]
		for end < n && t.keys[end] == p {
			end++
		}
		last[i] = end
	}
}

package simidx_test

// Differential legs for the sharded delta layer: an index absorbing insert
// and delete batches into its delta (an insert run and a tombstone run per
// shard) must answer every surface — scalar, batch, ordered iteration —
// bit-identically to a fully rebuilt twin and to the sorted slice oracle,
// across interleaved appends, absorbed deletes, manual compactions and
// size-triggered folds.

import (
	"math"
	"slices"
	"testing"

	"cssidx"
	"cssidx/internal/workload"
)

// checkShardedState compares one live sharded index against the oracle on
// every read surface (scalar, batch, ascend), without rebuilding it.
func checkShardedState(t *testing.T, tag string, x *cssidx.ShardedIndex[uint32], o sliceOracle, probes []uint32) {
	t.Helper()
	for _, p := range probes {
		if got, want := x.Search(p), o.search(p); got != want {
			t.Fatalf("%s: Search(%d)=%d want %d", tag, p, got, want)
		}
		if got, want := x.LowerBound(p), o.lowerBound(p); got != want {
			t.Fatalf("%s: LowerBound(%d)=%d want %d", tag, p, got, want)
		}
		gf, gl := x.EqualRange(p)
		wf, wl := o.equalRange(p)
		if gf != wf || gl != wl {
			t.Fatalf("%s: EqualRange(%d)=[%d,%d) want [%d,%d)", tag, p, gf, gl, wf, wl)
		}
	}
	out := make([]int32, len(probes))
	first := make([]int32, len(probes))
	last := make([]int32, len(probes))
	x.SearchBatch(probes, out)
	x.EqualRangeBatch(probes, first, last)
	lb := make([]int32, len(probes))
	x.LowerBoundBatch(probes, lb)
	for i, p := range probes {
		if got, want := int(out[i]), o.search(p); got != want {
			t.Fatalf("%s: SearchBatch(%d)=%d want %d", tag, p, got, want)
		}
		if got, want := int(lb[i]), o.lowerBound(p); got != want {
			t.Fatalf("%s: LowerBoundBatch(%d)=%d want %d", tag, p, got, want)
		}
		wf, wl := o.equalRange(p)
		if int(first[i]) != wf || int(last[i]) != wl {
			t.Fatalf("%s: EqualRangeBatch(%d)=[%d,%d) want [%d,%d)", tag, p, first[i], last[i], wf, wl)
		}
	}
	if x.Len() != len(o.keys) {
		t.Fatalf("%s: Len=%d want %d", tag, x.Len(), len(o.keys))
	}
	i := 0
	x.Ascend(0, math.MaxUint32, func(pos int, key uint32) bool {
		if pos != i || key != o.keys[i] {
			t.Fatalf("%s: Ascend step %d gave (%d,%d), want (%d,%d)", tag, i, pos, key, i, o.keys[i])
		}
		i++
		return true
	})
	if i != len(o.keys) {
		t.Fatalf("%s: Ascend visited %d keys, want %d", tag, i, len(o.keys))
	}
}

// foldedTwin is the always-fold oracle: a sharded index that calls Compact
// after every batch, so it never serves from a delta.
type foldedTwin struct {
	t testing.TB
	*cssidx.ShardedIndex[uint32]
}

func newFoldedTwin(t testing.TB, keys []uint32) foldedTwin {
	return foldedTwin{t, cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 4})}
}

// apply inserts ins, deletes del, folds both in, and asserts no delta key
// is left outstanding.
func (f foldedTwin) apply(ins, del []uint32) {
	f.t.Helper()
	f.Insert(ins...)
	f.Delete(del...)
	f.Compact()
	if st := f.DeltaStats(); st.DeltaKeys != 0 {
		f.t.Fatalf("always-fold twin left a delta after Compact: %+v", st)
	}
}

// TestDifferentialDeltaVsFolded grows a delta-absorbing index and an
// always-fold twin through the same interleaved batch sequence — absorbed
// inserts, absorbed deletes (of run keys, base keys, more occurrences than
// exist, absent keys), a manual Compact, and a size-triggered fold —
// comparing both to the oracle after every step.
func TestDifferentialDeltaVsFolded(t *testing.T) {
	g := workload.New(91)
	keys := g.SortedWithDuplicates(5000, 3)
	live := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 4})
	defer live.Close()
	folded := newFoldedTwin(t, keys)
	defer folded.Close()

	ok := slices.Clone(keys)
	apply := func(ins, del []uint32) {
		live.Insert(ins...)
		live.Delete(del...)
		live.Sync()
		folded.apply(ins, del)
		ok = append(ok, ins...)
		slices.Sort(ok)
		for _, k := range del {
			if i, found := slices.BinarySearch(ok, k); found {
				ok = append(ok[:i], ok[i+1:]...)
			}
		}
	}
	check := func(tag string) {
		o := sliceOracle{keys: ok}
		probes := probeSet(ok, g)
		checkShardedState(t, tag+"/delta", live, o, probes)
		checkShardedState(t, tag+"/folded", folded.ShardedIndex, o, probes)
	}

	// Six insert-only rounds grow each shard's insert run.  Every miss lands
	// in the last shard (the base spans the bottom of the key space), so
	// the volumes below keep that shard's delta under the 512-key fold
	// threshold however the rebuilder splits the batches: the live index
	// absorbs everything until Compact.
	var inserted []uint32
	for round := 0; round < 6; round++ {
		ins := append(g.Misses(ok, 35), g.Lookups(ok, 15)...)
		inserted = append(inserted, ins[:10]...)
		apply(ins, nil)
		check("absorb")
	}
	st := live.DeltaStats()
	if st.Appends == 0 || st.DeltaKeys == 0 {
		t.Fatalf("delta layer never engaged: %+v", st)
	}

	// The delete leg: the live index absorbs what the twin folds.  Run keys
	// cancel out of the insert run; base keys leave tombstones — one key
	// deleted more often than it occurs, so some deletes must be ignored —
	// and absent keys change nothing.
	del := append(slices.Clone(inserted), g.Lookups(keys, 80)...)
	del = append(del, keys[0], keys[0], keys[0], keys[0], keys[0])
	del = append(del, g.Misses(ok, 20)...)
	folds := st.Folds
	apply(g.Misses(ok, 25), del)
	check("delete-absorb")
	st = live.DeltaStats()
	if st.Folds != folds || st.Tombstones == 0 {
		t.Fatalf("deletes were not absorbed as tombstones: %+v", st)
	}
	apply(nil, g.Lookups(ok, 60))
	check("delete-only")

	// More absorbs, then a manual compaction: all runs fold, reads hold.
	apply(g.Misses(ok, 120), nil)
	check("re-absorb")
	if st := live.DeltaStats(); st.Folds != 0 {
		t.Fatalf("the live index folded before Compact: %+v", st)
	}
	live.Compact()
	if st := live.DeltaStats(); st.DeltaKeys != 0 || st.Runs != 0 {
		t.Fatalf("Compact left delta behind: %+v", st)
	}
	check("compacted")

	// Finally a size-triggered fold: tighten the policy via a big batch on
	// a fresh index is not possible in place, so verify the default policy
	// folds by itself on a small-base index.
	smallBase := g.SortedUniform(64)
	def := cssidx.NewSharded(smallBase, cssidx.ShardedOptions[uint32]{Shards: 2})
	defer def.Close()
	okd := slices.Clone(smallBase)
	big := g.Misses(okd, 2000) // ≥ MinFoldKeys and ≥ base/512 per shard
	def.Insert(big...)
	def.Sync()
	okd = append(okd, big...)
	slices.Sort(okd)
	if st := def.DeltaStats(); st.Folds == 0 {
		t.Fatalf("oversized batch did not trigger a fold: %+v", st)
	}
	checkShardedState(t, "size-fold", def, sliceOracle{keys: okd}, probeSet(okd, g))
}

// FuzzDifferentialDeltaAppends fuzzes append sequences through the delta
// layer.  Bytes decode as: byte 0 = initial key count (scaled), then pairs
// of (batch-size byte, seed byte) each driving one absorbed insert batch;
// the index is checked against the oracle after every batch and again
// after a final Compact.
func FuzzDifferentialDeltaAppends(f *testing.F) {
	f.Add([]byte{8, 3, 1, 5, 2, 0, 9})
	f.Add([]byte{0, 1, 1})
	f.Add([]byte{255, 16, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			t.Skip()
		}
		g := workload.New(int64(data[0]) + 1)
		keys := g.SortedWithDuplicates(int(data[0])*8, 2)
		x := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 3})
		defer x.Close()
		folded := newFoldedTwin(t, keys)
		defer folded.Close()
		ok := slices.Clone(keys)
		for i := 1; i+1 < len(data); i += 2 {
			n := int(data[i])
			if n == 0 {
				continue
			}
			gb := workload.New(int64(data[i+1]) + 7)
			ins := gb.Misses(ok, n)
			x.Insert(ins...)
			x.Sync()
			folded.apply(ins, nil)
			ok = append(ok, ins...)
			slices.Sort(ok)
			o, probes := sliceOracle{keys: ok}, probeSet(ok, gb)
			checkShardedState(t, "fuzz-absorb", x, o, probes)
			checkShardedState(t, "fuzz-folded", folded.ShardedIndex, o, probes)
		}
		x.Compact()
		checkShardedState(t, "fuzz-compacted", x, sliceOracle{keys: ok}, probeSet(ok, g))
	})
}

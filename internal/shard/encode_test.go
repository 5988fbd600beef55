package shard_test

import (
	"bytes"
	"slices"
	"testing"

	"cssidx"
	"cssidx/internal/shard"
	"cssidx/internal/workload"
)

// TestSaveLoadWithTombstones saves a view captured with BOTH runs
// outstanding — absorbed inserts and tombstoned base keys — and reloads it:
// the snapshot must hold exactly the oracle's keys, no tombstoned key and
// every absorbed one.
func TestSaveLoadWithTombstones(t *testing.T) {
	g := workload.New(31)
	keys := g.SortedWithDuplicates(9000, 3)
	x := shard.NewEqual(keys, 4, 16)
	shard.NeverFold(x)
	defer x.Close()
	ins := append(g.Misses(keys, 300), g.Lookups(keys, 100)...)
	del := append(g.Lookups(keys, 200), keys[0], keys[0], keys[0], keys[len(keys)-1])
	del = append(del, ins[:40]...)
	x.Insert(ins...)
	x.Delete(del...)
	x.Sync()
	want := append(slices.Clone(keys), ins...)
	slices.Sort(want)
	for _, k := range del {
		if i, ok := slices.BinarySearch(want, k); ok {
			want = slices.Delete(want, i, i+1)
		}
	}
	st := x.DeltaStats()
	if st.Tombstones == 0 || st.DeltaKeys == st.Tombstones || st.Folds != 0 {
		t.Fatalf("view should carry both runs: %+v", st)
	}

	var buf bytes.Buffer
	if err := shard.Save(&buf, x.Snapshot(), 0); err != nil {
		t.Fatal(err)
	}
	loaded, err := cssidx.LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != len(want) || loaded.ShardCount() != x.ShardCount() {
		t.Fatalf("reloaded %d keys in %d shards, want %d in %d", loaded.Len(), loaded.ShardCount(), len(want), x.ShardCount())
	}
	if st := loaded.DeltaStats(); st.DeltaKeys != 0 || st.BaseKeys != len(want) {
		t.Fatalf("a reloaded index starts with no delta: %+v", st)
	}
	v := loaded.Snapshot()
	for pos, k := range want {
		if got := v.Key(pos); got != k {
			t.Fatalf("reloaded Key(%d)=%d, oracle has %d", pos, got, k)
		}
	}
	for _, k := range del {
		f, l := loaded.EqualRange(k)
		lo, _ := slices.BinarySearch(want, k)
		hi, _ := slices.BinarySearch(want, k+1)
		if f != lo || l != hi {
			t.Fatalf("EqualRange(%d)=[%d,%d) after reload, oracle [%d,%d)", k, f, l, lo, hi)
		}
	}
}

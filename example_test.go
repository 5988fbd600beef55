package cssidx_test

import (
	"bytes"
	"fmt"

	"cssidx"
)

// The sorted array is the leaf level; Search returns positions in it.
func ExampleNewLevelCSS() {
	keys := []cssidx.Key{2, 3, 5, 8, 13, 21, 34}
	idx := cssidx.NewLevelCSS(keys, cssidx.DefaultNodeBytes)
	fmt.Println(idx.Search(13))
	fmt.Println(idx.Search(14))
	fmt.Println(idx.LowerBound(9))
	// Output:
	// 4
	// -1
	// 4
}

// EqualRange enumerates duplicates: the paper's §3.6 access pattern.
func ExampleOrderedIndex_equalRange() {
	keys := []cssidx.Key{1, 4, 4, 4, 7, 9}
	idx := cssidx.NewFullCSS(keys, cssidx.DefaultNodeBytes)
	first, last := idx.EqualRange(4)
	fmt.Println(first, last)
	// Output: 1 4
}

// New builds any of the paper's methods behind one interface.
func ExampleNew() {
	keys := []cssidx.Key{10, 20, 30, 40, 50}
	for _, kind := range []cssidx.Kind{cssidx.KindBinarySearch, cssidx.KindBPlusTree, cssidx.KindLevelCSS} {
		idx := cssidx.New(kind, keys, cssidx.Options{})
		fmt.Printf("%s: %d\n", idx.Name(), idx.Search(30))
	}
	// Output:
	// array binary search: 2
	// B+-tree: 2
	// level CSS-tree: 2
}

// Batched probing answers a whole probe batch with one lockstep descent;
// results are bit-identical to the scalar methods.  SortedBatch adds the
// sort-probes-first schedule for skewed streams (note the repeated 21s
// descend once).
func ExampleAsBatchOrdered() {
	keys := []cssidx.Key{2, 3, 5, 8, 13, 21, 34}
	idx := cssidx.NewLevelCSS(keys, cssidx.DefaultNodeBytes)

	probes := []cssidx.Key{13, 4, 21, 21, 21, 40}
	out := make([]int32, len(probes))
	cssidx.AsBatchOrdered(idx).SearchBatch(probes, out)
	fmt.Println(out)

	cssidx.NewSortedBatch(idx).LowerBoundBatch(probes, out)
	fmt.Println(out)
	// Output:
	// [4 -1 5 5 5 -1]
	// [4 2 5 5 5 7]
}

// ShardedIndex serves lock-free concurrent lookups while batched updates
// are absorbed by background epoch-swap rebuilds.
func ExampleNewSharded() {
	keys := []cssidx.Key{2, 3, 5, 8, 13, 21, 34}
	idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[cssidx.Key]{Shards: 2})
	defer idx.Close()
	fmt.Println(idx.Search(13))
	idx.Insert(14, 15)
	idx.Delete(2)
	idx.Sync() // wait for the epoch-swap
	fmt.Println(idx.Search(14))
	idx.Ascend(10, 20, func(pos int, key cssidx.Key) bool {
		fmt.Println(pos, key)
		return true
	})
	// Output:
	// 4
	// 4
	// 3 13
	// 4 14
	// 5 15
}

// A sharded snapshot holds the keys and the shard boundaries; loading it
// rebuilds every shard's CSS-tree from its keys.
func ExampleSaveSharded() {
	keys := []cssidx.Key{1, 2, 3, 5, 8, 13}
	idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[cssidx.Key]{Shards: 2})
	defer idx.Close()
	idx.Insert(21)
	var buf bytes.Buffer
	if err := cssidx.SaveSharded(&buf, idx); err != nil {
		fmt.Println("save:", err)
		return
	}
	restored, err := cssidx.LoadSharded(&buf)
	if err != nil {
		fmt.Println("load:", err)
		return
	}
	defer restored.Close()
	fmt.Println(restored.Len(), restored.ShardCount(), restored.Search(8), restored.Search(21))
	// Output: 7 2 4 6
}

// The parallel engine fans one large batch across workers; results are
// bit-identical to the scalar methods at every worker count.
func ExampleNewParallel() {
	keys := make([]cssidx.Key, 100000)
	for i := range keys {
		keys[i] = cssidx.Key(2 * i)
	}
	idx := cssidx.NewLevelCSS(keys, cssidx.DefaultNodeBytes)
	par := cssidx.NewParallel(idx, cssidx.ParallelOptions{}) // defaults: GOMAXPROCS workers

	probes := []cssidx.Key{0, 19998, 199998, 5}
	out := make([]int32, len(probes))
	par.SearchBatch(probes, out)
	fmt.Println(out)
	// Output: [0 9999 99999 -1]
}

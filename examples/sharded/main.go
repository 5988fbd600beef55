// Sharded: the §2.3 rebuild cycle as a concurrent serving layer.  A
// ShardedIndex range-partitions the key space, serves lock-free lookups
// from every CPU, and absorbs update batches in the background: a large
// batch rebuilds each affected shard's CSS-tree from scratch, a small one
// is absorbed into the shard's delta (inserted keys and tombstones beside
// the unchanged tree), and either way the result is published with an
// epoch-swap, so readers never block and never see a half-updated
// structure.
//
// The example starts a pool of reader goroutines over a 2M-key index, then
// pushes "nightly" batches and a daytime trickle of small inserts and
// deletes through the rebuilder while the readers keep serving, and finally
// cross-checks every answer against a single-threaded binary search over
// the final key set.
//
// Run: go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cssidx"
	"cssidx/internal/workload"
)

func main() {
	g := workload.New(11)
	keys := g.SortedUniform(2_000_000)

	idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 8})
	defer idx.Close()
	fmt.Printf("built sharded index: %d keys across %d shards\n", idx.Len(), idx.ShardCount())

	// Readers: hammer the index from every CPU while updates flow.
	probes := g.Lookups(keys, 100_000)
	stop := make(chan struct{})
	var served atomic.Int64
	var wg sync.WaitGroup
	readers := runtime.GOMAXPROCS(0)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := int64(0); ; n++ {
				select {
				case <-stop:
					served.Add(n)
					return
				default:
				}
				if idx.Search(probes[i%len(probes)]) < 0 {
					log.Fatal("present key not found")
				}
				i++
			}
		}(r * 8191)
	}

	// Writer: three "nights" of batch updates, absorbed by epoch-swaps
	// while the readers above keep running.
	all := append([]uint32(nil), keys...)
	var batch []uint32
	for night := 1; night <= 3; night++ {
		batch = g.SortedUniform(200_000)
		start := time.Now()
		idx.Insert(batch...)
		idx.Sync()
		all = append(all, batch...)
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for _, k := range batch[:1000] {
			if idx.Search(k) < 0 {
				log.Fatalf("night %d: batch key invisible after Sync", night)
			}
		}
		fmt.Printf("night %d: +%d keys absorbed in %v while serving\n",
			night, len(batch), time.Since(start).Round(time.Millisecond))
	}

	// Daytime trickle: small corrections — delete a few of last night's keys,
	// insert a few new ones.  Nothing is rebuilt; the shards' deltas carry
	// them until the next fold.
	trickleDel, trickleIns := batch[5000:5300], g.SortedUniform(500)
	idx.Delete(trickleDel...)
	idx.Insert(trickleIns...)
	idx.Sync()
	for _, k := range trickleDel {
		i := sort.Search(len(all), func(i int) bool { return all[i] >= k })
		all = append(all[:i], all[i+1:]...)
	}
	all = append(all, trickleIns...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	st := idx.DeltaStats()
	fmt.Printf("trickle absorbed: %d base keys, %d delta keys (%d tombstones), %d absorbs, %d folds\n",
		st.BaseKeys, st.DeltaKeys, st.Tombstones, st.Appends, st.Folds)
	close(stop)
	wg.Wait()

	swaps := uint64(0)
	for _, e := range idx.Epochs() {
		swaps += e - 1
	}
	fmt.Printf("served %d lookups concurrently with %d epoch swaps\n", served.Load(), swaps)

	// Cross-check the final state against plain binary search.
	check := g.Lookups(all, 20_000)
	bin := cssidx.NewBinarySearch(all)
	for _, k := range check {
		if idx.Search(k) != bin.Search(k) {
			log.Fatalf("sharded and binary search disagree on %d", k)
		}
	}
	lo, hi := all[len(all)/4], all[len(all)/2]
	count := 0
	idx.Ascend(lo, hi, func(pos int, key uint32) bool { count++; return true })
	want := bin.LowerBound(hi) - bin.LowerBound(lo)
	if count != want {
		log.Fatalf("range scan saw %d keys, binary search says %d", count, want)
	}
	fmt.Printf("lookups agree with binary search; range scan of %d keys agrees too\n", count)
}

package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cssidx/internal/workload"
)

// TestConcurrentReadersDuringEpochSwaps is the race-detector stress test for
// the serving layer: ≥8 reader goroutines hammer Search/LowerBound/
// EqualRange/range scans while the background rebuilder publishes well over
// 100 epoch-swaps.  Run with -race.  It asserts:
//
//   - no torn reads: every snapshot a reader observes is internally
//     consistent — the key found at a returned position matches, bounds are
//     in range, EqualRange brackets are sane;
//   - monotonic epoch visibility: the epoch a reader observes for any given
//     shard never decreases.
func TestConcurrentReadersDuringEpochSwaps(t *testing.T) {
	const (
		readers   = 8
		rounds    = 40
		batchSize = 256
		minSwaps  = 100
	)
	g := workload.New(600)
	keys := g.SortedUniform(20000)
	x := NewEqual(keys, 4, 16)
	defer x.Close()

	stop := make(chan struct{})
	var reads, readersPassed atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan string, readers)
	fail := func(msg string) {
		select {
		case errc <- msg:
		default:
		}
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			lastEpoch := make([]uint64, x.ShardCount())
			passed := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := x.Snapshot()
				for s, e := range v.Epochs() {
					if e < lastEpoch[s] {
						fail("epoch went backwards")
						return
					}
					lastEpoch[s] = e
				}
				if v.Len() == 0 {
					continue
				}
				// Point reads against the frozen view: position/key must agree.
				for i := 0; i < 16; i++ {
					p := v.Key(rng.Intn(v.Len()))
					pos := v.Search(p)
					if pos < 0 || v.Key(pos) != p {
						fail("Search returned a position whose key mismatches")
						return
					}
					lb := v.LowerBound(p)
					if lb < 0 || lb > pos || v.Key(lb) != p {
						fail("LowerBound inconsistent with Search")
						return
					}
					first, last := v.EqualRange(p)
					if !(first <= pos && pos < last) || first != lb {
						fail("EqualRange does not bracket the key")
						return
					}
				}
				// Lock-free reads straight off the index (crossing epochs):
				// the key must be found wherever the live shard placed it.
				p := v.Key(rng.Intn(v.Len()))
				live := x.shards[x.shardFor(p)].cur.Load()
				if live.search(p) < 0 && v.Search(p) >= 0 {
					// p was deleted by a swap that raced us; that is legal —
					// but only if an epoch actually advanced for its shard.
					if live.epoch == v.Epochs()[x.shardFor(p)] {
						fail("key vanished without an epoch-swap")
						return
					}
				}
				// A short range scan over the frozen view must be sorted.
				lo := v.Key(rng.Intn(v.Len()))
				it := v.Range(lo, lo+1000)
				prev, havePrev := uint32(0), false
				for {
					k, _, ok := it.Next()
					if !ok {
						break
					}
					if havePrev && k < prev {
						fail("range scan out of order")
						return
					}
					prev, havePrev = k, true
				}
				reads.Add(1)
				if !passed {
					passed = true
					readersPassed.Add(1)
				}
			}
		}(int64(r + 1))
	}

	// Writer: churn batches through every shard until well past minSwaps and
	// until every reader has completed a pass under churn — on a small box the
	// writer can finish its rounds before a reader is first scheduled — or the
	// deadline passes.
	rng := rand.New(rand.NewSource(99))
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; round < rounds || readersPassed.Load() < readers && time.Now().Before(deadline); round++ {
		batch := make([]uint32, batchSize)
		for i := range batch {
			batch[i] = uint32(rng.Int63n(workload.MaxKey))
		}
		x.Insert(batch...)
		x.Sync()
		x.Delete(batch...)
		x.Sync()
	}
	close(stop)
	wg.Wait()

	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	swaps := uint64(0)
	for _, e := range x.Epochs() {
		swaps += e - 1
	}
	if swaps < minSwaps {
		t.Fatalf("only %d epoch-swaps published, want ≥ %d", swaps, minSwaps)
	}
	if n := readersPassed.Load(); n < readers {
		t.Fatalf("only %d of %d readers completed a pass before the deadline", n, readers)
	}
	t.Logf("%d reader passes over %d epoch-swaps", reads.Load(), swaps)
}

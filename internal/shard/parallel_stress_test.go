package shard

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cssidx/internal/cpu"
	"cssidx/internal/parallel"
	"cssidx/internal/workload"
)

// TestParallelBatchesDuringEpochSwaps is the race stress test for the
// parallel batch engine: reader goroutines drive batched probes — each batch
// itself fanned across the engine's worker pool, taking turns between a
// uniform batch over one shard (input order), a hot-key batch over four
// (key order), a uniform batch over four (key order wherever the sorting
// network runs) and a uniform batch over four too large for the rule
// (input order) — while the background rebuilders publish epoch-swaps.
// Run with -race.  Each batch is verified bit-identical to the scalar
// methods of the same frozen View, which is
// exactly the engine's correctness contract: one snapshot epoch per batch,
// regardless of workers, probe order, or concurrent rebuilds.
func TestParallelBatchesDuringEpochSwaps(t *testing.T) {
	const (
		readers   = 4
		rounds    = 25
		writeSize = 200
		probeSize = 2000
		wideSize  = 10000 // above sortedMax: input order on four shards
		minSwaps  = 50
	)
	g := workload.New(601)
	keys := g.SortedUniform(30000)
	x, x1 := NewEqual(keys, 4, 16), NewEqual(keys, 1, 16)
	defer x.Close()
	defer x1.Close()
	// Force the pool on: more workers than cores, spans small enough that
	// every batch really fans out.
	for _, x := range []*Index{x, x1} {
		x.SetParallel(parallel.Options{Workers: 4, MinBatchPerWorker: 128})
	}

	stop := make(chan struct{})
	var batches atomic.Int64
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
			probeBuf := make([]uint32, wideSize)
			outBuf := make([]int32, wideSize)
			firstBuf := make([]int32, wideSize)
			lastBuf := make([]int32, wideSize)
			for n := seed; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Uniform probes, and on every fourth batch a hot key in a
				// third of the slots: the single shard must run a uniform
				// batch in input order, four shards a skewed one in key
				// order and a wide uniform one in input order.
				hot, skewed, single, wide := uint32(rng.Int63n(workload.MaxKey)), n%4 == 1, n%4 == 0, n%4 == 3
				size := probeSize
				if wide {
					size = wideSize
				}
				probes, out, first, last := probeBuf[:size], outBuf[:size], firstBuf[:size], lastBuf[:size]
				for i := range probes {
					if skewed && rng.Intn(3) == 0 {
						probes[i] = hot
					} else {
						probes[i] = uint32(rng.Int63n(workload.MaxKey))
					}
				}
				v := x.Snapshot()
				if single {
					v = x1.Snapshot()
				}
				if keyOrdered := v.keyOrdered(probes); (single || wide) && keyOrdered || skewed && !keyOrdered {
					fail("the batch plan picked the wrong probe order")
					return
				}
				v.SearchBatch(probes, out)
				v.EqualRangeBatch(probes, first, last)
				// Spot-check against the same frozen view's scalar answers.
				for i := 0; i < 64; i++ {
					j := rng.Intn(size)
					p := probes[j]
					if want := v.Search(p); int(out[j]) != want {
						fail("parallel SearchBatch diverged from scalar on one View")
						return
					}
					wf, wl := v.EqualRange(p)
					if int(first[j]) != wf || int(last[j]) != wl {
						fail("parallel EqualRangeBatch diverged from scalar on one View")
						return
					}
				}
				batches.Add(1)
			}
		}(int64(r + 1))
	}

	// Keep publishing swaps until the readers have verified real work (or
	// one has failed) — delta absorbs make a round far cheaper than a
	// reader batch, so a fixed round count alone can finish before any
	// batch completes.
	// Overtime rounds sleep so a spinning writer cannot starve the readers
	// on a small GOMAXPROCS.
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < rounds || batches.Load() < int64(readers) && len(errc) == 0; round++ {
		if round >= rounds {
			time.Sleep(time.Millisecond)
		}
		batch := make([]uint32, writeSize)
		for i := range batch {
			batch[i] = uint32(rng.Int63n(workload.MaxKey))
		}
		for _, x := range []*Index{x, x1} {
			x.Insert(batch...)
			x.Sync()
			x.Delete(batch...)
			x.Sync()
		}
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
	if batches.Load() == 0 {
		t.Fatal("readers completed no batches")
	}
	t.Logf("%d parallel batches verified over %d epoch-swaps", batches.Load(), swaps)
}

// TestAdaptiveScheduleChoice pins the duplicate-density estimator: a uniform
// batch stays input-order, a hot-key batch flips to key-ordered, and small
// batches never sort.
func TestAdaptiveScheduleChoice(t *testing.T) {
	g := workload.New(602)
	uniform := g.SortedDistinct(8192) // distinct values, shuffled below
	shuffled := make([]uint32, len(uniform))
	copy(shuffled, uniform)
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if ChooseKeyOrder(shuffled) {
		t.Error("uniform distinct batch chose the key-ordered plan")
	}
	skewed := make([]uint32, 8192)
	for i := range skewed {
		skewed[i] = uint32(i % 7) // 7 hot values
	}
	if !ChooseKeyOrder(skewed) {
		t.Error("hot-key batch did not choose the key-ordered plan")
	}
	tiny := skewed[:adaptiveMinBatch-1]
	if ChooseKeyOrder(tiny) {
		t.Error("sub-threshold batch chose the key-ordered plan")
	}
}

// TestKeyOrderedRule pins the batch plan's rule: a view of more than one
// shard descends every batch of 128 to 2,048 probes in key order on an
// AVX-512 host, whatever the sample says; a single-shard view, smaller
// batches, larger ones and every batch on other hosts follow the sample.
func TestKeyOrderedRule(t *testing.T) {
	keys := workload.New(603).SortedUniform(20000)
	multi, single := Freeze(keys, Boundaries(keys, 8), 16), Freeze(keys, nil, 16)
	if len(multi.snaps) != 8 || len(single.snaps) != 1 {
		t.Fatalf("views of %d and %d shards, want 8 and 1", len(multi.snaps), len(single.snaps))
	}
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 64, adaptiveMinBatch - 1, adaptiveMinBatch, 512, sortedMax, sortedMax + 1, 8192, 16384, 40000} {
		distinct, hot := make([]uint32, n), make([]uint32, n)
		for i := range distinct {
			distinct[i] = uint32(i)*2654435761 ^ 0x5bd1e995 // a bijection: no value repeats
			hot[i] = uint32(rng.Intn(3))
		}
		if n >= adaptiveMinBatch && (ChooseKeyOrder(distinct) || !ChooseKeyOrder(hot)) {
			t.Fatalf("n=%d: the sample says %v for distinct probes and %v for three hot keys", n, ChooseKeyOrder(distinct), ChooseKeyOrder(hot))
		}
		network := cpu.AVX512 && n >= adaptiveMinBatch && n <= 2048
		for _, c := range []struct {
			name   string
			probes []uint32
		}{{"distinct", distinct}, {"hot", hot}} {
			sample := ChooseKeyOrder(c.probes)
			if got := single.keyOrdered(c.probes); got != sample {
				t.Errorf("n=%d %s: one shard takes key order %v, the sample says %v", n, c.name, got, sample)
			}
			if got := multi.keyOrdered(c.probes); got != (sample || network) {
				t.Errorf("n=%d %s: eight shards take key order %v, want %v (sample %v, network %v)", n, c.name, got, sample || network, sample, network)
			}
			for _, v := range []*View{single, multi} {
				want, got := v.keyOrdered(c.probes), ranKeyOrder(v, c.probes)
				for try := 1; want && !got && try < 8; try++ { // a dropped put reads as input order
					got = ranKeyOrder(v, c.probes)
				}
				if got != want {
					t.Errorf("n=%d %s, %d shards: the batch ran key order %v, the rule says %v", n, c.name, len(v.snaps), got, want)
				}
			}
		}
	}
}

// ranKeyOrder runs a SearchBatch of probes on v over a fresh scratch pool
// and reports whether it ran the key-ordered plan: the one plan that leaves
// shard runs in the scratch without counting probes per shard (one shard's
// input order takes no scratch).  Under the race detector sync.Pool drops a
// quarter of its puts, so a key-ordered batch can read as input order.
func ranKeyOrder(v *View, probes []uint32) bool {
	v.pool = &sync.Pool{}
	v.SearchBatch(probes, make([]int32, len(probes)))
	s, _ := v.pool.Get().(*batchScratch)
	return s != nil && len(s.runs) > 0 && s.counts[len(s.counts)-1] == 0
}

// sortedSampleKeyOrder is ChooseKeyOrder as it was first written, kept as
// the oracle: the strided sample insertion-sorted in a fixed buffer, and its
// duplicates counted as equal neighbours.
func sortedSampleKeyOrder(probes []uint32) bool {
	n := len(probes)
	if n < adaptiveMinBatch {
		return false
	}
	var buf [sampleSize]uint32
	stride := n / sampleSize
	for i := 0; i < sampleSize; i++ {
		v := probes[i*stride]
		j := i
		for j > 0 && buf[j-1] > v {
			buf[j] = buf[j-1]
			j--
		}
		buf[j] = v
	}
	dups := 0
	for i := 1; i < sampleSize; i++ {
		if buf[i] == buf[i-1] {
			dups++
		}
	}
	return dups >= dupThreshold
}

// TestChooseKeyOrderMatchesSortedSample holds the hashed duplicate count to
// the sorted-sample oracle on uniform batches over the whole key space and
// over ranges sized to put the sample's duplicates around the threshold,
// Zipf-1.1 batches, all-equal batches (0 and MaxUint32 too, the values a
// hash set's empty marker would collide with), at n = 128, just above it,
// and at serving and bulk sizes; both decisions must occur.
func TestChooseKeyOrderMatchesSortedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	keys := make([]uint32, 1<<14)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	g := workload.New(49)
	seen := map[bool]int{}
	for trial := 0; trial < 3000; trial++ {
		n := []int{adaptiveMinBatch, adaptiveMinBatch + 1, 200, 512, 4096}[trial%5]
		batch := make([]uint32, n)
		kind := trial / 5 % 5
		switch kind {
		case 0: // uniform over the key space
			for i := range batch {
				batch[i] = rng.Uint32()
			}
		case 1: // uniform over a few hundred values: about threshold duplicates
			span := uint32(100 + rng.Intn(900))
			base := rng.Uint32()
			for i := range batch {
				batch[i] = base + uint32(rng.Intn(int(span)))
			}
		case 2:
			batch = g.ZipfLookups(keys[:64+rng.Intn(len(keys)-64)], n, 1.1)
		case 3: // all equal
			v := []uint32{0, math.MaxUint32, rng.Uint32()}[trial%3]
			for i := range batch {
				batch[i] = v
			}
		case 4: // 0 and MaxUint32 among distinct values
			for i := range batch {
				batch[i] = []uint32{0, math.MaxUint32, rng.Uint32(), rng.Uint32()}[rng.Intn(4)]
			}
		}
		got, want := ChooseKeyOrder(batch), sortedSampleKeyOrder(batch)
		if got != want {
			t.Fatalf("trial %d (kind %d, n %d): ChooseKeyOrder = %v, the sorted sample says %v", trial, kind, n, got, want)
		}
		seen[got]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("decisions %v: the batches must exercise both orders", seen)
	}
}

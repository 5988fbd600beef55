package mmdb

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx"
)

// TestIndexSurfaceDuringAppends: every index publishes frozen epochs, so an
// index searched by a level CSS-tree and one searched by hashing both serve
// their own SelectEqual and SelectRange from any goroutine while another
// appends — absorbed batches, folds at the trigger — and calls Compact.  Each
// answer must be the recompute over the rows of one state published while
// the call ran: rows [0, n) for a batch boundary n between the rows appended
// before the call began and those of the append under way when it returned.
// The hash index must refuse the ordered surface whatever state it is in.
// Run with -race: an absorb or fold that wrote a published state in place is
// a reported race, or a torn answer.
func TestIndexSurfaceDuringAppends(t *testing.T) {
	const baseRows, batchRows, batches = 3000, 60, 40
	rng := rand.New(rand.NewSource(42))
	all := make([]uint32, baseRows+batches*batchRows)
	for i := range all {
		all[i] = uint32(rng.Intn(300 + i/20)) // appended rows bring values the frozen domain lacks
	}
	tab := NewTable("t")
	defer tab.Close()
	for _, c := range []string{"o", "h"} {
		if err := tab.AddColumn(c, all[:baseRows]); err != nil {
			t.Fatal(err)
		}
	}
	ord, err := tab.BuildIndex("o", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := tab.BuildIndex("h", cssidx.KindHash, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab.EnableCache(CacheOptions{MinCostNs: -1})

	// done is the rows every finished append covers; begun the rows of the
	// append under way (or the last one).  A call that loaded done = a
	// before it began and begun = b after it returned was served by a
	// state over rows [0, n) for a batch boundary n in [a, b].
	var done, begun atomic.Int64
	done.Store(baseRows)
	begun.Store(baseRows)
	equal := func(n int, v uint32) []uint32 {
		var out []uint32
		for rid, x := range all[:n] {
			if x == v {
				out = append(out, uint32(rid))
			}
		}
		return out
	}
	ranged := func(n int, lo, hi uint32) []uint32 {
		var out []uint32
		for rid, x := range all[:n] {
			if lo <= x && x <= hi {
				out = append(out, uint32(rid))
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return all[out[i]] < all[out[j]] })
		return out
	}
	servedFrom := func(a, b int64, want func(n int) []uint32, got []uint32) bool {
		for n := a; n <= b; n += batchRows {
			if w := want(int(n)); slices.Equal(got, w) || len(got) == 0 && len(w) == 0 {
				return true
			}
		}
		return false
	}

	const readers = 4
	var calls [readers]atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer calls[w].Add(1 << 40) // a reader that gave up must not stall the writer
			r := rand.New(rand.NewSource(int64(7 + w)))
			ix := ord
			if w%2 == 1 {
				ix = hash
			}
			for !stop.Load() {
				calls[w].Add(1)
				lo := uint32(r.Intn(400))
				hi := lo + uint32(r.Intn(40))
				a := done.Load()
				var got []uint32
				var err error
				var want func(n int) []uint32
				op := r.Intn(2)
				if op == 0 {
					got, want = ix.SelectEqual(lo), func(n int) []uint32 { return equal(n, lo) }
				} else {
					got, err = ix.SelectRange(lo, hi)
					want = func(n int) []uint32 { return ranged(n, lo, hi) }
				}
				b := begun.Load()
				if ix == hash && op == 1 {
					if !errors.Is(err, ErrNoOrderedAccess) {
						t.Errorf("hash index op %d: err = %v, want ErrNoOrderedAccess", op, err)
						return
					}
					continue
				}
				if err != nil {
					t.Errorf("op %d [%d,%d]: %v", op, lo, hi, err)
					return
				}
				if !servedFrom(a, b, want, got) {
					t.Errorf("%s op %d [%d,%d]: %d rows match no state over [%d, %d] rows",
						ix.Kind(), op, lo, hi, len(got), a, b)
					return
				}
			}
		}(w)
	}
	var marks [readers]int64
	for i := 0; i < batches; i++ {
		for w := range calls { // every reader is inside a call, or about to be
			for c := calls[w].Load(); c <= marks[w] && c < 1<<40; c = calls[w].Load() {
				runtime.Gosched()
			}
			marks[w] = calls[w].Load()
		}
		n := baseRows + i*batchRows
		begun.Store(int64(n + batchRows))
		if err := tab.AppendRows(map[string][]uint32{"o": all[n : n+batchRows], "h": all[n : n+batchRows]}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			tab.Compact()
		}
		done.Store(int64(n + batchRows))
	}
	stop.Store(true)
	wg.Wait()
	if tab.Generation() < 4 {
		t.Fatalf("only %d generations raced the readers", tab.Generation())
	}
}

package mmdb

// The -race gate of the shipped admission path, CacheOptions{}, where
// nothing is cached the first time a question is asked.  The protocol itself
// — first sight deferred, second admitted, third a hit, never a first sight
// again after a fold — is held on every surface by FuzzTableOps.

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx/internal/qcache"
	"cssidx/internal/workload"
)

// TestRecurrenceRaceSharded is the -race gate for admission by recurrence
// against epoch swaps: four readers, each pinned to whatever epoch was
// current when its round began, ask a Zipf-skewed pool of ranges plus
// one-off ranges at default admission while 30 absorbed appends and a
// Compact land, each reader finishing a round pinned to every epoch before
// the next append.  Every answer must be its pinned epoch's own recompute; a
// concurrent Stats snapshot must never see Deferred (or any miss settlement)
// move backwards; and at rest every miss is accounted for — deferred at first
// sight, or inserted or rejected at admission.
func TestRecurrenceRaceSharded(t *testing.T) {
	g := workload.New(97)
	base := g.SortedUniform(1500)
	tab := NewTable("t")
	tab.fold = neverFold
	if err := tab.AddColumn("x", g.Lookups(base, 4000)); err != nil {
		t.Fatal(err)
	}
	six, err := tab.BuildShardedIndex("x", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { six.Close() }()
	tab.EnableCache(CacheOptions{})

	const appends, pool, readers = 30, 24, 4
	batches := make([]map[string][]uint32, appends)
	for i := range batches {
		batches[i] = map[string][]uint32{"x": g.Lookups(base, 60)}
	}
	var stop atomic.Bool
	// rounds[r] counts reader r's finished rounds; the writer waits for
	// every reader to finish two rounds after an append — the second began
	// after it — so every reader reads every epoch.
	var rounds [readers]atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer rounds[r].Add(1 << 40) // a reader that gave up must not stall the writer
			rng := rand.New(rand.NewSource(int64(300 + r)))
			zipf := rand.NewZipf(rng, 1.2, 1, pool-1)
			oneOff := uint32(r) << 28
			for ; !stop.Load(); rounds[r].Add(1) {
				s := six.cur.Load() // held across the round: it goes stale under it
				for q := 0; q < 8; q++ {
					lo, hi := uint32(0), uint32(0)
					if p := int(zipf.Uint64()); q%4 == 3 { // a range nobody asks for again
						oneOff++
						lo, hi = oneOff, oneOff+1<<22
					} else {
						lo, hi = base[p*40], base[p*40+120]
					}
					got, err := s.rangeQuery(env{}, lo, hi)
					want := s.rangeRIDs(lo, hi)
					if err != nil || !slices.Equal(got, want) {
						t.Errorf("reader pinned at %+v: range [%d,%d] has %d rows (%v), its epoch's recompute %d", s.tok, lo, hi, len(got), err, len(want))
						return
					}
					runtime.Gosched()
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // the snapshot reader
		defer wg.Done()
		var last qcache.Stats
		for !stop.Load() {
			s := tab.Cache().Stats()
			if s.Deferred < last.Deferred || s.Misses < last.Misses || s.Inserts < last.Inserts || s.Rejects < last.Rejects || s.Hits < last.Hits {
				t.Errorf("a counter moved backwards: %+v after %+v", s, last)
				return
			}
			last = s
			runtime.Gosched()
		}
	}()
	var marks [readers]int64
	for i, b := range batches {
		for r := range rounds {
			for c := rounds[r].Load(); c < marks[r]+2 && c < 1<<40; c = rounds[r].Load() {
				runtime.Gosched()
			}
		}
		if err := tab.AppendRows(b); err != nil {
			t.Error(err)
			break
		}
		if i == appends/2 {
			tab.Compact()
		}
		for r := range rounds {
			marks[r] = rounds[r].Load()
		}
	}
	stop.Store(true)
	wg.Wait()
	if g := tab.Generation(); g != 2 {
		t.Fatalf("generation %d: the fold did not land", g)
	}
	s := tab.Cache().Stats()
	if s.Misses != s.Deferred+s.Inserts+s.Rejects {
		t.Fatalf("misses do not reconcile with admission: %d misses, %d deferred + %d inserted + %d rejected", s.Misses, s.Deferred, s.Inserts, s.Rejects)
	}
	for _, c := range []struct {
		name string
		n    int64
	}{{"Hits", s.Hits}, {"Deferred", s.Deferred}, {"Inserts", s.Inserts}, {"Patches", s.Patches}} {
		if c.n == 0 {
			t.Errorf("race left %s at 0: %+v", c.name, s)
		}
	}
}

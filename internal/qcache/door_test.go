package qcache

import "testing"

// doorSetKeys returns n range keys of one column whose tags fall in one set of
// their stripe's door, starting the search at value from.
func doorSetKeys(n int, from uint32) []Key {
	var keys []Key
	for v := from; len(keys) < n; v++ {
		k := rangeKey("t", "a", v, v+3)
		if len(keys) == 0 || k.tag()&(doorSets-1) == keys[0].tag()&(doorSets-1) {
			keys = append(keys, k)
		}
	}
	return keys
}

// asker plays misses the way the executor does: look up, and insert (rows
// RIDs, priced well above the floor) only when the verdict says so.
type asker struct {
	c    *Cache
	rows uint32
}

func (a asker) ask(k Key, tok Token) (hit, admit bool) {
	_, _, hit, admit = a.c.Lookup(k, at(tok))
	if admit {
		a.c.Insert(k, tok, seq(0, a.rows), 1<<20)
	}
	return hit, admit
}

// TestDoorkeeperNoLivelock: questions whose tags share one four-way set do
// not keep each other out.  Two asked alternately are each admitted by their
// second ask; grown to five, the new three are too (a new tag takes the way of
// one already admitted); five fresh ones taking turns in the full set are all
// admitted within a few rounds, where FIFO or LRU replacement would have them
// evict each other for ever; and a tag outlives its entry — DropTable, a fold
// and an eviction each cost the question one miss, not two.
func TestDoorkeeperNoLivelock(t *testing.T) {
	c := New(Options{stripes: 1})
	a := asker{c, 8}
	tok := Token{Gen: 1}
	keys := doorSetKeys(10, 0)
	for _, n := range []int{2, 5} {
		for round := 0; round < 3; round++ {
			for i, k := range keys[:n] {
				hit, admit := a.ask(k, tok)
				asked := round // asks before this one
				if n == 5 && i < 2 {
					asked += 3 // the first two have been resident since the first leg
				}
				if wantHit, wantAdmit := asked >= 2, asked == 1; hit != wantHit || admit != wantAdmit {
					t.Fatalf("%d keys, round %d, key %d: hit=%v admit=%v, want %v %v", n, round, i, hit, admit, wantHit, wantAdmit)
				}
			}
		}
	}
	if s := c.Stats(); s.Deferred != 5 || s.Inserts != 5 || s.Misses != 10 {
		t.Fatalf("five questions, two asks each to admit: %+v", s)
	}

	pending := map[int]bool{5: true, 6: true, 7: true, 8: true, 9: true}
	for round := 0; len(pending) > 0; round++ {
		if round == 4 {
			t.Fatalf("five fresh questions in one full set: %d still not admitted after %d rounds", len(pending), round)
		}
		for i := 5; i < 10; i++ {
			if _, admit := a.ask(keys[i], tok); admit {
				delete(pending, i)
			}
		}
	}

	// The tag is keyed by the question, not the state it was asked against.
	known := rangeKey("t", "known", 1, 2) // a set of its own: nothing displaces its tag
	a.ask(known, tok)
	a.ask(known, tok)
	before := c.Stats()
	c.DropTable("t")
	if hit, admit := a.ask(known, tok); hit || !admit {
		t.Fatalf("after DropTable: hit=%v admit=%v, want a miss admitted at once", hit, admit)
	}
	tok.Gen++ // a fold: the entry just admitted is stale
	if hit, admit := a.ask(known, tok); hit || !admit {
		t.Fatalf("after a fold: hit=%v admit=%v, want a miss admitted at once", hit, admit)
	}
	if s := c.Stats(); s.Deferred != before.Deferred || s.Inserts != before.Inserts+2 {
		t.Fatalf("DropTable and a fold deferred a known question: %+v, before %+v", s, before)
	}

	small := New(Options{stripes: 1, MaxBytes: 16 << 10})
	a = asker{small, 500} // ~2 KiB an entry: the stripe holds eight
	for i := uint32(0); small.Stats().Evictions == 0; i++ {
		if i == 64 {
			t.Fatal("no eviction under pressure")
		}
		a.ask(rangeKey("t", "ev", i, i), tok)
		a.ask(rangeKey("t", "ev", i, i), tok)
	}
	if hit, admit := a.ask(rangeKey("t", "ev", 0, 0), tok); hit || !admit {
		t.Fatalf("after eviction of its entry: hit=%v admit=%v, want a miss admitted at once", hit, admit)
	}
}

// TestDoorkeeperScanResistance: a one-pass scan of never-repeated questions
// leaves tags behind and nothing else, and the recurrence window is about the
// door's capacity — 4,096 distinct misses per stripe: a question that recurs
// well inside it is admitted, one that recurs far outside it starts again.
func TestDoorkeeperScanResistance(t *testing.T) {
	c := New(Options{stripes: 1})
	a := asker{c, 100}
	tok := Token{Gen: 1}
	next := uint32(0)
	scan := func(n int) {
		for i := 0; i < n; i++ {
			if hit, _ := a.ask(rangeKey("t", "a", next, next+7), tok); hit {
				t.Fatalf("one-off question %d hit", next)
			}
			next++
		}
	}
	hot := rangeKey("t", "hot", 1, 2)
	oneEntry := payloadBytes(&entry{rids: seq(0, a.rows)})
	a.ask(hot, tok)
	scan(10_000)
	a.ask(hot, tok)
	if s := c.Stats(); s.Inserts > 2 || s.Bytes > s.Inserts*oneEntry || s.Deferred < 10_000-1 {
		t.Fatalf("10,000 one-off questions: %d inserts, %d bytes (one entry is %d), %d deferred", s.Inserts, s.Bytes, oneEntry, s.Deferred)
	}

	// The door is full of one-off tags now.  Inside the window:
	inside, outside := rangeKey("t", "in", 1, 2), rangeKey("t", "out", 1, 2)
	a.ask(inside, tok)
	a.ask(outside, tok)
	scan(doorSets * doorWays / 32)
	if _, admit := a.ask(inside, tok); !admit {
		t.Fatalf("a question recurring after %d distinct misses was deferred again", doorSets*doorWays/32)
	}
	scan(10 * doorSets * doorWays)
	if _, admit := a.ask(outside, tok); admit {
		t.Fatalf("a question recurring after %d distinct misses was still remembered", 10*doorSets*doorWays)
	}
	if s := c.Stats(); s.Misses != s.Deferred+s.Inserts+s.Rejects {
		t.Fatalf("misses do not reconcile: %+v", s)
	}
}

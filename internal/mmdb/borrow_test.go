package mmdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx"
	"cssidx/internal/qcache"
)

// sharedArrays holds the arrays a read path may borrow — a published index
// epoch's keys, RIDs and delta runs, and the resident cache payloads the
// questions reach — each with a hash taken at capture.  Both kinds are
// immutable once published, so verify finding any of them changed means a
// reader wrote memory it only borrowed.  Safe for concurrent capture.
type sharedArrays struct {
	mu     sync.Mutex
	arrays [][]uint32
	sums   []uint64
	what   []string
	epochs map[*epoch]bool
}

func (s *sharedArrays) add(what string, a []uint32) {
	if len(a) == 0 {
		return
	}
	sum := qcache.HashWords(qcache.HashSeed, a)
	s.mu.Lock()
	s.arrays, s.sums, s.what = append(s.arrays, a), append(s.sums, sum), append(s.what, what)
	s.mu.Unlock()
}

// epoch captures the index's current epoch once.
func (s *sharedArrays) epoch(name string, ix *SortedIndex) {
	ep := ix.cur.Load()
	s.mu.Lock()
	if s.epochs == nil {
		s.epochs = map[*epoch]bool{}
	}
	seen := s.epochs[ep]
	s.epochs[ep] = true
	s.mu.Unlock()
	if seen {
		return
	}
	s.add(name+" index keys", ep.keys)
	s.add(name+" index rids", ep.rids)
	for i := range ep.runs {
		s.add(name+" delta run values", ep.runs[i].vals)
		s.add(name+" delta run rids", ep.runs[i].rids)
	}
}

// payload captures what a lookup of k finds: the resident RIDs of an exact
// or containment hit.
func (s *sharedArrays) payload(qc *qcache.Cache, k qcache.Key, rd qcache.Reader) {
	if a := qc.Find(k, rd, nil); a.Kind == qcache.HitExact || a.Kind == qcache.HitContained {
		s.add(fmt.Sprintf("cached payload of %+v", k), a.RIDs)
	}
}

// pairs captures a join's resident pair payload.
func (s *sharedArrays) pairs(outer *Table, ix *SortedIndex) {
	ep := ix.cur.Load()
	k := qcache.Key{Table: outer.name, Col: "fk", Kind: qcache.KindJoin, Hash: ep.innerTag()}
	if o, i, ok, _ := outer.Cache().LookupPair(k, qcache.Token{Gen: outer.stateVer.Load(), Epoch: ep.uid}); ok {
		s.add("cached join outer RIDs", o)
		s.add("cached join inner RIDs", i)
	}
}

func (s *sharedArrays) verify(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range s.arrays {
		if qcache.HashWords(qcache.HashSeed, a) != s.sums[i] {
			t.Fatalf("%s (%d RIDs) changed after capture: a reader wrote shared memory", s.what[i], len(a))
		}
	}
}

// scribble is a caller that owns what it got back: it sorts it, then
// overwrites every element.
func scribble(rids []uint32) {
	slices.Sort(rids)
	for i := range rids {
		rids[i] = ^uint32(0)
	}
}

// head is how a failure prints a result: its size and first RIDs.
func head(rids []uint32) string {
	return fmt.Sprintf("%d RIDs %v", len(rids), rids[:min(len(rids), 12)])
}

// sortedEqual compares a result with an ascending oracle as sets of RIDs.
func sortedEqual(got, want []uint32) bool {
	got = slices.Clone(got)
	slices.Sort(got)
	return slices.Equal(got, want) || len(got) == 0 && len(want) == 0
}

// TestSharedArraysStayIntact: the read paths borrow published index arrays
// and resident cache payloads and copy only what they return, so a caller
// that sorts and overwrites every answer it gets must leave all of them as
// they were, and every later answer right.  The queries leg asks WHERE
// conjunctions of 1–4 conjuncts (empty ones included, and recombinations
// whose conjuncts hit the cache), ranges, IN-lists, an index's own range and
// an emitting join — over an index with no delta runs (batched index spans),
// after an absorb (delta weaves, refreshed entries) and after a fold.  The
// appends leg runs an index's own ranges and emitting joins while appends
// and Compact publish epochs, and checks every epoch and payload any reader
// saw.
func TestSharedArraysStayIntact(t *testing.T) {
	t.Run("queries", testSharedArraysQueries)
	t.Run("appends racing", testSharedArraysAppends)
}

func testSharedArraysQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	w := whereOps(t, rng, 3000, 0)
	qc := w.tab.EnableCache(CacheOptions{MinCostNs: -1})
	kIx, _ := w.tab.Index("k")
	sIx, _ := w.tab.Index("s")
	outer := NewTable("o")
	fk := make([]uint32, 500)
	for i := range fk {
		fk[i] = w.raw["k"][rng.Intn(len(w.raw["k"]))]
	}
	if err := outer.AddColumn("fk", fk); err != nil {
		t.Fatal(err)
	}
	outer.EnableCache(CacheOptions{MinCostNs: -1})

	for round, step := range []string{"no delta runs", "after an absorb", "after a fold"} {
		switch round {
		case 1:
			w.append(t, w.batch(150, whereTail(rng)))
		case 2:
			w.tab.Compact()
		}
		var wheres [][]RangePred
		for q := 0; q < 40; q++ {
			preds := make([]RangePred, 1+rng.Intn(4))
			for i := range preds {
				preds[i] = wherePred(w, rng)
			}
			wheres = append(wheres, preds)
		}
		var ranges, ins []RangePred
		for q := 0; q < 12; q++ {
			ranges = append(ranges, wherePredOn(w, rng, []string{"k", "s"}[q%2]))
			c := []string{"k", "h", "u"}[q%3]
			lo := uint32(rng.Intn(2 * int(w.col(c).span)))
			ins = append(ins, RangePred{Col: c, Lo: lo, Hi: lo + uint32(rng.Intn(40))})
		}
		inList := func(p RangePred) []uint32 {
			var vals []uint32
			for v := p.Lo; v <= p.Hi; v += 2 {
				vals = append(vals, v)
			}
			return vals
		}
		tag := func(what string, q any) string { return fmt.Sprintf("%s: %s %v", step, what, q) }
		where := func(preds []RangePred) {
			got, _, err := w.tab.SelectWhere(preds)
			if want := w.scan(preds); err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: got %v, %v; want %v", tag("SelectWhere", preds), head(got), err, head(want))
			}
			scribble(got)
		}
		askAll := func() {
			for _, preds := range wheres {
				where(preds)
			}
			for _, p := range ranges {
				got, _, err := w.tab.SelectRange(p.Col, p.Lo, p.Hi)
				if want := w.scan([]RangePred{p}); err != nil || !sortedEqual(got, want) {
					t.Fatalf("%s: got %v, %v; want %v", tag("SelectRange", p), head(got), err, head(want))
				}
				scribble(got)
				ix := kIx
				if p.Col == "s" {
					ix = sIx
				}
				got, err = ix.SelectRange(p.Lo, p.Hi)
				if want := w.scan([]RangePred{p}); err != nil || !sortedEqual(got, want) {
					t.Fatalf("%s: got %v, %v; want %v", tag("index SelectRange", p), head(got), err, head(want))
				}
				scribble(got)
			}
			for _, p := range ins {
				got, _, err := w.tab.SelectIn(p.Col, inList(p))
				var want []uint32
				for row, v := range w.raw[p.Col] {
					if v >= p.Lo && v <= p.Hi && (v-p.Lo)%2 == 0 {
						want = append(want, uint32(row))
					}
				}
				if err != nil || !sortedEqual(got, want) {
					t.Fatalf("%s: got %v, %v; want %v", tag("SelectIn", p), head(got), err, head(want))
				}
				scribble(got)
			}
			var got [][2]uint32
			n, err := JoinWith(outer, "fk", kIx, JoinOptions{}, func(o, i uint32) { got = append(got, [2]uint32{o, i}) })
			var want [][2]uint32
			for o, v := range fk {
				for i, x := range w.raw["k"] {
					if x == v {
						want = append(want, [2]uint32{uint32(o), uint32(i)})
					}
				}
			}
			slices.SortFunc(got, func(a, b [2]uint32) int {
				if a[0] != b[0] {
					return int(a[0]) - int(b[0])
				}
				return int(a[1]) - int(b[1])
			})
			if err != nil || n != len(want) || !slices.Equal(got, want) {
				t.Fatalf("%s: %d pairs, %v; want %d", tag("JoinWith", "k"), n, err, len(want))
			}
		}

		var shared sharedArrays
		for _, c := range []string{"k", "h", "s"} {
			ix, _ := w.tab.Index(c)
			shared.epoch(c, ix)
		}
		askAll() // misses: every index conjunct computes, and admission fills the cache
		rd := w.tab.reader(nil)
		for _, preds := range wheres {
			shared.payload(qc, whereFP(w.tab.name, preds), rd)
			for _, p := range preds {
				shared.payload(qc, rangeFP(w.tab.name, p.Col, qcache.LayerTable, p.Lo, p.Hi), w.tab.reader(w.tab.seg(p.Col)))
			}
		}
		for _, p := range ranges {
			shared.payload(qc, rangeFP(w.tab.name, p.Col, qcache.LayerTable, p.Lo, p.Hi), w.tab.reader(w.tab.seg(p.Col)))
		}
		for _, p := range ins {
			shared.payload(qc, inFP(w.tab.name, p.Col, dedupeValues(inList(p))), w.tab.reader(w.tab.seg(p.Col)))
		}
		shared.pairs(outer, kIx)
		askAll() // hits
		// New conjunctions of cached conjuncts: whole misses whose
		// conjuncts are borrowed cache payloads.
		for q := 0; q < 40; q++ {
			a, b := wheres[rng.Intn(len(wheres))], wheres[rng.Intn(len(wheres))]
			where(append(slices.Clone(b), a...))
		}
		askAll()
		shared.verify(t)
		mustPoolZero(t, step)
	}
}

func testSharedArraysAppends(t *testing.T) {
	const baseRows, batchRows, batches = 3000, 50, 30
	rng := rand.New(rand.NewSource(50))
	all := make([]uint32, baseRows+batches*batchRows)
	for i := range all {
		all[i] = uint32(rng.Intn(400 + i/20)) // appended rows bring values the frozen domain lacks
	}
	tab := NewTable("t")
	if err := tab.AddColumn("k", all[:baseRows]); err != nil {
		t.Fatal(err)
	}
	ix, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	qc := tab.EnableCache(CacheOptions{MinCostNs: -1})
	outer := NewTable("o")
	fk := make([]uint32, 300)
	for i := range fk {
		fk[i] = uint32(rng.Intn(450))
	}
	if err := outer.AddColumn("fk", fk); err != nil {
		t.Fatal(err)
	}
	outer.EnableCache(CacheOptions{MinCostNs: -1})
	fkCount := map[uint32]int{}
	for _, v := range fk {
		fkCount[v]++
	}

	// servedFrom: got must be the answer over rows [0, n) for some batch
	// boundary n in [a, b] — the rows covered when the call began and when
	// it returned.
	var done, begun atomic.Int64
	done.Store(baseRows)
	begun.Store(baseRows)
	servedFrom := func(a, b int64, want func(n int) []uint32, got []uint32) bool {
		for n := a; n <= b; n += batchRows {
			if sortedEqual(got, want(int(n))) {
				return true
			}
		}
		return false
	}
	ranged := func(lo, hi uint32) func(n int) []uint32 {
		return func(n int) []uint32 {
			var out []uint32
			for rid, x := range all[:n] {
				if lo <= x && x <= hi {
					out = append(out, uint32(rid))
				}
			}
			return out
		}
	}
	joined := func(n int) int {
		c := 0
		for _, x := range all[:n] {
			c += fkCount[x]
		}
		return c
	}

	const readers = 2
	var shared sharedArrays
	var calls [readers]atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers) // each reader sends at most once
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer calls[r].Add(1 << 40) // a reader that gave up must not stall the writer
			rr := rand.New(rand.NewSource(int64(60 + r)))
			for !stop.Load() {
				calls[r].Add(1)
				shared.epoch("k", ix)
				a := done.Load()
				if r == 0 {
					lo := uint32(rr.Intn(450))
					hi := lo + uint32(rr.Intn(30))
					got, err := ix.SelectRange(lo, hi)
					b := begun.Load()
					if err != nil || !servedFrom(a, b, ranged(lo, hi), got) {
						errs <- fmt.Errorf("index SelectRange(%d, %d) between rows %d and %d: %v, %v", lo, hi, a, b, head(got), err)
						return
					}
					scribble(got)
					ep := ix.cur.Load()
					shared.payload(qc, rangeFP(tab.name, "k", qcache.LayerEpoch, lo, hi), ep.reader())
					continue
				}
				maxInner, pairs, wrong := uint32(0), 0, 0
				n, err := JoinWith(outer, "fk", ix, JoinOptions{}, func(o, in uint32) {
					if all[in] != fk[o] {
						wrong++
					}
					maxInner, pairs = max(maxInner, in), pairs+1
				})
				b := begun.Load()
				ok := false
				for m := a; m <= b && !ok; m += batchRows {
					ok = n == joined(int(m)) && n == pairs && (n == 0 || int64(maxInner) < m)
				}
				if err != nil || !ok || wrong > 0 {
					errs <- fmt.Errorf("JoinWith between rows %d and %d: %d pairs emitted (%d joining unequal values), %d returned, %v",
						a, b, pairs, wrong, n, err)
					return
				}
				shared.pairs(outer, ix)
			}
		}(r)
	}
	for i := 0; i < batches; i++ {
		// Every reader makes a call on each published state.
		var before [readers]int64
		for r := range calls {
			before[r] = calls[r].Load()
		}
		for r := range calls {
			for c := calls[r].Load(); c <= before[r]+1 && c < 1<<40; c = calls[r].Load() {
				runtime.Gosched()
			}
		}
		from := baseRows + i*batchRows
		begun.Store(int64(from + batchRows))
		if err := tab.AppendRows(map[string][]uint32{"k": all[from : from+batchRows]}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			tab.Compact()
		}
		done.Store(int64(from + batchRows))
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	shared.epoch("k", ix)
	shared.verify(t)
}

package mmdb

// Tests of the shipped admission path — CacheOptions{} — where every other
// cache test in this package admits at first sight: nothing is cached the
// first time a question is asked, the executor stages no payload for it, and
// the answers stay bit-identical to an uncached table's throughout.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx"
	"cssidx/internal/qcache"
	"cssidx/internal/workload"
)

// recurSide is one half of a cached/uncached pair: the fact table, and for
// the joins an outer table sharing its cache.
type recurSide struct {
	t, o *Table
}

// recurSurface is one cached query shape.  ask runs it for the n-th time and
// returns something fmt.Sprint can compare, rows and order.  steady marks a
// shape that asks the same question every time and that only its own entry
// can answer: its admission counters are held to the first-sight protocol.
type recurSurface struct {
	name   string
	steady bool
	ask    func(s *recurSide, n int) (any, error)
}

func recurRange(col string, lo, hi uint32) func(*recurSide, int) (any, error) {
	return func(s *recurSide, _ int) (any, error) { r, _, err := s.t.SelectRange(col, lo, hi); return r, err }
}

func recurIn(col string, vals func(n int) []uint32) func(*recurSide, int) (any, error) {
	return func(s *recurSide, n int) (any, error) { r, _, err := s.t.SelectIn(col, vals(n)); return r, err }
}

func recurWhere(preds ...RangePred) func(*recurSide, int) (any, error) {
	return func(s *recurSide, _ int) (any, error) { r, _, err := s.t.SelectWhere(preds); return r, err }
}

func recurJoin(innerCol string, sharded bool) func(*recurSide, int) (any, error) {
	return func(s *recurSide, _ int) (any, error) {
		var inner *SortedIndex
		if ix, ok := s.t.ShardedIndex(innerCol); sharded && ok {
			inner = ix
		} else if ix, ok := s.t.Index(innerCol); ok {
			inner = ix
		}
		var pairs [][2]uint32
		_, err := JoinWith(s.o, "fk", inner, JoinOptions{}, func(o, i uint32) { pairs = append(pairs, [2]uint32{o, i}) })
		return pairs, err
	}
}

func fixedList(vals ...uint32) func(int) []uint32 { return func(int) []uint32 { return vals } }

func stepList(lo, n, step uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = lo + uint32(i)*step
	}
	return out
}

// refreshSurfaces mirrors the 31 surfaces of internal/qcache/refresh_test.go
// (which lives in another test package): SortedIndex column k, sharded-only
// column s, unindexed u, aggregate columns g and m, and both join inners.
func refreshSurfaces() []recurSurface {
	list := stepList(40, 12, 37)
	wide := stepList(0, 400, 2) // 40% of the domain: the planner scans
	var out []recurSurface
	for _, col := range []string{"k", "s"} {
		out = append(out,
			recurSurface{col + " index range", true, recurRange(col, 100, 180)},
			recurSurface{col + " index range overlapping", true, recurRange(col, 170, 260)},
			recurSurface{col + " contained subrange", false, recurRange(col, 120, 150)},
			recurSurface{col + " shifting window", false, func(s *recurSide, n int) (any, error) {
				r, _, err := s.t.SelectRange(col, 110+uint32(n%40), 230+uint32(n%40))
				return r, err
			}},
			recurSurface{col + " range past the frozen domain", true, recurRange(col, 990, 1100)},
			recurSurface{col + " scan range", true, recurRange(col, 50, 700)},
			recurSurface{col + " grouped IN", col == "k", recurIn(col, fixedList(list...))}, // on s, "s sharded IN" below is the same question
			recurSurface{col + " subset replay", false, recurIn(col, func(n int) []uint32 {
				return []uint32{list[(n+7)%12], list[n%12], list[(n+3)%12]}
			})},
			recurSurface{col + " near-superset", false, recurIn(col, func(n int) []uint32 { return append(slices.Clone(list), 1000+uint32(n%50)) })},
			recurSurface{col + " ungrouped IN", true, recurIn(col, fixedList(wide...))},
		)
	}
	sharded := func(q func(*SortedIndex) (any, error)) func(*recurSide, int) (any, error) {
		return func(s *recurSide, _ int) (any, error) { ix, _ := s.t.ShardedIndex("s"); return q(ix) }
	}
	return append(out,
		recurSurface{"s sharded range", true, sharded(func(ix *SortedIndex) (any, error) { return ix.SelectRange(300, 420) })},
		recurSurface{"s sharded contained", false, sharded(func(ix *SortedIndex) (any, error) { return ix.SelectRange(310, 400) })},
		recurSurface{"u scan range", true, recurRange("u", 200, 260)},
		recurSurface{"u scan IN", true, recurIn("u", fixedList(list...))},
		recurSurface{"where k and g", true, recurWhere(RangePred{Col: "k", Lo: 200, Hi: 380}, RangePred{Col: "g", Lo: 2, Hi: 9})},
		recurSurface{"where s and u", true, recurWhere(RangePred{Col: "s", Lo: 500, Hi: 640}, RangePred{Col: "u", Lo: 0, Hi: 600})},
		recurSurface{"aggregate all rows", true, func(s *recurSide, _ int) (any, error) { return GroupAggregate(s.t, "g", "m", nil) }},
		recurSurface{"aggregate RID list", true, func(s *recurSide, _ int) (any, error) { return GroupAggregate(s.t, "g", "m", stepList(5, 300, 11)) }},
		recurSurface{"join sorted inner", true, recurJoin("k", false)},
		recurSurface{"join sharded inner", true, recurJoin("s", true)},
	)
}

// batterySurfaces are the surfaces of queryBattery (TestCacheDifferentialAllSurfaces)
// over cachePair's columns: a under a level CSS-tree, c hashed, b sharded only.
func batterySurfaces(plain *Table, g *workload.Gen) []recurSurface {
	aCol, _ := plain.Column("a")
	cCol, _ := plain.Column("c")
	aVals, cVals := distinctValues(aCol), distinctValues(cCol)
	out := []recurSurface{
		{"a whole domain", true, recurRange("a", 0, math.MaxUint32)},
		{"a narrow range", true, recurRange("a", 1<<28, 1<<28+1<<26)},
		{"a quarter range", false, recurRange("a", 0, 1<<30)}, // also a conjunct of the conjunctions below
		{"a empty bounds", true, recurRange("a", 5, 4)},
		{"a by domain values", true, recurRange("a", aVals[2], aVals[len(aVals)/3])},
	}
	for li, list := range [][]uint32{g.Lookups(cVals, 5), g.Lookups(cVals, 40), {1, 2, 3}} {
		for _, col := range []string{"c", "b"} {
			out = append(out, recurSurface{fmt.Sprintf("%s in #%d", col, li), true, recurIn(col, fixedList(list...))})
		}
	}
	// The conjunctions share conjunct ranges with each other and with the
	// surfaces around them, and a conjunct is a question of its own: whichever
	// asks second finds it known.  Held to the differential only.
	return append(out,
		recurSurface{"where a and b", false, recurWhere(RangePred{Col: "a", Lo: 0, Hi: 1 << 30}, RangePred{Col: "b", Lo: 1 << 27, Hi: 1 << 31})},
		recurSurface{"where a, a and c", false, recurWhere(RangePred{Col: "a", Lo: 1 << 26, Hi: 1 << 31}, RangePred{Col: "a", Lo: 0, Hi: 1 << 30}, RangePred{Col: "c", Lo: 0, Hi: math.MaxUint32})},
		recurSurface{"where empty conjunct", true, recurWhere(RangePred{Col: "b", Lo: 7, Hi: 3})},
		recurSurface{"b sharded range", false, func(s *recurSide, _ int) (any, error) {
			ix, _ := s.t.ShardedIndex("b")
			return ix.SelectRange(1<<27, 1<<31)
		}},
	)
}

// runRecurrence asks every surface six times on both sides — cached ==
// uncached, rows and order, every time — with an absorbed batch after the
// first ask and after the third, and a fold after the fourth, and holds the
// steady surfaces' counters to the protocol: the first ask is deferred and
// inserts nothing, the second reaches admission, the third is a hit, and
// after the fold the question is still known, so it is not deferred again.
func runRecurrence(t *testing.T, cached, plain *recurSide, surfaces []recurSurface, batch func() map[string][]uint32) {
	t.Helper()
	qc := cached.t.Cache()
	both := func(do func(s *recurSide) error) {
		t.Helper()
		for _, s := range []*recurSide{cached, plain} {
			if err := do(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendBatch := func(fold bool) {
		t.Helper()
		b := batch()
		both(func(s *recurSide) error {
			if err := s.t.AppendRows(b); err != nil || !fold {
				return err
			}
			s.t.Compact()
			return nil
		})
	}
	rejected := make([]bool, len(surfaces)) // the cost floor refused something of the surface's second ask
	for ask := 0; ask < 6; ask++ {
		for qi, q := range surfaces {
			step := fmt.Sprintf("%s, ask %d", q.name, ask+1)
			before := qc.Stats()
			got, err := q.ask(cached, ask)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			d := qc.Stats()
			want, err := q.ask(plain, ask)
			if err != nil {
				t.Fatalf("%s (uncached): %v", step, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) { // nil and empty answers are the same answer
				t.Fatalf("%s: cached and uncached answers differ\n got %.200s\nwant %.200s", step, fmt.Sprint(got), fmt.Sprint(want))
			}
			d.Hits, d.Misses, d.Deferred, d.Inserts, d.Rejects = d.Hits-before.Hits, d.Misses-before.Misses, d.Deferred-before.Deferred, d.Inserts-before.Inserts, d.Rejects-before.Rejects
			if d.Misses != d.Deferred+d.Inserts+d.Rejects {
				t.Fatalf("%s: %d misses, but %d deferred + %d inserted + %d rejected", step, d.Misses, d.Deferred, d.Inserts, d.Rejects)
			}
			if !q.steady || d.Hits+d.Misses == 0 { // (an empty range never reaches the cache)
				continue
			}
			switch ask {
			case 0:
				if d.Deferred == 0 || d.Inserts != 0 || d.Hits != 0 {
					t.Fatalf("%s: first sight must be deferred and insert nothing: %+v", step, d)
				}
			case 1:
				if d.Deferred != 0 || d.Inserts+d.Rejects == 0 {
					t.Fatalf("%s: second sight must reach admission: %+v", step, d)
				}
				rejected[qi] = d.Rejects > 0
			case 2:
				if !rejected[qi] && (d.Hits == 0 || d.Misses != 0) {
					t.Fatalf("%s: third sight must be a hit: %+v", step, d)
				}
			case 4:
				if d.Deferred != 0 {
					t.Fatalf("%s: a fold must not make a known question a first sight again: %+v", step, d)
				}
			}
		}
		switch ask {
		case 0, 2:
			appendBatch(false)
		case 3:
			appendBatch(true)
		}
	}
	s := qc.Stats()
	if s.Deferred == 0 || s.Inserts == 0 || s.Hits == 0 || s.Patches == 0 || s.Invalidations == 0 {
		t.Fatalf("sequence left a path unexercised: %+v", s)
	}
}

func TestRecurrenceAdmissionDifferential(t *testing.T) {
	t.Run("battery", func(t *testing.T) {
		cached, plain, g := cachePair(t, 4000, 11)
		for _, tab := range []*Table{cached, plain} {
			tab.fold = neverFold
			ix, _ := tab.ShardedIndex("b")
			defer ix.Close()
		}
		cached.EnableCache(CacheOptions{}) // cachePair's admits at first sight
		runRecurrence(t, &recurSide{t: cached}, &recurSide{t: plain}, batterySurfaces(plain, g), func() map[string][]uint32 {
			return map[string][]uint32{
				"a": g.Lookups(g.SortedUniform(500), 200),
				"b": g.Lookups(g.SortedUniform(500), 200),
				"c": g.Lookups(g.SortedUniform(64), 200),
			}
		})
	})
	t.Run("refresh surfaces", func(t *testing.T) {
		const base, domain = 6000, 1000
		rng := rand.New(rand.NewSource(22))
		cols := []string{"k", "s", "u", "g", "m"}
		genRows := func(n int, span uint32) map[string][]uint32 {
			rows := map[string][]uint32{}
			for _, c := range cols {
				rows[c] = make([]uint32, n)
			}
			for i := 0; i < n; i++ {
				rows["k"][i], rows["s"][i], rows["u"][i] = uint32(rng.Intn(int(span))), uint32(rng.Intn(int(span))), uint32(rng.Intn(int(span)))
				rows["g"][i], rows["m"][i] = uint32(rng.Intn(16)), uint32(rng.Intn(100))
			}
			return rows
		}
		rows := genRows(base, domain)
		fk := make([]uint32, 400)
		for i := range fk {
			fk[i] = uint32(rng.Intn(domain + 50))
		}
		build := func(cache bool) *recurSide {
			s := &recurSide{t: NewTable("t"), o: NewTable("o")}
			if cache {
				db := NewDB(CacheOptions{})
				s.t, _ = db.CreateTable("t")
				s.o, _ = db.CreateTable("o")
			}
			s.t.fold = neverFold
			for _, c := range cols {
				if err := s.t.AddColumn(c, rows[c]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.o.AddColumn("fk", fk); err != nil {
				t.Fatal(err)
			}
			if _, err := s.t.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.t.BuildShardedIndex("s", 4); err != nil {
				t.Fatal(err)
			}
			return s
		}
		cached, plain := build(true), build(false)
		for _, s := range []*recurSide{cached, plain} {
			ix, _ := s.t.ShardedIndex("s")
			defer ix.Close()
		}
		runRecurrence(t, cached, plain, refreshSurfaces(), func() map[string][]uint32 { return genRows(1+rng.Intn(300), domain+100) })
	})
}

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

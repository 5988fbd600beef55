package qcache_test

// The refresh-on-touch differential: a cached mmdb table against an uncached
// twin through a seeded sequence of absorbed appends, two Compact folds and a late index
// build, with every cached surface re-asked after 0, 1, 7 and 64 intervening
// batches — so an entry's mark falls now on a delta run's boundary, now deep
// inside runs the geometric tier has merged since.  Answers must agree row
// for row and in order; after every step checkCacheMarks holds every resident
// entry to "the answer over rows [0, mark) of its generation".

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cssidx"
	"cssidx/internal/mmdb"
	"cssidx/internal/qcache"
)

// side is one half of the differential pair: fact table t (k under a
// SortedIndex, s sharded only, u unindexed until the late build, g and m for
// aggregates) and the join's outer table o.
type side struct {
	t, o *mmdb.Table
	kIx  *mmdb.SortedIndex
	sIx  *mmdb.SortedIndex
}

var factCols = []string{"k", "s", "u", "g", "m"}

func newSide(tb testing.TB, cols map[string][]uint32, fk []uint32, cache bool) *side {
	tb.Helper()
	s := &side{t: mmdb.NewTable("t"), o: mmdb.NewTable("o")}
	if cache {
		db := mmdb.NewDB(mmdb.CacheOptions{MinCostNs: -1})
		s.t, _ = db.CreateTable("t")
		s.o, _ = db.CreateTable("o")
	}
	for _, c := range factCols {
		if err := s.t.AddColumn(c, cols[c]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.o.AddColumn("fk", fk); err != nil {
		tb.Fatal(err)
	}
	var err error
	if s.kIx, err = s.t.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		tb.Fatal(err)
	}
	if s.sIx, err = s.t.BuildShardedIndex("s", 4); err != nil {
		tb.Fatal(err)
	}
	return s
}

// genRows draws n rows: k, s and u over [0, span), g over 16 groups, m a
// small measure.
func genRows(rng *rand.Rand, n int, span uint32) map[string][]uint32 {
	cols := map[string][]uint32{}
	for _, c := range factCols {
		cols[c] = make([]uint32, n)
	}
	for i := 0; i < n; i++ {
		cols["k"][i] = uint32(rng.Intn(int(span)))
		cols["s"][i] = uint32(rng.Intn(int(span)))
		cols["u"][i] = uint32(rng.Intn(int(span)))
		cols["g"][i] = uint32(rng.Intn(16))
		cols["m"][i] = uint32(rng.Intn(100))
	}
	return cols
}

// surface is one cached query shape; ask runs it on a side and returns
// something fmt.Sprint can compare, rows and order.  n counts the asks
// so far, for the shapes that shift with every ask.
type surface struct {
	name string
	ask  func(s *side, n int) (any, error)
}

func rangeOn(col string, lo, hi uint32) func(*side, int) (any, error) {
	return func(s *side, _ int) (any, error) { r, _, err := s.t.SelectRange(col, lo, hi); return r, err }
}

func inOn(col string, vals func(n int) []uint32) func(*side, int) (any, error) {
	return func(s *side, n int) (any, error) { r, _, err := s.t.SelectIn(col, vals(n)); return r, err }
}

func fixed(vals ...uint32) func(int) []uint32 { return func(int) []uint32 { return vals } }

func span(lo, n, step uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = lo + uint32(i)*step
	}
	return out
}

func joinOn(inner func(*side) *mmdb.SortedIndex) func(*side, int) (any, error) {
	return func(s *side, _ int) (any, error) {
		var pairs [][2]uint32
		_, err := mmdb.JoinWith(s.o, "fk", inner(s), mmdb.JoinOptions{}, func(o, i uint32) { pairs = append(pairs, [2]uint32{o, i}) })
		return pairs, err
	}
}

// surfaces lists every cached surface: index and scan ranges, a contained
// subrange, a window that shifts with each ask (overlapping what the last
// asks left), grouped and ungrouped IN-lists, subset replays, near-supersets,
// WHERE, both aggregate sources and both join inners — on the SortedIndex
// column k and the sharded-only column s.
func surfaces() []surface {
	list := span(40, 12, 37)
	wide := span(0, 400, 2) // 40% of the domain: the planner scans
	var out []surface
	for _, col := range []string{"k", "s"} {
		out = append(out,
			surface{col + " index range", rangeOn(col, 100, 180)},
			surface{col + " index range overlapping", rangeOn(col, 170, 260)},
			surface{col + " contained subrange", rangeOn(col, 120, 150)},
			surface{col + " shifting window", func(s *side, n int) (any, error) {
				r, _, err := s.t.SelectRange(col, 110+uint32(n%40), 230+uint32(n%40))
				return r, err
			}},
			surface{col + " range past the frozen domain", rangeOn(col, 990, 1100)},
			surface{col + " scan range", rangeOn(col, 50, 700)},
			surface{col + " grouped IN", inOn(col, fixed(list...))},
			surface{col + " subset replay", inOn(col, func(n int) []uint32 {
				return []uint32{list[(n+7)%12], list[n%12], list[(n+3)%12]}
			})},
			surface{col + " near-superset", inOn(col, func(n int) []uint32 { return append(slices.Clone(list), 1000+uint32(n%50)) })},
			surface{col + " ungrouped IN", inOn(col, fixed(wide...))},
		)
	}
	return append(out,
		surface{"s sharded range", func(s *side, _ int) (any, error) { return s.sIx.SelectRange(300, 420) }},
		surface{"s sharded contained", func(s *side, _ int) (any, error) { return s.sIx.SelectRange(310, 400) }},
		surface{"u scan range, indexed late", rangeOn("u", 200, 260)},
		surface{"u scan IN, indexed late", inOn("u", fixed(list...))},
		surface{"where k and g", func(s *side, _ int) (any, error) {
			r, _, err := s.t.SelectWhere([]mmdb.RangePred{{Col: "k", Lo: 200, Hi: 380}, {Col: "g", Lo: 2, Hi: 9}})
			return r, err
		}},
		surface{"where s and u", func(s *side, _ int) (any, error) {
			r, _, err := s.t.SelectWhere([]mmdb.RangePred{{Col: "s", Lo: 500, Hi: 640}, {Col: "u", Lo: 0, Hi: 600}})
			return r, err
		}},
		surface{"aggregate all rows", func(s *side, _ int) (any, error) { return mmdb.GroupAggregate(s.t, "g", "m", nil) }},
		surface{"aggregate RID list", func(s *side, _ int) (any, error) { return mmdb.GroupAggregate(s.t, "g", "m", span(5, 300, 11)) }},
		surface{"join sorted inner", joinOn(func(s *side) *mmdb.SortedIndex { return s.kIx })},
		surface{"join sharded inner", joinOn(func(s *side) *mmdb.SortedIndex { return s.sIx })},
	)
}

// brief prints the head of a long answer.
func brief(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 240 {
		s = s[:240] + "…"
	}
	return s
}

// checkCacheMarks holds every resident entry of the cached fact table to its
// token: a generation no newer than the table's, a mark within its rows, and
// a payload equal to a recompute over rows [0, mark) of rows — the test's own
// copy of the table.  The structural invariants ride along.
func checkCacheMarks(t *testing.T, step string, s *side, rows map[string][]uint32) {
	t.Helper()
	for _, e := range qcache.CheckStructure(t, s.t.Cache()) {
		if e.Key.Table != "t" {
			continue
		}
		mark := int(e.Tok.Epoch)
		if mark > s.t.Rows() || (e.Key.Layer == qcache.LayerTable && e.Tok.Gen > s.t.Generation()) {
			t.Fatalf("%s: %+v stamped %+v on a table at generation %d with %d rows", step, e.Key, e.Tok, s.t.Generation(), s.t.Rows())
		}
		col := rows[e.Key.Col][:min(mark, len(rows[e.Key.Col]))]
		// matching returns the rows below the mark that satisfy keep, in
		// (value, RID) order when byValue, else in row order.
		matching := func(byValue bool, keep func(v uint32) bool) (vals, rids []uint32) {
			for r, v := range col {
				if keep(v) {
					vals, rids = append(vals, v), append(rids, uint32(r))
				}
			}
			if byValue {
				ord := make([]int, len(rids))
				for i := range ord {
					ord[i] = i
				}
				sort.SliceStable(ord, func(a, b int) bool { return vals[ord[a]] < vals[ord[b]] })
				sv, sr := make([]uint32, len(ord)), make([]uint32, len(ord))
				for i, j := range ord {
					sv[i], sr[i] = vals[j], rids[j]
				}
				vals, rids = sv, sr
			}
			return vals, rids
		}
		bad := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("%s: %+v at %+v: %s\n got %s\nwant %s", step, e.Key, e.Tok, what, brief(got), brief(want))
		}
		switch e.Key.Kind {
		case qcache.KindRange:
			vals, rids := matching(e.Ordered, func(v uint32) bool { return v >= e.Key.Lo && v <= e.Key.Hi })
			if !slices.Equal(e.RIDs, rids) {
				bad("RIDs", e.RIDs, rids)
			}
			if e.Ordered && !slices.Equal(e.Keys, vals) {
				bad("key run", e.Keys, vals)
			}
		case qcache.KindIn:
			if e.Goff == nil {
				_, rids := matching(false, func(v uint32) bool { _, ok := slices.BinarySearch(e.Vals, v); return ok })
				if got := slices.Sorted(slices.Values(e.RIDs)); !slices.Equal(got, rids) {
					bad("ungrouped rows", got, rids)
				}
				break
			}
			for p, v := range e.Vals {
				g := e.S2G[p]
				_, rids := matching(false, func(x uint32) bool { return x == v })
				if got := e.RIDs[e.Goff[g]:e.Goff[g+1]]; !slices.Equal(got, rids) {
					bad(fmt.Sprintf("group of %d", v), got, rids)
				}
			}
		case qcache.KindWhere:
			if !slices.IsSorted(e.RIDs) || (len(e.RIDs) > 0 && int(e.RIDs[len(e.RIDs)-1]) >= mark) {
				bad("conjunction rows", e.RIDs, "ascending RIDs below the mark")
			}
		case qcache.KindAgg:
			if !e.AggAll {
				break
			}
			want := map[uint32]*qcache.AggRow{}
			for r, g := range col {
				m := rows[e.AggMeasure][r]
				a := want[g]
				if a == nil {
					a = &qcache.AggRow{Value: g, Min: m, Max: m}
					want[g] = a
				}
				a.Count, a.Sum, a.Min, a.Max = a.Count+1, a.Sum+uint64(m), min(a.Min, m), max(a.Max, m)
			}
			if len(e.Aggs) != len(want) {
				bad("groups", len(e.Aggs), len(want))
			}
			for _, a := range e.Aggs {
				if w := want[a.Value]; w == nil || *w != a {
					bad(fmt.Sprintf("group %d", a.Value), a, w)
				}
			}
		}
	}
}

func TestRefreshOnTouchDifferential(t *testing.T) {
	const base, batches, domain = 12000, 150, 1000
	rng := rand.New(rand.NewSource(18))
	rows := genRows(rng, base, domain)
	fk := make([]uint32, 400)
	for i := range fk {
		fk[i] = uint32(rng.Intn(domain + 50))
	}
	cached, plain := newSide(t, rows, fk, true), newSide(t, rows, fk, false)
	defer cached.sIx.Close()
	defer plain.sIx.Close()
	both := func(what string, do func(s *side) error) {
		t.Helper()
		for _, s := range []*side{cached, plain} {
			if err := do(s); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}

	qs := surfaces()
	gaps := []int{64, 0, 1, 7} // after the n-th ask: re-asked 0, 1, 7, 64 batches on, and round again
	due, asked := make([]int, len(qs)), make([]int, len(qs))
	for i := range due {
		due[i] = i % 5 // staggered, so the surfaces' marks differ
	}
	for b := 0; b <= batches; b++ {
		for qi, q := range qs {
			for due[qi] <= b {
				step := fmt.Sprintf("batch %d, %s (ask %d)", b, q.name, asked[qi])
				got, err := q.ask(cached, asked[qi])
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				want, err := q.ask(plain, asked[qi])
				if err != nil {
					t.Fatalf("%s (uncached): %v", step, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) { // nil and empty answers are the same answer
					t.Fatalf("%s: cached and uncached answers differ\n got %s\nwant %s", step, brief(got), brief(want))
				}
				checkCacheMarks(t, step, cached, rows)
				asked[qi]++
				due[qi] = b + gaps[asked[qi]%len(gaps)] // a gap of 0 re-asks at once
			}
		}
		step := fmt.Sprintf("batch %d", b)
		switch b {
		case 70: // a late index build on the scanned column
			both(step+": late index build", func(s *side) error {
				_, err := s.t.BuildIndex("u", cssidx.KindLevelCSS, cssidx.Options{})
				return err
			})
		}
		// Absorbs of 1…64 rows, mostly small so runs stack and merge, with
		// values past the frozen domain among them.  The base is sized so the
		// delta stays under an eighth of it between the two folds (at most
		// 1,202 rows over 12,649 here), so every append is absorbed.
		n := 1 + rng.Intn(24)
		if b%8 == 3 {
			n = 1 + rng.Intn(64)
		}
		batch := genRows(rng, n, domain+100)
		baseRows := cached.t.BaseRows()
		both(step+": append", func(s *side) error { return s.t.AppendRows(batch) })
		if got := cached.t.BaseRows(); got != baseRows {
			t.Fatalf("%s: the append folded (base %d → %d rows, delta %d): the base is too small for the sequence", step, baseRows, got, cached.t.DeltaRows())
		}
		if b == 45 || b == 120 { // a fold, the batch included
			both(step+": compact", func(s *side) error { s.t.Compact(); return nil })
		}
		for _, c := range factCols {
			rows[c] = append(rows[c], batch[c]...)
		}
		checkCacheMarks(t, step+": append", cached, rows)
	}
	if g := cached.t.Generation(); g != 3 {
		t.Fatalf("generation %d after two folds", g)
	}
	st := cached.t.Cache().Stats()
	if st.Patches == 0 || st.ContainedHits == 0 || st.SubsetHits == 0 || st.AggregateHits == 0 || st.Invalidations == 0 {
		t.Fatalf("sequence left a reuse path unexercised: %+v", st)
	}
	if st.StitchedHits != 0 || st.GapProbes != 0 || st.SupersetHits != 0 || st.MissingKeyProbes != 0 {
		t.Fatalf("a retired counter moved: %+v", st)
	}
}

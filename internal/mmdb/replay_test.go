package mmdb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cssidx/internal/qcache"
)

// TestHitReplaysPlan: a hit returns the plan the planner gives the question
// afresh, field for field, Why byte for byte — whatever answered it: an
// exact range hit through a level CSS-tree index, scan-planned on that
// column, on a hashed, an unindexed and a sharded column; a containment hit;
// an exact IN hit, index- or scan-planned, and a subset replay, whose base
// rows are counted off its RIDs, on the level CSS-tree and the sharded
// column; an exact conjunction hit.  Each is asked
// at rows == baseRows, after absorbed appends (the entries are brought
// current and only the row estimate moves) and after a fold.  Then the
// questions a plan proves empty must leave no trace in the counters.
func TestHitReplaysPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := whereOps(t, rng, 2000, 0)
	qc := w.tab.EnableCache(CacheOptions{MinCostNs: -1})
	top := uint32(2 * int(w.col("k").span))

	// The IN parent on k lists base values, values only the appended tail
	// will hold (odd) and values nothing holds; its subsets replay from it.
	parent := []uint32{top + 3, 1, 3, 5}
	for len(parent) < 40 {
		parent = append(parent, w.raw["k"][rng.Intn(2000)])
	}
	type question struct {
		name string
		kind qcache.HitKind // how a repeat is answered
		ask  func() (got, want []Plan, err error)
	}
	rangeQ := func(col string, lo, hi uint32, kind qcache.HitKind) question {
		return question{fmt.Sprintf("range %s [%d,%d]", col, lo, hi), kind, func() ([]Plan, []Plan, error) {
			_, got, err := w.tab.SelectRange(col, lo, hi)
			want, _ := w.tab.PlanRange(col, lo, hi)
			return []Plan{got}, []Plan{want}, err
		}}
	}
	inQ := func(col string, list []uint32, kind qcache.HitKind) question {
		return question{fmt.Sprintf("in %s %v", col, list), kind, func() ([]Plan, []Plan, error) {
			_, got, err := w.tab.SelectIn(col, list)
			want, _ := w.tab.PlanIn(col, list)
			return []Plan{got}, []Plan{want}, err
		}}
	}
	whereQ := func(preds ...RangePred) question {
		return question{fmt.Sprintf("where %v", preds), qcache.HitExact, func() ([]Plan, []Plan, error) {
			_, got, err := w.tab.SelectWhere(preds)
			want := make([]Plan, len(preds))
			for i, p := range preds {
				want[i], _ = w.tab.PlanRange(p.Col, p.Lo, p.Hi)
			}
			return got, want, err
		}}
	}
	questions := []question{
		rangeQ("k", 100, 180, qcache.HitExact),
		rangeQ("k", 120, 150, qcache.HitContained),
		rangeQ("k", 0, top/2, qcache.HitExact), // scan-planned through a sorted index
		rangeQ("h", 4, 20, qcache.HitExact),
		rangeQ("u", 10, 70, qcache.HitExact),
		rangeQ("s", 40, 90, qcache.HitExact), // sharded: looked up first, like k
		inQ("k", parent, qcache.HitExact),
		inQ("k", parent[:12], qcache.HitSubset),
		inQ("k", parent[20:], qcache.HitSubset),
		inQ("h", []uint32{0, 2, 4, 6, 8, 10, 12, 14, 16}, qcache.HitExact), // scan-planned
		inQ("u", []uint32{2, 4, 9}, qcache.HitExact),
		inQ("s", []uint32{2, 40, 41, 90, 96, top + 1}, qcache.HitExact),
		inQ("s", []uint32{40, 96}, qcache.HitSubset),
		whereQ(RangePred{"k", 100, 400}, RangePred{"s", 0, 300}, RangePred{"u", 0, 90}),
		whereQ(RangePred{"k", 0, top / 2}, RangePred{"h", 0, 20}),
	}
	ask := func(state string, q question) qcache.Stats {
		before := qc.Stats()
		got, want, err := q.ask()
		if err != nil {
			t.Fatalf("%s, %s: %v", state, q.name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s, %s: plans %+v, the planner says %+v", state, q.name, got, want)
		}
		return before
	}
	for _, state := range []string{"rows == baseRows", "after absorbed appends", "after a fold"} {
		switch state {
		case "after absorbed appends":
			absorbTail(t, w, rng, 300)
		case "after a fold":
			w.tab.Compact()
		}
		for round := 0; round < 2; round++ {
			for _, q := range questions {
				before := ask(state, q)
				if round == 0 {
					continue // the state's first ask may compute
				}
				s := qc.Stats()
				kinds := [...]int64{qcache.HitContained: s.ContainedHits - before.ContainedHits,
					qcache.HitSubset: s.SubsetHits - before.SubsetHits}
				if s.Misses != before.Misses || s.Hits != before.Hits+1 || (q.kind != qcache.HitExact && kinds[q.kind] != 1) {
					t.Fatalf("%s, %s: not a %v hit: %+v → %+v", state, q.name, q.kind, before, s)
				}
			}
		}
	}

	// Questions the plan proves empty — bounds past every value the table
	// ever held on a column with no ordered index, or inverted — are
	// answered without counting a miss, noting a first sight or inserting,
	// at default admission.  (An index-planned range caches its empty run,
	// on k and s alike.)
	w.tab.Compact()
	qc = w.tab.EnableCache(CacheOptions{})
	for _, q := range []func() error{
		func() error { _, _, err := w.tab.SelectRange("u", 1<<30, 1<<30+9); return err },
		func() error { _, _, err := w.tab.SelectRange("h", 1<<30, 1<<31); return err },
		func() error { _, _, err := w.tab.SelectRange("k", 9, 3); return err },
		func() error { _, _, err := w.tab.SelectWhere([]RangePred{{"u", 0, 40}, {"k", 9, 3}}); return err },
		func() error {
			_, _, err := w.tab.SelectWhere([]RangePred{{"k", 0, 400}, {"s", 1 << 30, 1 << 31}})
			return err
		},
	} {
		for ask := 0; ask < 2; ask++ {
			before := qc.Stats()
			if err := q(); err != nil {
				t.Fatal(err)
			}
			if s := qc.Stats(); s.Misses != before.Misses || s.Deferred != before.Deferred || s.Inserts != before.Inserts {
				t.Fatalf("a provably empty question reached the cache: %+v → %+v", before, s)
			}
		}
	}
}

// TestHitRunsNoPlanning: an exact SelectRange or SelectIn hit answers with
// the plan its entry stored and runs no planning, on the column searched by a
// level CSS-tree ("k") and on the sharded column ("s") alike.  Each question's
// entry is planted with a plan the planner never gives, so a path that plans
// before its lookup — or that looks up in another layer — returns the
// planner's plan instead, or misses.
func TestHitRunsNoPlanning(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	w := whereOps(t, rng, 2000, 0)
	absorbTail(t, w, rng, 100)
	stored := qcache.Plan{UseIndex: true, Frac: 0.5, Why: "stored with the entry"}
	want := Plan{UseIndex: true, EstRows: w.tab.Rows() / 2, Why: stored.Why}
	list := []uint32{2, 40, 41, 90, 96}
	type question struct {
		name string
		ask  func() ([]uint32, Plan, error)
	}
	var questions []question
	var answers [][]uint32
	for _, col := range []string{"k", "s"} {
		questions = append(questions,
			question{"range " + col, func() ([]uint32, Plan, error) { return w.tab.SelectRange(col, 40, 90) }},
			question{"in " + col, func() ([]uint32, Plan, error) { return w.tab.SelectIn(col, list) }})
	}
	for _, q := range questions { // computed with no cache attached
		rids, _, err := q.ask()
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, rids)
	}
	qc := w.tab.EnableCache(CacheOptions{MinCostNs: -1})
	for i, col := range []string{"k", "s"} {
		qc.InsertRangeRows(rangeFP(w.tab.name, col, qcache.LayerTable, 40, 90), w.tab.token(), answers[2*i], 1<<20, stored)
		qc.InsertIn(inFP(w.tab.name, col, list), w.tab.token(), list, nil, answers[2*i+1], 1<<20, stored)
	}
	for i, q := range questions {
		before := qc.Stats()
		rids, plan, err := q.ask()
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if plan != want {
			t.Errorf("%s: plan %+v, want the stored %+v", q.name, plan, want)
		}
		mustEqualU32(t, q.name, rids, answers[i])
		if s := qc.Stats(); s.Hits != before.Hits+1 || s.Misses != before.Misses {
			t.Errorf("%s: not an exact hit: %+v → %+v", q.name, before, s)
		}
	}
}

// TestWhereHitAfterAbsorb: a cached conjunction survives absorbed appends.
// Its hit after each batch equals the scan oracle, and the entry was
// brought current by qualifying the appended rows against its conjuncts
// (Patches) rather than dropped (Invalidations).
func TestWhereHitAfterAbsorb(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	w := whereOps(t, rng, 2000, 0)
	qc := w.tab.EnableCache(CacheOptions{MinCostNs: -1})
	for _, preds := range [][]RangePred{
		{{"k", 100, 900}, {"u", 0, 70}},
		{{"s", 0, 200}, {"h", 2, 20}, {"u", 10, 127}},
	} {
		checkWhere(t, w, "cold", preds)
		for round := 0; round < 4; round++ {
			absorbTail(t, w, rng, 40)
			before := qc.Stats()
			checkWhere(t, w, fmt.Sprintf("after %d absorbs", round+1), preds)
			s := qc.Stats()
			if s.Hits != before.Hits+1 || s.Misses != before.Misses || s.Patches != before.Patches+1 || s.Invalidations != before.Invalidations {
				t.Fatalf("%v after %d absorbs: not a hit brought current: %+v → %+v", preds, round+1, before, s)
			}
		}
	}
}

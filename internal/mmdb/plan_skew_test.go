package mmdb

import (
	"math/rand"
	"testing"

	"cssidx"
)

// TestPlanFollowsSkew: an ordered index prices a range by the base rows its
// span holds, so the estimate stays right under skew.  On a Zipf-1.1 column,
// ranges holding the hottest value must be estimated within 10% of the rows
// that hold them; a uniform-within-domain estimate prices the hottest value
// like any other and misses it by orders of magnitude.
func TestPlanFollowsSkew(t *testing.T) {
	const n, offset = 200_000, 1000
	rng := rand.New(rand.NewSource(11))
	z := rand.NewZipf(rng, 1.1, 1, 1<<20)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = offset + uint32(z.Uint64()) // the hottest value is offset
	}
	count := func(lo, hi uint32) int {
		c := 0
		for _, v := range vals {
			if lo <= v && v <= hi {
				c++
			}
		}
		return c
	}
	for _, structure := range []string{"level CSS", "sharded"} {
		tab := NewTable("zipf")
		if err := tab.AddColumn("z", vals); err != nil {
			t.Fatal(err)
		}
		var err error
		if structure == "sharded" {
			_, err = tab.BuildShardedIndex("z", 4)
		} else {
			_, err = tab.BuildIndex("z", cssidx.KindLevelCSS, cssidx.Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]uint32{{offset, offset}, {0, offset}, {offset, offset + 3}, {offset - 5, offset + 40}} {
			p, err := tab.PlanRange("z", r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			want := count(r[0], r[1])
			if diff := p.EstRows - want; 10*diff > want || -10*diff > want {
				t.Errorf("%s [%d,%d]: EstRows %d, the column holds %d rows in range", structure, r[0], r[1], p.EstRows, want)
			}
		}
	}
}

// TestContainedHitPlansAsPlanRange: a range answered by containment is
// priced from the hit's own RIDs — those below the last fold are the base
// rows the planner's bounds would count — so the Plan it returns (UseIndex,
// EstRows, Why) must equal PlanRange's for the same range, on a level
// CSS-tree, a sharded and a hash column, on a folded table and after an
// absorbed append.  The column is skewed, so a uniform estimate would not
// pass for the ordered ones; the hash column is scan-planned and never
// answers by containment, and must plan the same too.
func TestContainedHitPlansAsPlanRange(t *testing.T) {
	const n = 40_000
	rng := rand.New(rand.NewSource(12))
	z := rand.NewZipf(rng, 1.1, 1, 1<<12)
	gen := func(n int) []uint32 {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = 100 + uint32(z.Uint64())*16
		}
		return vals
	}
	tab := NewTable("zipf")
	for _, c := range []string{"l", "s", "h"} {
		if err := tab.AddColumn(c, gen(n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.BuildIndex("l", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildShardedIndex("s", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildIndex("h", cssidx.KindHash, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	qc := tab.EnableCache(CacheOptions{MinCostNs: -1})
	for _, phase := range []string{"folded", "after an absorb"} {
		if phase != "folded" {
			if err := tab.AppendRows(map[string][]uint32{"l": gen(500), "s": gen(500), "h": gen(500)}); err != nil {
				t.Fatal(err)
			}
			if tab.DeltaRows() != 500 {
				t.Fatalf("the append folded: %d delta rows", tab.DeltaRows())
			}
		}
		for _, col := range []string{"l", "s", "h"} {
			contained := qc.Stats().ContainedHits
			// The wide range skips the hottest values, so it plans the index.
			wideLo, wideHi := uint32(100+16*200), uint32(100+16*1200)
			if _, p, err := tab.SelectRange(col, wideLo, wideHi); err != nil || p.UseIndex != (col != "h") {
				t.Fatalf("%s %s: wide range planned %+v, %v", phase, col, p, err)
			}
			for q := 0; q < 20; q++ {
				lo := wideLo + uint32(rng.Intn(int(wideHi-wideLo)))
				hi := lo + uint32(rng.Intn(int(wideHi-lo)+1))
				_, got, err := tab.SelectRange(col, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				want, err := tab.PlanRange(col, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s %s [%d,%d]: the answered query's plan %+v, PlanRange's %+v", phase, col, lo, hi, got, want)
				}
			}
			if hits := qc.Stats().ContainedHits - contained; (hits > 0) != (col != "h") {
				t.Fatalf("%s %s: %d containment hits", phase, col, hits)
			}
		}
	}
}

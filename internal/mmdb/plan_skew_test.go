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

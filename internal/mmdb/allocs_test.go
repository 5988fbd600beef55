//go:build !race

package mmdb

import (
	"testing"
)

// TestWarmHitAllocs pins the allocation count of the exact-hit path of every
// cached surface at the figures measured before the *Ctx / *Traced clones
// were folded into one entry: the plain call routes through the one entry
// with a background context, and nothing on that route — the env value, the
// entry bracket, the cached-path helpers — may cost an allocation of its
// own.  (What does allocate on a hit is planning: the Plan.Why strings,
// SelectIn's dedupe map, distinct list and plan IDs, SelectWhere's bound
// resolution and plan slice, the aggregate's fingerprint.)  The race
// detector's instrumentation moves a count, hence the build tag.
func TestWarmHitAllocs(t *testing.T) {
	cached, _, g := cachePair(t, 3000, 91)
	outer := NewTable("o")
	bVals, _ := cached.Column("b")
	if err := outer.AddColumn("fk", g.Lookups(bVals.Domain().Values(), 500)); err != nil {
		t.Fatal(err)
	}
	outer.EnableCache(CacheOptions{MinCostNs: -1})
	aIx, _ := cached.Index("a")
	cVals, _ := cached.Column("c")
	list := g.Lookups(cVals.Domain().Values(), 6)
	preds := []RangePred{{Col: "a", Lo: 0, Hi: 1 << 30}, {Col: "b", Lo: 1 << 27, Hi: 1 << 31}}
	if _, err := JoinWith(outer, "fk", aIx, JoinOptions{}, func(o, i uint32) {}); err != nil {
		t.Fatal(err) // an emitting join fills the pair cache the count-only join reads
	}
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"SelectRange", 3, func() { cached.SelectRange("a", 1<<28, 1<<28+1<<26) }},
		{"SelectRange sharded-only", 3, func() { cached.SelectRange("b", 1<<28, 1<<28+1<<24) }},
		{"SelectIn", 5, func() { cached.SelectIn("c", list) }},
		{"SelectWhere", 16, func() { cached.SelectWhere(preds) }},
		{"GroupAggregate", 1, func() { GroupAggregate(cached, "c", "a", nil) }},
		{"JoinWith count-only", 0, func() { JoinWith(outer, "fk", aIx, JoinOptions{}, nil) }},
	} {
		c.run() // warm: the measured calls are all exact hits
		if got := testing.AllocsPerRun(200, c.run); got != c.want {
			t.Errorf("%s warm hit: %v allocs/op, pinned at %v", c.name, got, c.want)
		}
	}
}

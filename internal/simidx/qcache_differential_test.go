package simidx_test

// Result-cache differential leg: the harness's adversarial key sets —
// empty, single-key, all-duplicates, uint32 extremes, node-boundary runs —
// are loaded into mmdb tables twice, one with the qcache result cache
// admitting everything and one with caching disabled, and every query
// surface must answer bit-identically on the fill pass AND the hit pass,
// before and after an invalidating AppendRows batch.  This extends the
// index-vs-oracle contract one layer up: caching is an execution detail
// that must never be observable in results.

import (
	"fmt"
	"slices"
	"testing"

	"cssidx"
	"cssidx/internal/crashtest"
	"cssidx/internal/mmdb"
	"cssidx/internal/workload"
)

// buildCachePairTables loads keys into two tables indexed by kind: cached
// admits every result, plain has no cache.
func buildCachePairTables(t *testing.T, keys []uint32, kind cssidx.Kind) (cached, plain *mmdb.Table) {
	t.Helper()
	build := func() *mmdb.Table {
		tab := mmdb.NewTable("t")
		if err := tab.AddColumn("k", keys); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.BuildIndex("k", kind, cssidx.Options{}); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	cached = build()
	cached.EnableCache(mmdb.CacheOptions{MinCostNs: -1})
	return cached, build()
}

// cacheBattery compares every query surface across the cached/uncached
// pair, running each query twice on the cached side (fill, then hit).
func cacheBattery(t *testing.T, cached, plain *mmdb.Table, probes []uint32, tag string) {
	t.Helper()
	agree := func(query string, ask func(tab *mmdb.Table) ([]uint32, error)) {
		t.Helper()
		want, err := ask(plain)
		for pass := 0; err == nil && pass < 2; pass++ {
			var got []uint32
			if got, err = ask(cached); err == nil && !slices.Equal(got, want) {
				t.Fatalf("%s %s pass %d: %v != %v", tag, query, pass, got, want)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(probes); i += 2 {
		lo, hi := min(probes[i], probes[i+1]), max(probes[i], probes[i+1])
		agree(fmt.Sprintf("SelectRange[%d,%d]", lo, hi), func(tab *mmdb.Table) ([]uint32, error) {
			rids, _, err := tab.SelectRange("k", lo, hi)
			return rids, err
		})
		agree(fmt.Sprintf("SelectWhere[%d,%d]", lo, hi), func(tab *mmdb.Table) ([]uint32, error) {
			rids, _, err := tab.SelectWhere([]mmdb.RangePred{{Col: "k", Lo: lo, Hi: hi}})
			return rids, err
		})
	}
	for size := 1; size <= len(probes); size *= 4 {
		agree(fmt.Sprintf("SelectIn size %d", size), func(tab *mmdb.Table) ([]uint32, error) {
			rids, _, err := tab.SelectIn("k", probes[:size])
			return rids, err
		})
	}
}

func TestQCacheDifferentialAdversarial(t *testing.T) {
	g := workload.New(77)
	sets := crashtest.AdversarialSets()
	sets["random-dups"] = g.Lookups(g.SortedUniform(512), 1024)
	for name, keys := range sets {
		t.Run(name, func(t *testing.T) {
			cached, plain := buildCachePairTables(t, keys, cssidx.KindLevelCSS)
			probes := probeSet(keys, g)
			if len(probes) > 256 {
				probes = probes[:256]
			}
			cacheBattery(t, cached, plain, probes, "gen1")
			// An invalidating batch: domains renumber, the generation
			// moves, and everything must still agree.
			batch := map[string][]uint32{"k": {0, 3, 42, ^uint32(0)}}
			if err := cached.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			if err := plain.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			cacheBattery(t, cached, plain, probes, "gen2")
			if s := cached.Cache().Stats(); s.Hits == 0 {
				t.Fatalf("%s: cache never hit: %+v", name, s)
			}
		})
	}
}

// TestQCacheDifferentialKinds runs the battery across every index method
// the table layer accepts, including hash (IN-lists through equality
// probes) — the cache must be invisible regardless of the access method
// underneath.
func TestQCacheDifferentialKinds(t *testing.T) {
	g := workload.New(78)
	keys := g.Lookups(g.SortedUniform(400), 900)
	kinds := []cssidx.Kind{
		cssidx.KindBinarySearch, cssidx.KindTTree, cssidx.KindBPlusTree,
		cssidx.KindFullCSS, cssidx.KindLevelCSS, cssidx.KindHash,
	}
	for _, kind := range kinds {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			cached, plain := buildCachePairTables(t, keys, kind)
			cacheBattery(t, cached, plain, probeSet(keys, g)[:64], "kinds")
		})
	}
}

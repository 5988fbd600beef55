package mmdb

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cssidx"
	"cssidx/internal/telemetry"
)

func shardedFixture(t *testing.T, rows int, seed int64) (*Table, []uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]uint32, rows)
	for i := range vals {
		vals[i] = uint32(rng.Intn(rows / 4)) // plenty of duplicates
	}
	tbl := NewTable("orders")
	if err := tbl.AddColumn("qty", vals); err != nil {
		t.Fatal(err)
	}
	return tbl, vals
}

// TestShardedIndexServesDuringAppendRows runs concurrent range queries
// against the sharded index while AppendRows repeatedly rebuilds it; every
// answer must be internally consistent with some published epoch.  The
// appends start once a reader has answered: a fold starts no goroutine and
// waits on none, so nothing else makes the writer yield to the readers.
func TestShardedIndexServesDuringAppendRows(t *testing.T) {
	tbl, _ := shardedFixture(t, 4000, 42)
	sh, err := tbl.BuildShardedIndex("qty", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	stop, serving := make(chan struct{}), make(chan struct{})
	var queries atomic.Int64
	var first sync.Once
	var wg sync.WaitGroup
	bad := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := uint32(rng.Intn(900))
				hi := lo + uint32(rng.Intn(100))
				if _, err := sh.SelectRange(lo, hi); err != nil {
					select {
					case bad <- err.Error():
					default:
					}
					return
				}
				queries.Add(1)
				first.Do(func() { close(serving) })
			}
		}(int64(w))
	}
	select {
	case <-serving:
	case msg := <-bad:
		t.Fatal(msg)
	}

	rng := rand.New(rand.NewSource(7))
	for batch := 0; batch < 12; batch++ {
		vals := make([]uint32, 500)
		for i := range vals {
			vals[i] = uint32(rng.Intn(1200))
		}
		if err := tbl.AppendRows(map[string][]uint32{"qty": vals}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}
	if got := sh.Epoch(); got != 13 {
		t.Fatalf("epoch=%d want 13 (1 build + 12 AppendRows)", got)
	}
	if tbl.Rows() != 4000+12*500 {
		t.Fatalf("rows=%d", tbl.Rows())
	}
	// After the last rebuild the answers must reflect every appended row.
	all, err := sh.SelectRange(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != tbl.Rows() {
		t.Fatalf("SelectRange(all) = %d rows, want %d", len(all), tbl.Rows())
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed during rebuilds")
	}
}

// TestPlannerUsesShardedIndex: table range queries route through the
// sharded index when it is the only index on the column.
func TestPlannerUsesShardedIndex(t *testing.T) {
	tbl, _ := shardedFixture(t, 4000, 43)
	sh, err := tbl.BuildShardedIndex("qty", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	plan, err := tbl.PlanRange("qty", 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UseIndex {
		t.Fatalf("selective predicate should use the sharded index: %+v", plan)
	}
	rids, plan2, err := tbl.SelectRange("qty", 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !plan2.UseIndex {
		t.Fatalf("SelectRange ignored the sharded index: %+v", plan2)
	}
	// Verify against a scan.
	c, _ := tbl.Column("qty")
	want := 0
	for row := 0; row < tbl.Rows(); row++ {
		if v := c.Value(row); v >= 5 && v <= 10 {
			want++
		}
	}
	if len(rids) != want {
		t.Fatalf("sharded range returned %d rids, scan says %d", len(rids), want)
	}
	// A wide predicate still falls back to the scan.
	plan3, err := tbl.PlanRange("qty", 0, 4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if plan3.UseIndex {
		t.Fatalf("unselective predicate should scan: %+v", plan3)
	}
}

// TestOneIndexPerColumn: a column holds one index.  BuildShardedIndex over a
// column that has an index, and BuildIndex over a sharded one, each replace
// it: the table's cached entries are dropped and table queries answer from
// the new structure.  No step starts a background rebuilder: a sharded
// column is a frozen structure, so the count of shard.(*Index).loop
// goroutines never rises — not at a build, a fold (Compact, or appends past
// the fold trigger) or a replacement.
func TestOneIndexPerColumn(t *testing.T) {
	tbl, vals := shardedFixture(t, 4000, 47)
	tbl.EnableCache(CacheOptions{MinCostNs: -1})
	rebuilders := func() int {
		buf := make([]byte, 1<<16)
		for n := runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
			buf = make([]byte, 2*len(buf))
		}
		return strings.Count(string(buf), "shard.(*Index).loop(")
	}
	g0 := rebuilders()
	// noRise samples the count for a while: a goroutine just started may not
	// show in the first stack dump, but a rebuilder never exits on its own.
	noRise := func(tag string) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if n := rebuilders(); n > g0 {
				t.Fatalf("%s: %d sharded rebuilders running, %d before the test", tag, n, g0)
			}
		}
	}
	var want []uint32 // the range's answer, in (value, RID) order
	for v := uint32(100); v <= 140; v++ {
		for rid, x := range vals {
			if x == v {
				want = append(want, uint32(rid))
			}
		}
	}
	// ask runs the range through the table and returns its execute path,
	// leaving its answer cached.
	ask := func(tag string) string {
		t.Helper()
		tr := telemetry.NewTrace("SelectRange")
		got, _, err := tbl.SelectRangeCtx(context.Background(), "qty", 100, 140, tr)
		if err != nil {
			t.Fatal(err)
		}
		if path := tr.Root().Find("execute").AttrValue("path"); path == "scan" {
			slices.Sort(got)
			mustEqualU32(t, tag, got, slices.Sorted(slices.Values(want)))
		} else {
			mustEqualU32(t, tag, got, want)
		}
		if tbl.Cache().Stats().Entries == 0 {
			t.Fatalf("%s: the answer was not cached", tag)
		}
		return tr.Root().Find("execute").AttrValue("path")
	}
	replace := func(tag string, build func() (*SortedIndex, error), path string, sharded bool) {
		t.Helper()
		ix, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := tbl.Index("qty"); got != ix {
			t.Fatalf("%s: Index returns the replaced index", tag)
		}
		if _, ok := tbl.ShardedIndex("qty"); ok != sharded {
			t.Fatalf("%s: ShardedIndex ok = %v", tag, ok)
		}
		if n := tbl.Cache().Stats().Entries; n != 0 {
			t.Fatalf("%s: %d cached entries survived the replacement", tag, n)
		}
		if got := ask(tag); got != path {
			t.Fatalf("%s: table query ran path=%s, want %s", tag, got, path)
		}
	}
	level := func() (*SortedIndex, error) { return tbl.BuildIndex("qty", cssidx.KindLevelCSS, cssidx.Options{}) }
	sharded := func() (*SortedIndex, error) { return tbl.BuildShardedIndex("qty", 3) }
	hash := func() (*SortedIndex, error) { return tbl.BuildIndex("qty", cssidx.KindHash, cssidx.Options{}) }

	// fold appends n rows valued outside the queried range — past the fold
	// trigger, or followed by Compact — and checks the column folded into a
	// fresh sharded base.
	fold := func(tag string, n int, compact bool) {
		t.Helper()
		add := make([]uint32, n)
		for i := range add {
			add[i] = 5000 + uint32(i)
		}
		if err := tbl.AppendRows(map[string][]uint32{"qty": add}); err != nil {
			t.Fatal(err)
		}
		if compact {
			tbl.Compact()
		}
		if tbl.DeltaRows() != 0 {
			t.Fatalf("%s: %d rows still in the delta", tag, tbl.DeltaRows())
		}
		if _, ok := tbl.ShardedIndex("qty"); !ok {
			t.Fatalf("%s: the fold left no sharded index", tag)
		}
		noRise(tag)
	}
	replace("level over none", level, "sorted-index", false)
	replace("sharded over level", sharded, "sharded", true)
	noRise("sharded over level")
	fold("Compact", 10, true)
	fold("appends past the trigger", tbl.BaseRows()/foldDenominator+1, false)
	replace("sharded over sharded", sharded, "sharded", true)
	noRise("sharded over sharded")
	replace("hash over sharded", hash, "scan", false)
	replace("sharded over hash", sharded, "sharded", true)
	noRise("sharded over hash")
	replace("level over sharded", level, "sorted-index", false)
	noRise("level over sharded")
}

package mmdb

import (
	"fmt"
	"sync"
	"testing"

	"cssidx"
	"cssidx/internal/parallel"
	"cssidx/internal/workload"
)

// joinPairs collects a join's emission stream.
type joinPairs struct{ outer, inner []uint32 }

func collectJoin(t *testing.T, outer *Table, col string, inner *SortedIndex, opts JoinOptions) (int, joinPairs) {
	t.Helper()
	var p joinPairs
	n, err := JoinWith(outer, col, inner, opts, func(o, i uint32) {
		p.outer = append(p.outer, o)
		p.inner = append(p.inner, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(p.outer) {
		t.Fatalf("join count %d != emitted %d", n, len(p.outer))
	}
	return n, p
}

func buildJoinTables(t *testing.T, seed int64, innerRows, outerRows int) (*Table, *Table) {
	t.Helper()
	g := workload.New(seed)
	innerKeys := g.SortedWithDuplicates(innerRows, 3)
	outerVals := append(g.Lookups(innerKeys, outerRows*3/4), g.Misses(innerKeys, outerRows/4)...)
	inner := NewTable("inner")
	if err := inner.AddColumn("k", innerKeys); err != nil {
		t.Fatal(err)
	}
	outer := NewTable("outer")
	if err := outer.AddColumn("k", outerVals); err != nil {
		t.Fatal(err)
	}
	return inner, outer
}

// TestJoinShardedDuringAppendRows drives joins against a sharded inner while
// AppendRows publish new epochs: every join must see one consistent epoch —
// counts only ever grow as later joins freeze later epochs, and each count
// matches a legal epoch state.  Run with -race.
func TestJoinShardedDuringAppendRows(t *testing.T) {
	const hot = uint32(424242)
	g := workload.New(43)
	base := g.SortedDistinct(4000)
	inner := NewTable("inner")
	if err := inner.AddColumn("k", base); err != nil {
		t.Fatal(err)
	}
	sh, err := inner.BuildShardedIndex("k", 4)
	if err != nil {
		t.Fatal(err)
	}
	outer := NewTable("outer")
	outerVals := make([]uint32, 512)
	for i := range outerVals {
		outerVals[i] = hot
	}
	if err := outer.AddColumn("k", outerVals); err != nil {
		t.Fatal(err)
	}

	const appends = 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for a := 0; a < appends; a++ {
			// Each append adds one more `hot` row (plus noise rows).
			if err := inner.AppendRows(map[string][]uint32{"k": {hot, uint32(900000 + a)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	lastCount := -1
	for i := 0; i < 200; i++ {
		sh2, ok := inner.ShardedIndex("k")
		if !ok {
			t.Fatal("sharded index vanished")
		}
		n, err := JoinWith(outer, "k", sh2, JoinOptions{
			batch: 64,
			par:   parallel.Options{Workers: 4, MinBatchPerWorker: 64},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Each hot occurrence matches all 512 outer rows: count must be a
		// multiple of 512 ranging over the epoch states 0..appends.
		if n%512 != 0 || n/512 > appends {
			t.Fatalf("join %d: count %d is not a consistent epoch state", i, n)
		}
		if n < lastCount {
			t.Fatalf("join %d: count went backwards (%d after %d) — epochs mixed", i, n, lastCount)
		}
		lastCount = n
	}
	wg.Wait()
	_ = sh
	// After all appends land, a final join must see every hot row.
	shFinal, _ := inner.ShardedIndex("k")
	n, err := JoinWith(outer, "k", shFinal, JoinOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != appends*512 {
		t.Fatalf("final join count %d, want %d", n, appends*512)
	}
	shFinal.Close()
}

// BenchmarkParallelJoin drives the §2.2 join through the worker pool at one,
// four and GOMAXPROCS workers.
func BenchmarkParallelJoin(b *testing.B) {
	g := workload.New(3)
	innerN, outerN := 1_000_000, 1<<17
	if testing.Short() {
		innerN, outerN = 100_000, 1<<15
	}
	innerKeys := g.SortedUniform(innerN)
	inner, outer := NewTable("inner"), NewTable("outer")
	if err := inner.AddColumn("k", innerKeys); err != nil {
		b.Fatal(err)
	}
	if err := outer.AddColumn("k", g.Lookups(innerKeys, outerN)); err != nil {
		b.Fatal(err)
	}
	ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := JoinWith(outer, "k", ix, JoinOptions{par: parallel.Options{Workers: w}}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(outerN)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mprobes/s")
		})
	}
}

// BenchmarkJoinOverRuns is an emitting join against an inner index with
// eight delta runs outstanding, streamed on one worker and staged across
// GOMAXPROCS: every probe value also searches each run.
func BenchmarkJoinOverRuns(b *testing.B) {
	g := workload.New(5)
	innerN, outerN, batch := 1_000_000, 1<<17, 256
	if testing.Short() {
		innerN, outerN, batch = 100_000, 1<<15, 32
	}
	innerKeys := g.SortedUniform(innerN)
	inner, outer := NewTable("inner"), NewTable("outer")
	if err := inner.AddColumn("k", innerKeys); err != nil {
		b.Fatal(err)
	}
	if err := outer.AddColumn("k", g.Lookups(innerKeys, outerN)); err != nil {
		b.Fatal(err)
	}
	ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for range 255 {
		if err := inner.AppendRows(map[string][]uint32{"k": g.Lookups(innerKeys, batch)}); err != nil {
			b.Fatal(err)
		}
	}
	if runs := len(ix.cur.Load().runs); runs != 8 {
		b.Fatalf("%d runs outstanding, want 8", runs)
	}
	for _, w := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := JoinWith(outer, "k", ix, JoinOptions{par: parallel.Options{Workers: w}}, func(o, i uint32) {}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(outerN)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mprobes/s")
		})
	}
}

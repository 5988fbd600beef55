package mmdb

// Tests of the delta layer's bookkeeping: the fold trigger and schedules,
// the run tier's invariants (checkRuns, which the table-ops generator applies
// after every step) and the one-pass cascade against a pairwise reference.
// Every read surface across absorbs and folds is FuzzTableOps' (ops_test.go).

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cssidx"
	"cssidx/internal/bloom"
	"cssidx/internal/sortu32"
	"cssidx/internal/workload"
)

// The fold schedules tests set through Table.fold besides the engine's.
var (
	foldEveryBatch = foldPolicy{always: true}
	neverFold      = foldPolicy{minRows: 1 << 30}
)

// checkRuns verifies the structural invariants of one index's delta tier:
// every run sorted by (value, RID) with fences and bloom filter admitting
// each of its keys, RID intervals disjoint and ascending in run order, and
// sizes at least halving along the slice (pushRun's geometric tier).
func checkRuns(runs []idxRun) error {
	for i := range runs {
		r := &runs[i]
		if len(r.vals) == 0 || len(r.vals) != len(r.rids) {
			return fmt.Errorf("run %d: %d values, %d RIDs", i, len(r.vals), len(r.rids))
		}
		if r.min != r.vals[0] || r.max != r.vals[len(r.vals)-1] {
			return fmt.Errorf("run %d: fences [%d,%d] over values [%d,%d]", i, r.min, r.max, r.vals[0], r.vals[len(r.vals)-1])
		}
		minRID, maxRID := r.rids[0], r.rids[0]
		for j, v := range r.vals {
			if j > 0 && (v < r.vals[j-1] || (v == r.vals[j-1] && r.rids[j] <= r.rids[j-1])) {
				return fmt.Errorf("run %d: pair %d (%d,%d) out of (value, RID) order", i, j, v, r.rids[j])
			}
			if !r.filter.May(v) {
				return fmt.Errorf("run %d: bloom filter rejects resident value %d", i, v)
			}
			minRID, maxRID = min(minRID, r.rids[j]), max(maxRID, r.rids[j])
		}
		if i > 0 {
			prev := &runs[i-1]
			for _, rid := range prev.rids {
				if rid >= minRID {
					return fmt.Errorf("run %d: RID %d of run %d is not below its RIDs [%d,%d]", i, rid, i-1, minRID, maxRID)
				}
			}
			if len(prev.vals) < 2*len(r.vals) {
				return fmt.Errorf("runs %d,%d: %d pairs before %d breaks the geometric tier", i-1, i, len(prev.vals), len(r.vals))
			}
		}
	}
	return nil
}

// TestDeltaFoldPolicy pins the absorb/fold decision and the bookkeeping it
// moves: absorbed batches grow DeltaRows and the state version but not
// Generation; crossing the size threshold folds everything into the base.
func TestDeltaFoldPolicy(t *testing.T) {
	g := workload.New(72)
	base := g.SortedUniform(400)
	tab := NewTable("p")
	if err := tab.AddColumn("k", g.Lookups(base, 4000)); err != nil {
		t.Fatal(err)
	}
	gen0, sv0 := tab.Generation(), tab.stateVer.Load()

	// 4000/8 = 500: batches of 100 absorb until the delta reaches 500.
	for i := 1; i <= 4; i++ {
		if err := tab.AppendRows(map[string][]uint32{"k": g.Lookups(base, 100)}); err != nil {
			t.Fatal(err)
		}
		if got, want := tab.DeltaRows(), 100*i; got != want {
			t.Fatalf("after absorb %d: DeltaRows = %d, want %d", i, got, want)
		}
		if tab.Generation() != gen0 {
			t.Fatalf("absorb %d folded: gen %d", i, tab.Generation())
		}
		if got, want := tab.stateVer.Load(), sv0+uint64(i); got != want {
			t.Fatalf("after absorb %d: state version = %d, want %d", i, got, want)
		}
		if tab.BaseRows() != 4000 {
			t.Fatalf("absorb %d moved the base: %d", i, tab.BaseRows())
		}
	}
	// Fifth batch brings the delta to 500 = base/8: fold.
	if err := tab.AppendRows(map[string][]uint32{"k": g.Lookups(base, 100)}); err != nil {
		t.Fatal(err)
	}
	if tab.Generation() != gen0+1 {
		t.Fatalf("threshold batch did not fold: gen %d", tab.Generation())
	}
	if tab.DeltaRows() != 0 || tab.BaseRows() != 4500 {
		t.Fatalf("fold left delta %d, base %d", tab.DeltaRows(), tab.BaseRows())
	}

	// foldEveryBatch folds every batch.
	tab.fold = foldEveryBatch
	if err := tab.AppendRows(map[string][]uint32{"k": g.Lookups(base, 10)}); err != nil {
		t.Fatal(err)
	}
	if tab.Generation() != gen0+2 || tab.DeltaRows() != 0 {
		t.Fatalf("foldEveryBatch absorbed: gen %d, delta %d", tab.Generation(), tab.DeltaRows())
	}

	// minRows floors the trigger even when the ratio is crossed.
	tab.fold = neverFold
	if err := tab.AppendRows(map[string][]uint32{"k": g.Lookups(base, 3000)}); err != nil {
		t.Fatal(err)
	}
	if tab.DeltaRows() != 3000 {
		t.Fatalf("minRows ignored: delta %d", tab.DeltaRows())
	}
}

// TestDeltaAddColumnGuard pins the schema rule the frozen encodings need:
// columns can only be added while the table holds no absorbed delta.
func TestDeltaAddColumnGuard(t *testing.T) {
	g := workload.New(73)
	base := g.SortedUniform(100)
	tab := NewTable("g")
	tab.fold = neverFold
	if err := tab.AddColumn("a", g.Lookups(base, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRows(map[string][]uint32{"a": g.Lookups(base, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("b", g.Lookups(base, 1010)); err == nil {
		t.Fatal("AddColumn allowed over a live delta")
	}
}

// TestFoldTriggerContract is the spec of the engine's fold trigger: over a
// base of B rows, fixed-size batches are absorbed while delta·8 < B, and the
// batch that brings delta·8 to B or past it folds everything into the base.
// The cases put delta·8 exactly on B at the crossing, and one short of B
// the batch before it.
func TestFoldTriggerContract(t *testing.T) {
	g := workload.New(74)
	dict := g.SortedUniform(300)
	for _, c := range []struct{ base, batch int }{
		{4000, 100}, // 5·100·8 = 4000: the fifth batch folds on equality
		{4001, 100}, // 4000 < 4001: the sixth folds
		{801, 100},  // 800 < 801: the first absorbs, the second folds
		{800, 100},  // 800 = 800: the first folds
		{10000, 37}, // 34·37·8 = 10064: the 34th folds
	} {
		t.Run(fmt.Sprintf("base=%d/batch=%d", c.base, c.batch), func(t *testing.T) {
			tab := NewTable("trigger")
			if err := tab.AddColumn("k", g.Lookups(dict, c.base)); err != nil {
				t.Fatal(err)
			}
			if _, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
				t.Fatal(err)
			}
			gen0 := tab.Generation()
			for k := 1; ; k++ {
				if err := tab.AppendRows(map[string][]uint32{"k": g.Lookups(dict, c.batch)}); err != nil {
					t.Fatal(err)
				}
				delta := k * c.batch
				if delta*8 < c.base {
					if tab.DeltaRows() != delta || tab.BaseRows() != c.base || tab.Generation() != gen0 {
						t.Fatalf("batch %d (delta·8 = %d < %d) not absorbed: base %d, delta %d, gen %d",
							k, delta*8, c.base, tab.BaseRows(), tab.DeltaRows(), tab.Generation()-gen0)
					}
					continue
				}
				if tab.DeltaRows() != 0 || tab.BaseRows() != c.base+delta || tab.Generation() != gen0+1 {
					t.Fatalf("batch %d (delta·8 = %d ≥ %d) did not fold: base %d, delta %d, gen %d",
						k, delta*8, c.base, tab.BaseRows(), tab.DeltaRows(), tab.Generation()-gen0)
				}
				return
			}
		})
	}
}

// TestEmptyAppendIsNotAFold: an empty batch is validated and changes
// nothing — no fold, no version, the runs and the sharded epoch as they
// were, every cached entry still there.  Compact is the one manual fold: it
// folds at once, runs outstanding or not, moving the generation and state
// version, dropping every run and sweeping the table's cached entries.
func TestEmptyAppendIsNotAFold(t *testing.T) {
	g := workload.New(75)
	dict := g.SortedUniform(400)
	tab := NewTable("absorbed")
	defer tab.Close()
	for _, c := range []string{"k", "s"} {
		if err := tab.AddColumn(c, g.Lookups(dict, 4000)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	six, err := tab.BuildShardedIndex("s", 2)
	if err != nil {
		t.Fatal(err)
	}
	tab.EnableCache(CacheOptions{MinCostNs: -1})
	for i := 0; i < 3; i++ {
		if err := tab.AppendRows(map[string][]uint32{"k": g.Lookups(dict, 100), "s": g.Lookups(dict, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := tab.SelectRange("k", dict[10], dict[200]); err != nil {
		t.Fatal(err)
	}
	if _, err := six.SelectRange(dict[10], dict[200]); err != nil {
		t.Fatal(err)
	}
	if tab.DeltaRows() != 300 || len(ix.cur.Load().runs) == 0 || len(six.cur.Load().runs) == 0 || tab.Cache().Stats().Entries != 2 {
		t.Fatalf("setup: delta %d rows, %d sorted runs, %d sharded runs, %d cached entries",
			tab.DeltaRows(), len(ix.cur.Load().runs), len(six.cur.Load().runs), tab.Cache().Stats().Entries)
	}

	gen, sv := tab.Generation(), tab.stateVer.Load()
	runs, epoch, st := ix.cur.Load().runs, six.cur.Load(), tab.Cache().Stats()
	if err := tab.AppendRows(map[string][]uint32{"k": {}, "s": nil}); err != nil {
		t.Fatal(err)
	}
	if tab.Generation() != gen || tab.stateVer.Load() != sv || tab.BaseRows() != 4000 || tab.DeltaRows() != 300 {
		t.Fatalf("empty append moved the table: gen %d → %d, state %d → %d, base %d, delta %d",
			gen, tab.Generation(), sv, tab.stateVer.Load(), tab.BaseRows(), tab.DeltaRows())
	}
	if len(ix.cur.Load().runs) != len(runs) || &ix.cur.Load().runs[0] != &runs[0] {
		t.Fatal("empty append replaced the sorted index's runs")
	}
	if six.cur.Load() != epoch {
		t.Fatal("empty append published a sharded epoch")
	}
	if got := tab.Cache().Stats(); got.Entries != st.Entries || got.Invalidations != st.Invalidations {
		t.Fatalf("empty append dropped cached entries: %+v → %+v", st, got)
	}
	if err := tab.AppendRows(map[string][]uint32{"k": {}}); err == nil {
		t.Fatal("an empty batch missing a column was accepted")
	}

	for _, what := range []string{"runs outstanding", "nothing outstanding"} {
		gen, sv := tab.Generation(), tab.stateVer.Load()
		tab.Compact()
		if tab.Generation() != gen+1 || tab.stateVer.Load() != sv+1 {
			t.Fatalf("Compact, %s: gen %d → %d, state %d → %d", what, gen, tab.Generation(), sv, tab.stateVer.Load())
		}
		if tab.DeltaRows() != 0 || tab.BaseRows() != 4300 || len(ix.cur.Load().runs) != 0 || len(six.cur.Load().runs) != 0 {
			t.Fatalf("Compact, %s: delta %d, base %d, %d sorted runs, %d sharded runs left",
				what, tab.DeltaRows(), tab.BaseRows(), len(ix.cur.Load().runs), len(six.cur.Load().runs))
		}
		if n := tab.Cache().Stats().Entries; n != 0 {
			t.Fatalf("Compact, %s: %d cached entries survived the fold", what, n)
		}
	}
}

// pushRunPairwise is the tier's reference: the batch becomes a run of its
// own, then the last two runs merge pair by pair while the rule holds, each
// merge a fresh pair of arrays and a fresh bloom filter.  pushRun must
// publish exactly what it publishes, in one pass.
func pushRunPairwise(runs []idxRun, vals []uint32, startRID uint32) []idxRun {
	run := func(v, r []uint32) idxRun {
		return idxRun{vals: v, rids: r, min: v[0], max: v[len(v)-1], filter: bloom.Build(v)}
	}
	out := append(append(make([]idxRun, 0, len(runs)+1), runs...), run(sortedPairsOf(vals, startRID)))
	for n := len(out); n >= 2 && len(out[n-2].vals) < 2*len(out[n-1].vals); n-- {
		out[n-2] = run(sortu32.MergePairs(out[n-2].vals, out[n-2].rids, out[n-1].vals, out[n-1].rids))
		out = out[:n-1]
	}
	return out
}

// TestPushRunMatchesPairwise drives random absorb streams through pushRun
// and the pairwise reference in step: after every batch the two tiers must
// be equal byte for byte — run sizes, pairs, fences and bloom filters — and
// the runs the previous state published must be untouched.  Batches range
// from one row to more than the whole delta (a cascade that swallows every
// run; the tier empties, as a fold would, past 8,000 rows), and values come
// from a small domain with 0 and MaxUint32 mixed in, so equal values meet
// across runs and at the key space's edges.
func TestPushRunMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	cascades, deep := 0, 0
	for stream := 0; stream < 40; stream++ {
		var got, want []idxRun
		rid, span := uint32(0), 1+rng.Intn(1<<uint(2+stream%20))
		for step := 0; step < 120; step++ {
			delta := 0
			for _, r := range got {
				delta += len(r.vals)
			}
			if delta > 8000 { // a fold empties the tier
				got, want = nil, nil
				delta = 0
			}
			n := 1 + rng.Intn(300)
			switch rng.Intn(10) {
			case 0:
				n = 1 + rng.Intn(4)
			case 1:
				n = delta + 1 + rng.Intn(500) // beyond the resident runs
			}
			vals := make([]uint32, n)
			for i := range vals {
				switch rng.Intn(16) {
				case 0:
					vals[i] = 0
				case 1:
					vals[i] = math.MaxUint32
				default:
					vals[i] = uint32(rng.Intn(span)) * (math.MaxUint32 / uint32(span))
				}
			}
			prev := slices.Clone(got)
			prevPairs := make([][2][]uint32, len(got))
			for i, r := range got {
				prevPairs[i] = [2][]uint32{slices.Clone(r.vals), slices.Clone(r.rids)}
			}
			got, want = pushRun(got, vals, rid), pushRunPairwise(want, vals, rid)
			rid += uint32(n)
			tag := fmt.Sprintf("stream %d step %d (+%d rows, %d runs before)", stream, step, n, len(prev))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: one-pass tier differs from the pairwise reference", tag)
			}
			if err := checkRuns(got); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for i, r := range prev {
				if !slices.Equal(r.vals, prevPairs[i][0]) || !slices.Equal(r.rids, prevPairs[i][1]) {
					t.Fatalf("%s: run %d of the previous state was written", tag, i)
				}
			}
			if merged := len(prev) + 1 - len(got); merged > 0 {
				cascades++
				if merged > 1 {
					deep++
				}
			}
		}
	}
	t.Logf("%d cascades, %d of them over more than one older run", cascades, deep)
	if cascades < 1000 || deep < 200 {
		t.Fatalf("only %d cascades (%d deep): the streams do not exercise the merge", cascades, deep)
	}
}

package mmdb

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"cssidx"
	"cssidx/internal/failfs"
	"cssidx/internal/governor"
	"cssidx/internal/wal"
	"cssidx/internal/workload"
)

// governedCtx returns a cancellable context that engages the governor
// (done channel non-nil) with a tight stride so cancellation windows are
// one row wide.
func governedCtx() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	return governor.WithStride(ctx, 1), cancel
}

// TestCtxSurfacesMatchLegacy proves the governed execution path is the
// same algorithm: every *Ctx surface under a live (never-aborting)
// governed context returns bit-identical results to its legacy twin.
func TestCtxSurfacesMatchLegacy(t *testing.T) {
	cached, plain := pairTables(t, 3000, 71)
	ctx, cancel := governedCtx()
	defer cancel()

	want, wantPlan, err := plain.SelectRange("a", 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPlan, err := cached.SelectRangeCtx(ctx, "a", 0, 1<<30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotPlan != wantPlan {
		t.Fatalf("range plan: %+v vs %+v", gotPlan, wantPlan)
	}
	mustEqualU32(t, "SelectRangeCtx", got, want)

	cVals, _ := plain.Column("c")
	list := distinctValues(cVals)
	wantIn, _, err := plain.SelectIn("c", list)
	if err != nil {
		t.Fatal(err)
	}
	gotIn, _, err := cached.SelectInCtx(ctx, "c", list, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualU32(t, "SelectInCtx", gotIn, wantIn)

	preds := []RangePred{{Col: "a", Lo: 0, Hi: 1 << 30}, {Col: "b", Lo: 1 << 27, Hi: 1 << 31}}
	wantW, _, err := plain.SelectWhere(preds)
	if err != nil {
		t.Fatal(err)
	}
	gotW, _, err := cached.SelectWhereCtx(ctx, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualU32(t, "SelectWhereCtx", gotW, wantW)

	wantAgg, err := GroupAggregate(plain, "c", "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	gotAgg, err := GroupAggregateCtx(ctx, cached, "c", "a", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAgg) != len(wantAgg) {
		t.Fatalf("agg groups: %d vs %d", len(gotAgg), len(wantAgg))
	}
	for i := range wantAgg {
		if gotAgg[i] != wantAgg[i] {
			t.Fatalf("agg row %d: %+v vs %+v", i, gotAgg[i], wantAgg[i])
		}
	}

	wantSh, _, err := plain.SelectRange("b", 1<<27, 1<<31)
	if err != nil {
		t.Fatal(err)
	}
	gotSh, _, err := cached.SelectRangeCtx(ctx, "b", 1<<27, 1<<31, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualU32(t, "sharded SelectRangeCtx", gotSh, wantSh)
}

// TestPreCancelledTypedErrors proves an already-dead context aborts every
// surface with the precise typed error before touching the cache.
func TestPreCancelledTypedErrors(t *testing.T) {
	cached, _ := pairTables(t, 1000, 72)
	before := cached.Cache().Stats()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()

	for name, ctx := range map[string]context.Context{
		"cancelled": dead, "deadline": expired,
	} {
		wantErr := context.Canceled
		if name == "deadline" {
			wantErr = context.DeadlineExceeded
		}
		if _, _, err := cached.SelectRangeCtx(ctx, "a", 0, math.MaxUint32, nil); !errors.Is(err, wantErr) {
			t.Fatalf("%s SelectRangeCtx: err = %v, want %v", name, err, wantErr)
		}
		if _, _, err := cached.SelectInCtx(ctx, "c", []uint32{1, 2}, nil); !errors.Is(err, wantErr) {
			t.Fatalf("%s SelectInCtx: err = %v, want %v", name, err, wantErr)
		}
		if _, _, err := cached.SelectWhereCtx(ctx, []RangePred{{Col: "a", Lo: 0, Hi: 9}}, nil); !errors.Is(err, wantErr) {
			t.Fatalf("%s SelectWhereCtx: err = %v, want %v", name, err, wantErr)
		}
		if _, err := GroupAggregateCtx(ctx, cached, "c", "a", nil, nil); !errors.Is(err, wantErr) {
			t.Fatalf("%s GroupAggregateCtx: err = %v, want %v", name, err, wantErr)
		}
		if err := cached.AppendRowsCtx(ctx, map[string][]uint32{"a": {1}, "b": {1}, "c": {1}}); !errors.Is(err, wantErr) {
			t.Fatalf("%s AppendRowsCtx: err = %v, want %v", name, err, wantErr)
		}
		if _, _, err := cached.SelectRangeCtx(ctx, "b", 0, 9, nil); !errors.Is(err, wantErr) {
			t.Fatalf("%s sharded SelectRangeCtx: err = %v, want %v", name, err, wantErr)
		}
	}
	if after := cached.Cache().Stats(); after.Inserts != before.Inserts {
		t.Fatalf("pre-cancelled queries inserted cache entries: %+v -> %+v", before, after)
	}
	if rows := cached.Rows(); rows != 1000 {
		t.Fatalf("cancelled append changed row count: %d", rows)
	}
}

// TestBudgetAbortThenCleanRefill proves the no-poisoned-entry invariant
// for budget aborts: a query killed mid-fill by ErrBudgetExceeded leaves
// either no cache entry or a valid one, and the identical query re-run
// without governance returns the exact oracle result.
func TestBudgetAbortThenCleanRefill(t *testing.T) {
	cached, plain := pairTables(t, 4000, 73)

	type q struct {
		name string
		run  func(ctx context.Context) error
		ver  func() error
	}
	verRange := func() error {
		want, _, _ := plain.SelectRange("a", 0, math.MaxUint32)
		got, _, err := cached.SelectRange("a", 0, math.MaxUint32)
		if err != nil {
			return err
		}
		mustEqualU32(t, "refill SelectRange", got, want)
		return nil
	}
	cVals, _ := plain.Column("c")
	list := distinctValues(cVals)
	verIn := func() error {
		want, _, _ := plain.SelectIn("c", list)
		got, _, err := cached.SelectIn("c", list)
		if err != nil {
			return err
		}
		mustEqualU32(t, "refill SelectIn", got, want)
		return nil
	}
	preds := []RangePred{{Col: "a", Lo: 0, Hi: math.MaxUint32}, {Col: "b", Lo: 0, Hi: math.MaxUint32}}
	verWhere := func() error {
		want, _, _ := plain.SelectWhere(preds)
		got, _, err := cached.SelectWhere(preds)
		if err != nil {
			return err
		}
		mustEqualU32(t, "refill SelectWhere", got, want)
		return nil
	}
	verAgg := func() error {
		want, _ := GroupAggregate(plain, "c", "a", nil)
		got, err := GroupAggregate(cached, "c", "a", nil)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			t.Fatalf("refill agg groups: %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("refill agg row %d: %+v vs %+v", i, got[i], want[i])
			}
		}
		return nil
	}
	queries := []q{
		{"range", func(ctx context.Context) error {
			_, _, err := cached.SelectRangeCtx(ctx, "a", 0, math.MaxUint32, nil)
			return err
		}, verRange},
		{"in", func(ctx context.Context) error {
			_, _, err := cached.SelectInCtx(ctx, "c", list, nil)
			return err
		}, verIn},
		{"where", func(ctx context.Context) error {
			_, _, err := cached.SelectWhereCtx(ctx, preds, nil)
			return err
		}, verWhere},
		{"agg", func(ctx context.Context) error {
			_, err := GroupAggregateCtx(ctx, cached, "c", "a", nil, nil)
			return err
		}, verAgg},
	}
	for _, qu := range queries {
		ctx := governor.WithStride(governor.WithBudget(context.Background(), 64), 1)
		if err := qu.run(ctx); !errors.Is(err, governor.ErrBudgetExceeded) {
			t.Fatalf("%s under 64-byte budget: err = %v, want ErrBudgetExceeded", qu.name, err)
		}
		// The same query ungoverned must now compute (or serve a valid
		// partial-entry-free cache state) to the exact oracle result.
		if err := qu.ver(); err != nil {
			t.Fatalf("%s refill after budget abort: %v", qu.name, err)
		}
	}
}

// TestCancelMidFillCacheRace storms a cached table with governed queries
// cancelled at arbitrary points while identical ungoverned queries run
// concurrently and verify against a fixed oracle.  Run with -race: proves
// cancellation mid-cache-fill never publishes a torn entry and never
// corrupts a concurrent identical query.
func TestCancelMidFillCacheRace(t *testing.T) {
	cached, plain := pairTables(t, 6000, 74)
	want, _, err := plain.SelectRange("a", 0, math.MaxUint32)
	if err != nil {
		t.Fatal(err)
	}
	cVals, _ := plain.Column("c")
	list := distinctValues(cVals)
	wantIn, _, err := plain.SelectIn("c", list)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 60
	var wg sync.WaitGroup
	// Storm goroutines: governed queries cancelled mid-flight.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				ctx = governor.WithStride(ctx, 16)
				go func() { cancel() }() // races the query body
				var err error
				if (g+i)%2 == 0 {
					_, _, err = cached.SelectRangeCtx(ctx, "a", 0, math.MaxUint32, nil)
				} else {
					_, _, err = cached.SelectInCtx(ctx, "c", list, nil)
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("storm goroutine %d: unexpected error %v", g, err)
				}
				cancel()
			}
		}(g)
	}
	// Verifier goroutines: identical ungoverned queries must always be
	// bit-identical to the oracle — whether they hit a cache entry a
	// governed twin published or compute fresh.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, _, err := cached.SelectRange("a", 0, math.MaxUint32)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("verifier: range len %d, want %d", len(got), len(want))
					return
				}
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("verifier: range [%d] = %d, want %d", j, got[j], want[j])
						return
					}
				}
				gotIn, _, err := cached.SelectIn("c", list)
				if err != nil {
					t.Error(err)
					return
				}
				if len(gotIn) != len(wantIn) {
					t.Errorf("verifier: in len %d, want %d", len(gotIn), len(wantIn))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAdmissionShedAndCacheHitUnderOverload proves the graceful-degradation
// ordering: with the engine saturated, a cache-missing aggregate is shed
// (ClassAggregate, shed first) while a query whose answer is already cached
// is still served (cache hits never enter admission).
func TestAdmissionShedAndCacheHitUnderOverload(t *testing.T) {
	cached, _ := pairTables(t, 2000, 75)
	gov := governor.NewAdmission(governor.Options{MaxConcurrent: 1, MaxQueue: 0})
	cached.AttachGovernor(gov)

	// Warm the range entry ungoverned.
	want, _, err := cached.SelectRange("a", 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}

	// Saturate the gate.
	grant, err := gov.Acquire(context.Background(), governor.ClassSelect, 0)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := governedCtx()
	defer cancel()

	// Cache-missing aggregate: shed immediately.
	if _, aerr := GroupAggregateCtx(ctx, cached, "c", "a", nil, nil); !errors.Is(aerr, governor.ErrShed) {
		grant.Release()
		t.Fatalf("aggregate under overload: err = %v, want ErrShed", aerr)
	}
	// Cached range: served despite overload.
	got, _, err := cached.SelectRangeCtx(ctx, "a", 0, 1<<30, nil)
	if err != nil {
		grant.Release()
		t.Fatalf("cached range under overload: %v", err)
	}
	mustEqualU32(t, "cached range under overload", got, want)

	grant.Release()
	// Gate free again: the aggregate now runs.
	if _, err := GroupAggregateCtx(ctx, cached, "c", "a", nil, nil); err != nil {
		t.Fatalf("aggregate after release: %v", err)
	}
	if s := gov.Stats(); s.Running != 0 || s.Queued != 0 || s.BytesInFlight != 0 {
		t.Fatalf("grants leaked: %+v", s)
	}
}

// TestAppendRowsCtxAtomicity proves a cancelled governed append leaves the
// table untouched, and on the durable path never leaves a logged batch
// unapplied: the WAL and the live image stay in lockstep.
func TestAppendRowsCtxAtomicity(t *testing.T) {
	tab := NewTable("t")
	if err := tab.AddColumn("k", []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tab.AppendRowsCtx(dead, map[string][]uint32{"k": {4}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled append: err = %v", err)
	}
	if tab.Rows() != 3 {
		t.Fatalf("cancelled append mutated table: %d rows", tab.Rows())
	}
	live, cancel2 := governedCtx()
	defer cancel2()
	if err := tab.AppendRowsCtx(live, map[string][]uint32{"k": {4}}); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 4 {
		t.Fatalf("live append: %d rows, want 4", tab.Rows())
	}

	// Durable: a cancelled append must not reach the log.
	fsys := failfs.NewMem(99)
	d, err := OpenDurable(fsys, "db", "t", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRows(map[string][]uint32{"k": {10, 20}}); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRowsCtx(dead, map[string][]uint32{"k": {30}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled durable append: err = %v", err)
	}
	if err := d.AppendRowsCtx(live, map[string][]uint32{"k": {40}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery replays exactly the appends that returned nil.
	r, err := OpenDurable(fsys, "db", "t", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != 3 {
		t.Fatalf("recovered %d rows, want 3 (cancelled batch must be absent)", r.Rows())
	}
	col, _ := r.Column("k")
	recovered := make([]uint32, col.Len())
	for i := range recovered {
		recovered[i] = col.Value(i)
	}
	mustEqualU32(t, "recovered column", recovered, []uint32{10, 20, 40})
}

// TestJoinWithCtxGoverned checks the governed join: identical pair stream
// when live, typed abort when cancelled, budget abort on pair buffers.
func TestJoinWithCtxGoverned(t *testing.T) {
	inner, outer := buildJoinTables(t, 76, 4000, 3000)
	ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantN, want := collectJoin(t, outer, "k", ix, JoinOptions{})

	ctx, cancel := governedCtx()
	defer cancel()
	var got joinPairs
	gotN, err := JoinWithCtx(ctx, outer, "k", ix, JoinOptions{}, func(o, i uint32) {
		got.outer = append(got.outer, o)
		got.inner = append(got.inner, i)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Fatalf("governed join: %d pairs, want %d", gotN, wantN)
	}
	mustEqualU32(t, "join outer RIDs", got.outer, want.outer)
	mustEqualU32(t, "join inner RIDs", got.inner, want.inner)

	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := JoinWithCtx(dead, outer, "k", ix, JoinOptions{}, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join: err = %v", err)
	}
	tiny := governor.WithStride(governor.WithBudget(context.Background(), 32), 1)
	if _, err := JoinWithCtx(tiny, outer, "k", ix, JoinOptions{}, nil, nil); !errors.Is(err, governor.ErrBudgetExceeded) {
		t.Fatalf("budgeted join: err = %v, want ErrBudgetExceeded", err)
	}
}

// TestReusePathsChargeBudget closes the budget hole in the one reuse path
// that materialises its answer in this package: a subset replay hands the
// caller a freshly allocated slice of any size, so under a
// governor.WithBudget smaller than that slice it must fail with
// ErrBudgetExceeded and nil rows — on "a" searched by a level CSS-tree and
// on the sharded "b" — exactly as a computed result would.  Exact hits stay
// uncharged: their copy is of an answer already paid for, and cached
// answers are what a constrained query is still served.
func TestReusePathsChargeBudget(t *testing.T) {
	cached, g, base := reuseTable(t, 53), workload.New(53), grid(2000)
	pool := g.Lookups(base, 20)
	tiny := func() context.Context { return governor.WithBudget(context.Background(), 8) }
	rng := func(i int) (lo, hi uint32) { return base[i], base[i+260] }

	for _, c := range []struct {
		name  string
		seed  func() error // ungoverned: fills the entry the reuse path draws on
		reuse func(ctx context.Context) ([]uint32, error)
	}{
		{"table subset replay",
			func() error { _, _, err := cached.SelectIn("a", pool); return err },
			func(ctx context.Context) ([]uint32, error) {
				r, _, err := cached.SelectInCtx(ctx, "a", pool[2:14], nil)
				return r, err
			}},
		{"table subset replay, sharded column",
			func() error { _, _, err := cached.SelectIn("b", pool); return err },
			func(ctx context.Context) ([]uint32, error) {
				r, _, err := cached.SelectInCtx(ctx, "b", pool[2:14], nil)
				return r, err
			}},
	} {
		if err := c.seed(); err != nil {
			t.Fatalf("%s seed: %v", c.name, err)
		}
		before := cached.Cache().Stats().SubsetHits
		rows, err := c.reuse(tiny())
		if !errors.Is(err, governor.ErrBudgetExceeded) || rows != nil {
			t.Errorf("%s under an 8-byte budget: %d rows, err = %v; want nil rows and ErrBudgetExceeded", c.name, len(rows), err)
		}
		if after := cached.Cache().Stats().SubsetHits; after != before+1 {
			t.Errorf("%s: the reuse path did not answer (SubsetHits %d -> %d)", c.name, before, after)
		}
		// The same query ungoverned is served in full.
		if rows, err := c.reuse(context.Background()); err != nil || len(rows) == 0 {
			t.Errorf("%s ungoverned: %d rows, err = %v", c.name, len(rows), err)
		}
	}

	// An exact hit is served whatever the budget.
	lo, hi := rng(100)
	want, _, err := cached.SelectRange("a", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cached.SelectRangeCtx(tiny(), "a", lo, hi, nil)
	if err != nil {
		t.Fatalf("exact hit under an 8-byte budget: %v", err)
	}
	mustEqualU32(t, "exact hit under budget", got, want)
}

// BenchmarkGovernedQuery prices query governance on the range, IN and
// aggregate surfaces over 2M rows, with the result cache off so every leg
// times execution.  background is the *Ctx form under context.Background():
// the governor handle resolves to nil and every checkpoint is a pointer test.
// That is also the path of every plain call, which is that form with a
// background context and no trace, so there is no third leg to time.
// governed runs the same queries under a deadline and byte budget far too
// generous to trip, with the admission controller attached.  Ranges are
// narrow (≈1/8192 of the key space) and IN-lists hold 8 values, so the legs
// time per-query plumbing rather than RID materialisation, which both legs
// share.
func BenchmarkGovernedQuery(b *testing.B) {
	const rows = 2_000_000
	g := workload.New(1)
	keys := g.SortedWithDuplicates(rows, 2)
	groups := make([]uint32, len(keys))
	for i, k := range keys {
		groups[i] = k % 64
	}
	tab := NewTable("govern")
	if err := tab.AddColumn("k", keys); err != nil {
		b.Fatal(err)
	}
	if err := tab.AddColumn("g", groups); err != nil {
		b.Fatal(err)
	}
	if _, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		b.Fatal(err)
	}
	// Ungoverned queries pass admission for free, so attaching the
	// controller up front leaves the background leg untouched.
	tab.AttachGovernor(governor.NewAdmission(governor.Options{MaxConcurrent: 8, MaxQueue: 8, MaxBytesInFlight: 1 << 30}))
	points := g.Lookups(keys, 4096)
	width := keys[len(keys)-1] / 8192
	for _, s := range []struct {
		name string
		run  func(ctx context.Context, i int) error
	}{
		{"range", func(ctx context.Context, i int) error {
			p := points[i%len(points)]
			_, _, err := tab.SelectRangeCtx(ctx, "k", p, p+width, nil)
			return err
		}},
		{"in", func(ctx context.Context, i int) error {
			j := 8 * (i % (len(points) / 8))
			_, _, err := tab.SelectInCtx(ctx, "k", points[j:j+8], nil)
			return err
		}},
		{"agg", func(ctx context.Context, i int) error {
			_, err := GroupAggregateCtx(ctx, tab, "g", "k", nil, nil)
			return err
		}},
	} {
		for _, governed := range []bool{false, true} {
			leg := "background"
			if governed {
				leg = "governed"
			}
			b.Run(s.name+"/"+leg, func(b *testing.B) {
				ctx := context.Background()
				if governed {
					dctx, cancel := context.WithTimeout(ctx, time.Hour)
					defer cancel()
					ctx = governor.WithBudget(dctx, 1<<40)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.run(ctx, i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

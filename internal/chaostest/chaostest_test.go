package chaostest

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"cssidx/internal/failfs"
	"cssidx/internal/governor"
	"cssidx/internal/mmdb"
	"cssidx/internal/workload"
)

// checkSoak runs one configured storm and applies the common activity
// assertions: the storm must actually have exercised aborts AND
// successes, or it proved nothing.
func checkSoak(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("soak failed:\n%v", err)
	}
	if rep.Queries == 0 || rep.Succeeded == 0 {
		t.Fatalf("storm idle: %+v", rep)
	}
	if rep.Cancels+rep.Timeouts+rep.BudgetAborts+rep.Sheds == 0 {
		t.Fatalf("storm never aborted anything: %+v", rep)
	}
	return rep
}

func TestSoakClean(t *testing.T) {
	rep := checkSoak(t, Config{Seed: 1, PanicStorm: true})
	if rep.WorkerPanics == 0 {
		t.Fatalf("panic storm surfaced no WorkerPanics: %+v", rep)
	}
	if rep.DurableIOErrors != 0 {
		t.Fatalf("fault-free durable leg saw I/O errors: %+v", rep)
	}
	if rep.DurableAcked == 0 {
		t.Fatalf("durable leg acknowledged nothing: %+v", rep)
	}
	if rep.RecoveredRows < rep.DurableAcked {
		t.Fatalf("recovery lost acknowledged batches: %+v", rep)
	}
}

func TestSoakFsyncStorm(t *testing.T) {
	rep := checkSoak(t, Config{Seed: 2, Scenario: failfs.FsyncStorm(2, 0.3)})
	if rep.DurableIOErrors == 0 {
		t.Fatalf("fsync storm injected no faults: %+v", rep)
	}
}

func TestSoakTornTail(t *testing.T) {
	rep := checkSoak(t, Config{Seed: 3, Scenario: failfs.TornTail(3, 0.3)})
	if rep.DurableIOErrors == 0 {
		t.Fatalf("torn-tail storm injected no faults: %+v", rep)
	}
}

func TestSoakSlowIO(t *testing.T) {
	rep := checkSoak(t, Config{
		Seed:          4,
		DurableRounds: 20,
		Scenario:      failfs.SlowIO(4, 0.5, 200*time.Microsecond),
	})
	// Slow I/O never fails operations; the leg must have fully acked.
	if rep.DurableIOErrors != 0 {
		t.Fatalf("slow-io failed operations: %+v", rep)
	}
}

func TestSoakComposedStorm(t *testing.T) {
	cfg := Config{
		Seed:       5,
		PanicStorm: true,
		Scenario: failfs.Compose(
			failfs.FsyncStorm(51, 0.2),
			failfs.TornTail(52, 0.15),
			failfs.SlowIO(53, 0.3, 100*time.Microsecond),
		),
	}
	if testing.Short() {
		cfg.Rounds = 60
		cfg.DurableRounds = 20
	}
	checkSoak(t, cfg)
}

// TestShortDeadlineSmoke is the CI smoke leg: every query surface under
// an already-expired deadline returns a clean typed error immediately,
// and under a 1ms deadline returns either a result or a typed error —
// never a panic, hang, or untyped failure.
func TestShortDeadlineSmoke(t *testing.T) {
	g := workload.New(9)
	tab, err := buildTable("smoke", g, 3000)
	if err != nil {
		t.Fatal(err)
	}
	tab.EnableCache(mmdb.CacheOptions{MinCostNs: -1})
	tab.AttachGovernor(governor.NewAdmission(governor.Options{MaxConcurrent: 4, MaxQueue: 8}))
	ix, _ := tab.Index("a")
	cVals, _ := tab.Column("c")
	list := distinctValues(cVals)

	surfaces := map[string]func(ctx context.Context) error{
		"SelectRangeCtx": func(ctx context.Context) error {
			_, _, err := tab.SelectRangeCtx(ctx, "a", 0, math.MaxUint32, nil)
			return err
		},
		"SelectInCtx": func(ctx context.Context) error {
			_, _, err := tab.SelectInCtx(ctx, "c", list, nil)
			return err
		},
		"SelectWhereCtx": func(ctx context.Context) error {
			_, _, err := tab.SelectWhereCtx(ctx, []mmdb.RangePred{
				{Col: "a", Lo: 0, Hi: math.MaxUint32}, {Col: "b", Lo: 0, Hi: math.MaxUint32}}, nil)
			return err
		},
		"GroupAggregateCtx": func(ctx context.Context) error {
			_, err := mmdb.GroupAggregateCtx(ctx, tab, "c", "a", nil, nil)
			return err
		},
		"sharded SelectRangeCtx": func(ctx context.Context) error {
			_, _, err := tab.SelectRangeCtx(ctx, "b", 0, math.MaxUint32, nil)
			return err
		},
		"JoinWithCtx": func(ctx context.Context) error {
			_, err := mmdb.JoinWithCtx(ctx, tab, "b", ix, mmdb.JoinOptions{}, nil, nil)
			return err
		},
		"AppendRowsCtx": func(ctx context.Context) error {
			return tab.AppendRowsCtx(ctx, map[string][]uint32{"a": {1}, "b": {1}, "c": {1}})
		},
	}

	// Leg 1: expired deadline — typed error, always.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, run := range surfaces {
		if err := run(expired); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s under expired deadline: err = %v, want DeadlineExceeded", name, err)
		}
	}

	// Leg 2: 1ms deadline — success or a typed abort, nothing else.
	for name, run := range surfaces {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		ctx = governor.WithStride(ctx, 64)
		if o := classify(run(ctx)); o == outUnexpected {
			t.Fatalf("%s under 1ms deadline: untyped failure", name)
		}
		cancel()
	}
}

// Package chaostest soaks the governed engine: mixed read/append/fold
// workloads run under seeded cancellation storms, deadline storms, memory
// budget pressure, admission-control overload, filesystem fault schedules
// (internal/failfs scenarios) and parallel worker panics — all at once,
// which is how production fails.
//
// The harness holds the engine to three invariants:
//
//  1. Typed aborts only.  Every governed operation either succeeds or
//     fails with exactly one of context.Canceled, context.DeadlineExceeded,
//     governor.ErrBudgetExceeded, governor.ErrShed — or, on the durable
//     leg, an injected I/O error.  Anything else is a bug.
//  2. Bit-identical reads after the storm.  An oracle table receives
//     exactly the batches the governed table acknowledged; once the storm
//     ends, every query surface must return byte-for-byte the oracle's
//     answer — no torn epochs, no poisoned cache entries, no lost or
//     duplicated appends.  The durable leg additionally crash-recovers
//     and checks the WAL's prefix consistency against the acknowledgment
//     record.
//  3. Counters reconcile.  The governor_* telemetry series must agree
//     exactly with the aborts the harness observed: cancels, timeouts,
//     budget aborts and sheds are each counted once, at the surface.
//
// Everything is driven by one seed, so a failing storm replays exactly.
package chaostest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"cssidx"
	"cssidx/internal/failfs"
	"cssidx/internal/governor"
	"cssidx/internal/mmdb"
	"cssidx/internal/parallel"
	"cssidx/internal/telemetry"
	"cssidx/internal/wal"
	"cssidx/internal/workload"
)

// Config sizes one soak.  The zero value is filled with small defaults
// suitable for a unit-test leg; crank Rounds/QueryWorkers for a long soak.
type Config struct {
	Seed          int64
	QueryWorkers  int  // storm goroutines issuing queries (default 4)
	Rounds        int  // queries per worker (default 150)
	AppendBatches int  // governed in-memory appends (default 30)
	DurableRounds int  // appends on the durable/WAL leg (default 40)
	BaseRows      int  // rows in the pre-storm table (default 4000)
	PanicStorm    bool // drive parallel worker panics alongside the storm

	// Scenario is the failfs fault schedule for the durable leg
	// (failfs.FsyncStorm, TornTail, SlowIO, or a Compose of them).  Nil
	// runs the durable leg fault-free.
	Scenario failfs.Scenario

	// Admission configures the governed table's controller.  Zero gets a
	// tight gate (MaxConcurrent 3, MaxQueue 4) so overload actually sheds.
	Admission governor.Options
}

func (c *Config) fill() {
	if c.QueryWorkers <= 0 {
		c.QueryWorkers = 4
	}
	if c.Rounds <= 0 {
		c.Rounds = 150
	}
	if c.AppendBatches <= 0 {
		c.AppendBatches = 30
	}
	if c.DurableRounds <= 0 {
		c.DurableRounds = 40
	}
	if c.BaseRows <= 0 {
		c.BaseRows = 4000
	}
	if c.Admission == (governor.Options{}) {
		c.Admission = governor.Options{MaxConcurrent: 3, MaxQueue: 4, MaxBytesInFlight: 1 << 22}
	}
}

// Report is what one soak observed; the harness has already verified the
// invariants, so a returned Report means the storm passed.
type Report struct {
	Queries      int // governed queries issued
	Succeeded    int
	Cancels      int // aborts observed per typed class
	Timeouts     int
	BudgetAborts int
	Sheds        int

	AppendsAcked   int // in-memory governed appends applied
	AppendsAborted int

	DurableAcked    int // durable appends acknowledged by the WAL
	DurableAborted  int // aborted by governance before reaching the log
	DurableIOErrors int // refused by injected filesystem faults
	RecoveredRows   int // rows surviving crash + WAL replay

	WorkerPanics int // parallel worker panics surfaced as *parallel.WorkerPanic
}

// outcome classifies one governed result exactly the way
// governor.NoteAbort does, so observed counts and counters reconcile.
type outcome int

const (
	outOK outcome = iota
	outCancel
	outTimeout
	outBudget
	outShed
	outIO
	outUnexpected
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, context.Canceled):
		return outCancel
	case errors.Is(err, context.DeadlineExceeded):
		return outTimeout
	case errors.Is(err, governor.ErrBudgetExceeded):
		return outBudget
	case errors.Is(err, governor.ErrShed):
		return outShed
	}
	return outUnexpected
}

// soak is the running state of one storm.
type soak struct {
	cfg    Config
	tab    *mmdb.Table // governed: cache + admission + storm traffic
	oracle *mmdb.Table // ungoverned twin fed only acknowledged batches

	// tlock models the engine's concurrency contract: an index's own
	// methods serve lock-free from any goroutine concurrently with
	// AppendRows (epoch swaps), but every other surface follows the
	// single-writer model — so the appender takes the write side and the
	// table-level query surfaces the read side, while index queries
	// deliberately run outside the lock to hammer epoch publication under
	// fire.
	tlock sync.RWMutex

	mu     sync.Mutex
	rep    Report
	errs   []error
	inList []uint32 // IN-list sample drawn from the low-cardinality column
	domHi  uint32
}

func (s *soak) fail(format string, args ...any) {
	s.mu.Lock()
	s.errs = append(s.errs, fmt.Errorf(format, args...))
	s.mu.Unlock()
}

// addAbortLocked tallies one typed abort into the per-class counts the
// telemetry reconciliation checks against; s.mu held.
func (s *soak) addAbortLocked(o outcome) {
	switch o {
	case outCancel:
		s.rep.Cancels++
	case outTimeout:
		s.rep.Timeouts++
	case outBudget:
		s.rep.BudgetAborts++
	case outShed:
		s.rep.Sheds++
	}
}

// note records one governed query outcome; unexpected errors fail the soak.
func (s *soak) note(what string, err error) {
	o := classify(err)
	s.mu.Lock()
	s.rep.Queries++
	switch o {
	case outOK:
		s.rep.Succeeded++
	case outUnexpected:
		s.errs = append(s.errs, fmt.Errorf("%s: untyped error under governance: %w", what, err))
	default:
		s.addAbortLocked(o)
	}
	s.mu.Unlock()
}

// distinctValues returns the column's distinct values in ascending order.
func distinctValues(c *mmdb.Column) []uint32 {
	vals := make([]uint32, c.Len())
	for i := range vals {
		vals[i] = c.Value(i)
	}
	slices.Sort(vals)
	return slices.Compact(vals)
}

func buildTable(name string, g *workload.Gen, rows int) (*mmdb.Table, error) {
	a := g.Lookups(g.SortedUniform(rows/2+1), rows)
	b := g.Lookups(g.SortedUniform(rows/4+1), rows)
	c := g.Lookups(g.SortedUniform(48), rows)
	t := mmdb.NewTable(name)
	for col, vals := range map[string][]uint32{"a": a, "b": b, "c": c} {
		if err := t.AddColumn(col, vals); err != nil {
			return nil, err
		}
	}
	if _, err := t.BuildIndex("a", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		return nil, err
	}
	if _, err := t.BuildShardedIndex("b", 4); err != nil {
		return nil, err
	}
	return t, nil
}

// stormCtx rolls one governed context: maybe doomed, maybe deadlined,
// maybe budgeted, always cancellable.  The returned stop func must be
// called when the query returns.
func stormCtx(rng *rand.Rand) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	stop := cancel
	switch rng.Intn(5) {
	case 0: // cancellation storm: a racing cancel mid-query
		go cancel()
	case 1: // deadline storm
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithTimeout(ctx, time.Duration(50+rng.Intn(500))*time.Microsecond)
		stop = func() { dcancel(); cancel() }
	case 2: // budget pressure
		ctx = governor.WithBudget(ctx, int64(256+rng.Intn(4096)))
	case 3: // already dead on arrival
		cancel()
	default: // live and unconstrained (but governed: done != nil)
	}
	if rng.Intn(2) == 0 {
		ctx = governor.WithStride(ctx, 1+rng.Intn(512))
	}
	return ctx, stop
}

// queryWorker storms the governed table with mixed reads.
func (s *soak) queryWorker(id int) {
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(id)*7919))
	ix, _ := s.tab.Index("a")
	sh, _ := s.tab.ShardedIndex("b")
	for i := 0; i < s.cfg.Rounds; i++ {
		ctx, stop := stormCtx(rng)
		lo := rng.Uint32() % s.domHi
		hi := lo + rng.Uint32()%(s.domHi-lo+1)
		switch rng.Intn(8) {
		case 0:
			s.tlock.RLock()
			_, _, err := s.tab.SelectRangeCtx(ctx, "a", lo, hi, nil)
			s.tlock.RUnlock()
			s.note("SelectRangeCtx", err)
		case 1:
			s.tlock.RLock()
			_, _, err := s.tab.SelectInCtx(ctx, "c", s.inList, nil)
			s.tlock.RUnlock()
			s.note("SelectInCtx", err)
		case 2:
			preds := []mmdb.RangePred{{Col: "a", Lo: lo, Hi: hi}, {Col: "b", Lo: 0, Hi: s.domHi}}
			s.tlock.RLock()
			_, _, err := s.tab.SelectWhereCtx(ctx, preds, nil)
			s.tlock.RUnlock()
			s.note("SelectWhereCtx", err)
		case 3:
			s.tlock.RLock()
			_, err := mmdb.GroupAggregateCtx(ctx, s.tab, "c", "a", nil, nil)
			s.tlock.RUnlock()
			s.note("GroupAggregateCtx", err)
		case 4:
			// Lock-free on purpose: epoch swaps under fire.  An index's
			// own methods take no context, so they never abort.
			if ix != nil {
				ix.SelectEqual(lo)
				s.note("SelectEqual", nil)
			}
		case 5:
			// Lock-free on purpose: epoch swaps under fire.
			if sh != nil {
				_, err := sh.SelectRange(lo, hi)
				s.note("sharded SelectRange", err)
			}
		case 6:
			// Lock-free on purpose: epoch swaps under fire.
			if sh != nil {
				sh.SelectEqual(lo)
				s.note("sharded SelectEqual", nil)
			}
		case 7:
			s.tlock.RLock()
			_, err := mmdb.JoinWithCtx(ctx, s.tab, "b", ix, mmdb.JoinOptions{}, nil, nil)
			s.tlock.RUnlock()
			s.note("JoinWithCtx", err)
		}
		stop()
	}
}

// appender serializes governed appends and keeps the oracle in lockstep:
// a batch lands in the oracle exactly when the governed append returned
// nil.  Runs concurrently with the query storm, so every append is also
// an epoch swap under fire.
func (s *soak) appender() {
	rng := rand.New(rand.NewSource(s.cfg.Seed + 104729))
	for i := 0; i < s.cfg.AppendBatches; i++ {
		n := 1 + rng.Intn(8)
		batch := map[string][]uint32{}
		for _, col := range []string{"a", "b", "c"} {
			vals := make([]uint32, n)
			for j := range vals {
				vals[j] = rng.Uint32() % s.domHi
			}
			batch[col] = vals
		}
		ctx, stop := stormCtx(rng)
		s.tlock.Lock()
		err := s.tab.AppendRowsCtx(ctx, batch)
		s.tlock.Unlock()
		stop()
		switch o := classify(err); o {
		case outOK:
			if oerr := s.oracle.AppendRows(batch); oerr != nil {
				s.fail("oracle append: %v", oerr)
				return
			}
			s.mu.Lock()
			s.rep.AppendsAcked++
			s.mu.Unlock()
		case outUnexpected:
			s.fail("AppendRowsCtx: untyped error: %v", err)
		default:
			s.mu.Lock()
			s.rep.AppendsAborted++
			s.addAbortLocked(o)
			s.mu.Unlock()
		}
	}
}

// panicWorker drives the parallel pool with bodies that panic at seeded
// points: each panic must surface exactly once as *parallel.WorkerPanic
// (never kill the process, never deadlock the batch), with sibling
// workers stopped by the shared panic flag.
func (s *soak) panicWorker() {
	rng := rand.New(rand.NewSource(s.cfg.Seed + 1299709))
	opts := parallel.Options{Workers: 4, MinBatchPerWorker: 1, CheckpointStride: 8}
	for i := 0; i < s.cfg.Rounds/4+1; i++ {
		bad := rng.Intn(64)
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					wp, ok := r.(*parallel.WorkerPanic)
					if !ok {
						s.fail("panic crossed the pool unwrapped: %v", r)
						return
					}
					err = wp
				}
			}()
			parallel.Run(64, opts, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					if j == bad {
						panic(fmt.Sprintf("chaos worker panic %d", i))
					}
				}
			})
			return nil
		}()
		var wp *parallel.WorkerPanic
		if !errors.As(err, &wp) {
			s.fail("panic round %d: got %v, want *parallel.WorkerPanic", i, err)
			continue
		}
		s.mu.Lock()
		s.rep.WorkerPanics++
		s.mu.Unlock()
	}
}

// durableLeg appends to a WAL-backed table through an injected-fault
// filesystem, then crashes it and verifies recovery: the recovered batch
// sequence must be an in-order subsequence of the submitted batches that
// contains every acknowledged one.
func (s *soak) durableLeg() {
	rng := rand.New(rand.NewSource(s.cfg.Seed + 15485863))
	fsys := failfs.NewMem(s.cfg.Seed)
	fsys.SetScenario(s.cfg.Scenario)
	// The scenario may refuse the open itself (its mkdir/open/sync ops
	// are failpoints too): count each refusal as an injected fault and
	// retry, like an operator bouncing a flaky volume.
	var d *mmdb.DurableTable
	for {
		var err error
		d, err = mmdb.OpenDurable(fsys, "db", "soak", wal.Always())
		if err == nil {
			break
		}
		if classify(err) != outUnexpected {
			s.fail("durable open: %v", err)
			return
		}
		s.mu.Lock()
		s.rep.DurableIOErrors++
		retries := s.rep.DurableIOErrors
		s.mu.Unlock()
		if retries > 100 {
			s.fail("durable open never succeeded under scenario: %v", err)
			return
		}
	}
	// Batch i carries the single value i, so the recovered column spells
	// out the recovered batch sequence directly.
	acked := make([]bool, s.cfg.DurableRounds)
	for i := 0; i < s.cfg.DurableRounds; i++ {
		ctx, stop := stormCtx(rng)
		err := d.AppendRowsCtx(ctx, map[string][]uint32{"k": {uint32(i)}})
		stop()
		switch o := classify(err); o {
		case outOK:
			acked[i] = true
			s.mu.Lock()
			s.rep.DurableAcked++
			s.mu.Unlock()
		case outUnexpected:
			// Injected filesystem faults (and the WAL poisoning itself
			// after one) are the expected untyped class on this leg.
			s.mu.Lock()
			s.rep.DurableIOErrors++
			s.mu.Unlock()
		default:
			s.mu.Lock()
			s.rep.DurableAborted++
			s.addAbortLocked(o)
			s.mu.Unlock()
		}
	}
	// Crash: lose the storm's volatile state, then recover fault-free.
	fsys.SetScenario(nil)
	fsys.Crash()
	r, err := mmdb.OpenDurable(fsys, "db", "soak", wal.Always())
	if err != nil {
		s.fail("durable recovery: %v", err)
		return
	}
	defer r.Close()
	if r.Rows() == 0 && s.rep.DurableAcked > 0 {
		s.fail("recovery lost all %d acknowledged batches", s.rep.DurableAcked)
		return
	}
	col, ok := r.Column("k")
	if !ok {
		if s.rep.DurableAcked > 0 {
			s.fail("recovered table has no column k")
		}
		return
	}
	recovered := make([]uint32, col.Len())
	for i := range recovered {
		recovered[i] = col.Value(i)
	}
	s.mu.Lock()
	s.rep.RecoveredRows = len(recovered)
	s.mu.Unlock()
	// In-order subsequence of submitted batch stamps…
	next := 0
	for _, v := range recovered {
		if int(v) < next {
			s.fail("recovered batches out of order or duplicated: stamp %d after %d", v, next-1)
			return
		}
		next = int(v) + 1
	}
	// …containing every acknowledged batch.
	got := map[uint32]bool{}
	for _, v := range recovered {
		got[v] = true
	}
	for i, ok := range acked {
		if ok && !got[uint32(i)] {
			s.fail("acknowledged batch %d lost by recovery", i)
			return
		}
	}
}

// verifyPostStorm runs the full read battery ungoverned on the stormed
// table and demands bit-identical answers from the oracle.
func (s *soak) verifyPostStorm() {
	if s.tab.Rows() != s.oracle.Rows() {
		s.fail("row count diverged: governed %d, oracle %d", s.tab.Rows(), s.oracle.Rows())
		return
	}
	equal := func(what string, got, want []uint32, gerr, werr error) {
		if gerr != nil || werr != nil {
			s.fail("%s post-storm: governed err %v, oracle err %v", what, gerr, werr)
			return
		}
		if len(got) != len(want) {
			s.fail("%s post-storm: %d rids vs oracle %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				s.fail("%s post-storm: rid[%d] = %d, oracle %d", what, i, got[i], want[i])
				return
			}
		}
	}
	got, _, gerr := s.tab.SelectRange("a", 0, math.MaxUint32)
	want, _, werr := s.oracle.SelectRange("a", 0, math.MaxUint32)
	equal("SelectRange a", got, want, gerr, werr)

	got, _, gerr = s.tab.SelectRange("b", 0, math.MaxUint32)
	want, _, werr = s.oracle.SelectRange("b", 0, math.MaxUint32)
	equal("SelectRange b (sharded)", got, want, gerr, werr)

	got, _, gerr = s.tab.SelectIn("c", s.inList)
	want, _, werr = s.oracle.SelectIn("c", s.inList)
	equal("SelectIn c", got, want, gerr, werr)

	preds := []mmdb.RangePred{{Col: "a", Lo: 0, Hi: math.MaxUint32}, {Col: "b", Lo: s.domHi / 4, Hi: s.domHi}}
	got, _, gerr = s.tab.SelectWhere(preds)
	want, _, werr = s.oracle.SelectWhere(preds)
	equal("SelectWhere", got, want, gerr, werr)

	gagg, gerr := mmdb.GroupAggregate(s.tab, "c", "a", nil)
	wagg, werr := mmdb.GroupAggregate(s.oracle, "c", "a", nil)
	if gerr != nil || werr != nil {
		s.fail("GroupAggregate post-storm: governed err %v, oracle err %v", gerr, werr)
		return
	}
	if len(gagg) != len(wagg) {
		s.fail("GroupAggregate post-storm: %d groups vs oracle %d", len(gagg), len(wagg))
		return
	}
	for i := range wagg {
		if gagg[i] != wagg[i] {
			s.fail("GroupAggregate post-storm: group %d = %+v, oracle %+v", i, gagg[i], wagg[i])
			return
		}
	}
}

// counterDelta snapshots the four governor abort counters.
type counterDelta struct{ cancels, timeouts, budgets, sheds uint64 }

func snapCounters() counterDelta {
	return counterDelta{
		cancels:  telemetry.C("governor_cancels_total").Value(),
		timeouts: telemetry.C("governor_timeouts_total").Value(),
		budgets:  telemetry.C("governor_budget_aborts_total").Value(),
		sheds:    telemetry.C("governor_sheds_total").Value(),
	}
}

// Run executes one seeded soak and verifies every invariant.  The error
// aggregates every violation the storm surfaced (nil = clean pass).
func Run(cfg Config) (*Report, error) {
	cfg.fill()
	wasEnabled := telemetry.Enabled()
	telemetry.Enable()
	if !wasEnabled {
		defer telemetry.Disable()
	}
	baseGoroutines := runtime.NumGoroutine()

	g := workload.New(cfg.Seed)
	tab, err := buildTable("storm", g, cfg.BaseRows)
	if err != nil {
		return nil, err
	}
	tab.EnableCache(mmdb.CacheOptions{MinCostNs: -1})
	gov := governor.NewAdmission(cfg.Admission)
	tab.AttachGovernor(gov)
	og := workload.New(cfg.Seed)
	oracle, err := buildTable("storm", og, cfg.BaseRows)
	if err != nil {
		return nil, err
	}

	s := &soak{cfg: cfg, tab: tab, oracle: oracle, domHi: math.MaxUint32 - 1}
	cVals, _ := tab.Column("c")
	s.inList = distinctValues(cVals)

	before := snapCounters()

	var wg sync.WaitGroup
	for w := 0; w < cfg.QueryWorkers; w++ {
		wg.Add(1)
		go func(w int) { defer wg.Done(); s.queryWorker(w) }(w)
	}
	wg.Add(1)
	go func() { defer wg.Done(); s.appender() }()
	wg.Add(1)
	go func() { defer wg.Done(); s.durableLeg() }()
	if cfg.PanicStorm {
		wg.Add(1)
		go func() { defer wg.Done(); s.panicWorker() }()
	}
	wg.Wait()

	// Invariant 2: bit-identical post-storm reads.
	s.verifyPostStorm()

	// Invariant 3: counters reconcile 1:1 with observed aborts.  Query,
	// append and durable aborts all flowed through addAbortLocked, the
	// mirror of governor.NoteAbort's classification.
	after := snapCounters()
	if d := after.cancels - before.cancels; d != uint64(s.rep.Cancels) {
		s.fail("governor_cancels_total moved %d, observed %d", d, s.rep.Cancels)
	}
	if d := after.timeouts - before.timeouts; d != uint64(s.rep.Timeouts) {
		s.fail("governor_timeouts_total moved %d, observed %d", d, s.rep.Timeouts)
	}
	if d := after.budgets - before.budgets; d != uint64(s.rep.BudgetAborts) {
		s.fail("governor_budget_aborts_total moved %d, observed %d", d, s.rep.BudgetAborts)
	}
	if d := after.sheds - before.sheds; d != uint64(s.rep.Sheds) {
		s.fail("governor_sheds_total moved %d, observed %d", d, s.rep.Sheds)
	}
	if st := gov.Stats(); st.Running != 0 || st.Queued != 0 || st.BytesInFlight != 0 {
		s.fail("admission state leaked after storm: %+v", st)
	}

	// No goroutine leaks: everything the storm started must wind down.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+2 {
		s.fail("goroutine leak: %d before storm, %d after", baseGoroutines, n)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.errs) > 0 {
		return &s.rep, errors.Join(s.errs...)
	}
	rep := s.rep
	return &rep, nil
}

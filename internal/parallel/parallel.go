// Package parallel is the worker-pool scheduler behind the batched execution
// engine: it splits one large probe batch across GOMAXPROCS-level workers so
// that several lockstep descents run concurrently, multiplying the
// memory-level parallelism each kernel already extracts within a core by the
// number of cores.  The paper's arithmetic traversal makes this composition
// clean — workers share nothing but the immutable directory and disjoint
// spans of the probe/result arrays, so no synchronisation is needed beyond
// the final join.
//
// The scheduler is deliberately small: contiguous spans for flat batches
// (Run), an atomic work counter for irregular task lists such as per-shard
// probe runs (Do), and a sequential fallback whenever the batch is too small
// to amortise goroutine handoff.  Nothing here allocates per probe; the only
// per-batch allocations are the worker goroutines themselves.
package parallel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cssidx/internal/telemetry"
)

// WorkerPanic carries a panic out of a pool worker to the calling
// goroutine: Run and Do recover panics on their spawned workers, let the
// surviving workers drain (Do stops handing out further tasks), and then
// re-panic exactly once on the caller with the first panic's value and
// its original stack.  Without this, a panicking worker would kill the
// whole process from a goroutine nobody can defer around — with it, a
// server calling the batch engine can recover at its request boundary
// and keep serving.
//
// On the sequential path (one worker) body runs on the calling
// goroutine and a panic propagates unwrapped, stack intact.
type WorkerPanic struct {
	Value any    // the value the worker's body panicked with
	Stack []byte // the worker's stack at the point of the panic
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker panicked: %v\n\nworker stack:\n%s", p.Value, p.Stack)
}

// panicTrap collects the first panic across a batch's workers.
type panicTrap struct {
	once    sync.Once
	tripped atomic.Bool
	val     any
	stack   []byte
}

// protect runs f, diverting a panic into the trap (first one wins).
func (p *panicTrap) protect(f func()) {
	defer func() {
		if v := recover(); v != nil {
			// Trip the flag before the (slow) stack capture so Do stops
			// handing out tasks immediately.
			p.tripped.Store(true)
			p.once.Do(func() {
				p.val = v
				p.stack = debug.Stack()
			})
		}
	}()
	f()
}

// rethrow re-panics on the caller once every worker has joined.  A
// WorkerPanic that crossed one pool boundary already (nested Run/Do) is
// passed through rather than double-wrapped.
func (p *panicTrap) rethrow() {
	if !p.tripped.Load() {
		return
	}
	if wp, ok := p.val.(*WorkerPanic); ok {
		panic(wp)
	}
	panic(&WorkerPanic{Value: p.val, Stack: p.stack})
}

// DefaultMinPerWorker is the smallest work size (in probes) worth handing to
// an extra worker.  Below roughly this many probes per core the goroutine
// wake/join overhead (~µs) rivals the descent time itself, so smaller
// batches run on the calling goroutine.
const DefaultMinPerWorker = 2048

// DefaultCheckpointStride is the number of work items a Run worker
// processes between looks at the batch's shared panic flag.  One atomic
// load per this many rows is invisible in the profile, yet bounds how far
// a worker can run past a sibling's panic.
const DefaultCheckpointStride = 65536

// Options tunes the engine.  The zero value is the recommended default:
// GOMAXPROCS workers with the small-batch sequential fallback.
type Options struct {
	// Workers is the maximum number of concurrent workers; 0 picks
	// GOMAXPROCS, 1 forces the sequential path.
	Workers int
	// MinBatchPerWorker is the minimum work size per worker; a batch
	// smaller than 2× this runs sequentially, and larger batches use at
	// most total/MinBatchPerWorker workers.  0 means DefaultMinPerWorker,
	// or the Tuner's measured value when one is attached.
	MinBatchPerWorker int
	// Tuner, when non-nil and MinBatchPerWorker is 0, replaces the static
	// default with a per-probe-cost-derived span: the first large enough
	// Run times a calibration prefix on the calling goroutine, and every
	// later batch uses the derived MinBatchPerWorker.  One Tuner per index:
	// per-probe cost is a property of the structure being probed (hot-cache
	// probes need bigger spans than DRAM-missing ones).
	Tuner *Tuner
	// CheckpointStride is the number of rows a Run worker processes
	// between looks at the shared panic flag, so a sibling's panic stops
	// the other workers within one stride; 0 means
	// DefaultCheckpointStride.
	CheckpointStride int
}

// --- adaptive worker sizing --------------------------------------------------

// calibSpan is the probe prefix timed once to measure per-probe cost: large
// enough to average out timer granularity and warm-up, small enough that
// the one-shot sequential prefix is invisible in the first batch.
const calibSpan = 4096

// spanBudgetNs is the work (in ns) a worker's span should carry so the
// goroutine handoff (~µs wake + join) stays a few percent of it.
const spanBudgetNs = 50_000

// Calibration bounds: spans below minAdaptiveSpan thrash on handoff even
// for slow probes; spans above maxAdaptiveSpan stop helping balance.
const (
	minAdaptiveSpan = 256
	maxAdaptiveSpan = 65536
)

// MinForCost derives MinBatchPerWorker from a measured per-probe cost:
// enough probes that a worker's span is worth spanBudgetNs, clamped to
// [minAdaptiveSpan, maxAdaptiveSpan].
func MinForCost(perProbeNs float64) int {
	if perProbeNs <= 0 {
		return DefaultMinPerWorker
	}
	m := int(spanBudgetNs / perProbeNs)
	if m < minAdaptiveSpan {
		return minAdaptiveSpan
	}
	if m > maxAdaptiveSpan {
		return maxAdaptiveSpan
	}
	return m
}

// Tuner caches a measured per-probe cost and the MinBatchPerWorker derived
// from it.  All methods are safe for concurrent use; if two first batches
// race the calibration, the later measurement wins — both are valid
// samples of the same index.
//
// A calibration is not permanent: per-probe cost is a property of the
// structure's size and cache residency, so batch surfaces call Observe
// with the index's current size, and once the index has doubled since the
// measurement — or recalibrateEvery batches have used it — the cached span
// is invalidated and the next large Run re-measures.
type Tuner struct {
	min     atomic.Int64  // derived MinBatchPerWorker; 0 = not yet calibrated
	perNs   atomic.Uint64 // math.Float64bits of the measured per-probe ns
	size    atomic.Int64  // index size at calibration (0 = unrecorded)
	batches atomic.Int64  // batches served since calibration
}

// recalibrateEvery bounds a calibration's lifetime in batches even when
// the index never doubles: drift in machine state (frequency scaling,
// co-tenants) is re-measured about every this many batches.
const recalibrateEvery = 4096

// Note records a calibration measurement and returns the derived span.
func (t *Tuner) Note(probes int, elapsed time.Duration) int {
	per := float64(elapsed.Nanoseconds()) / float64(probes)
	m := MinForCost(per)
	t.perNs.Store(math.Float64bits(per))
	t.size.Store(0)
	t.batches.Store(0)
	t.min.Store(int64(m))
	noteCalibration(m, per)
	return m
}

// Observe notes one batch served over an index of n keys and invalidates a
// stale calibration: when the index has at least doubled since the span
// was measured (epoch-swap growth, delta folds), or recalibrateEvery
// batches have run on it, the cached span is cleared so the next large Run
// recalibrates.  Cost: two or three atomic ops; safe from any goroutine.
func (t *Tuner) Observe(n int) {
	if t.min.Load() == 0 || n <= 0 {
		return
	}
	sz := t.size.Load()
	if sz == 0 {
		// First batch after a calibration records the size it was measured
		// at (the calibration itself has no size in scope).
		if !t.size.CompareAndSwap(0, int64(n)) {
			sz = t.size.Load()
		} else {
			sz = int64(n)
		}
	}
	if int64(n) >= 2*sz || t.batches.Add(1) >= recalibrateEvery {
		t.min.Store(0)
		t.size.Store(0)
		t.batches.Store(0)
	}
}

// Min returns the calibrated MinBatchPerWorker, or 0 before calibration.
func (t *Tuner) Min() int { return int(t.min.Load()) }

// Calibration reports the derived span and the per-probe cost behind it;
// ok is false before any batch was large enough to calibrate.  This is the
// single implementation behind every index's BatchCalibration method.
func (t *Tuner) Calibration() (minPerWorker int, perProbeNs float64, ok bool) {
	if m := t.Min(); m != 0 {
		return m, t.PerProbeNs(), true
	}
	return 0, 0, false
}

// PerProbeNs returns the measured per-probe cost, or 0 before calibration.
func (t *Tuner) PerProbeNs() float64 { return math.Float64frombits(t.perNs.Load()) }

// Resolved fills MinBatchPerWorker from the tuner cache when the caller
// left it adaptive, and reports whether a calibration run is still needed.
func (o Options) Resolved() (Options, bool) {
	if o.Tuner == nil || o.MinBatchPerWorker != 0 {
		return o, false
	}
	if m := o.Tuner.Min(); m != 0 {
		o.MinBatchPerWorker = m
		return o, false
	}
	return o, true
}

// WithoutTuner strips the tuner: for cheap auxiliary passes (result
// scatter) that must neither calibrate the tuner with a non-probe cost nor
// inherit a probe-derived span.
func (o Options) WithoutTuner() Options {
	o.Tuner = nil
	return o
}

// WorkersFor returns the number of workers the options grant a batch of
// `total` work items: at least 1, at most Workers, scaled down so every
// worker gets MinBatchPerWorker items.
func (o Options) WorkersFor(total int) int {
	o, _ = o.Resolved()
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	min := o.MinBatchPerWorker
	if min <= 0 {
		min = DefaultMinPerWorker
	}
	if by := total / min; w > by {
		w = by
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sequential reports whether Run(n, o, body) runs the whole span as one
// call on the calling goroutine, with no calibration (none for n = 0): a
// caller on a hot path can then call its body over [0, n) itself and
// allocate no closure.
func (o Options) Sequential(n int) bool {
	o, calibrate := o.Resolved()
	return o.sequential(n, calibrate)
}

// sequential is Sequential over options already resolved: the one place
// the decision is made, for Run and for its callers.
func (o Options) sequential(n int, calibrate bool) bool {
	return !(calibrate && n >= 2*calibSpan) && o.WorkersFor(n) == 1
}

// Span returns the t-th of w contiguous spans partitioning [0, n): callers
// that stage per-span outputs (a buffer per worker) use it with Do so their
// split agrees with Run's.
func Span(n, w, t int) (lo, hi int) {
	return t * n / w, (t + 1) * n / w
}

// Run executes body over the half-open span [0, n) split into one contiguous
// sub-span per worker (the spans partition [0, n) exactly, in order).  With
// one worker — small n, Workers 1, or GOMAXPROCS 1 — body(0, n) runs on the
// calling goroutine with no scheduling at all.  body must be safe to call
// concurrently on disjoint spans.
//
// When opts carries an uncalibrated Tuner (and no explicit
// MinBatchPerWorker), the first large enough Run times a calibSpan prefix
// on the calling goroutine — real work, not a rehearsal — derives
// MinBatchPerWorker from the measured per-probe cost, and fans the
// remainder out under the derived value.  Every later Run resolves the
// cached value with no measurement.
//
// A panic in any worker is recovered, the other workers stop at their
// next checkpoint (see Options.CheckpointStride), and Run re-panics once
// on the caller with a *WorkerPanic holding the first panic's value and
// original stack.
func Run(n int, opts Options, body func(lo, hi int)) {
	opts, calibrate := opts.Resolved()
	if opts.sequential(n, calibrate) {
		if n > 0 {
			// Sequential path: body runs on the calling goroutine and a
			// panic propagates unwrapped, stack intact.
			body(0, n)
		}
		return
	}
	lo := 0
	if calibrate && n >= 2*calibSpan {
		start := time.Now()
		body(0, calibSpan)
		opts.MinBatchPerWorker = opts.Tuner.Note(calibSpan, time.Since(start))
		lo = calibSpan
	}
	total := n - lo
	w := opts.WorkersFor(total)
	if w == 1 {
		body(lo, n) // the rest of a calibrated batch, still one worker's
		return
	}
	stride := opts.CheckpointStride
	if stride <= 0 {
		stride = DefaultCheckpointStride
	}
	var trap panicTrap
	// runSpan walks one worker's span in checkpoint-stride chunks.  The
	// first chunk always runs (an admitted worker makes progress), later
	// chunks are skipped once a sibling has panicked.
	runSpan := func(slo, shi int) {
		for c := slo; c < shi; {
			if c > slo && trap.tripped.Load() {
				return
			}
			e := min(c+stride, shi)
			body(c, e)
			c = e
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	spawn := telemetry.Now()
	for i := 1; i < w; i++ {
		slo, shi := Span(total, w, i)
		go func() {
			defer wg.Done()
			histWaitNs.Since(spawn)
			wstart := telemetry.Now()
			trap.protect(func() { runSpan(lo+slo, lo+shi) })
			histRunNs.Since(wstart)
		}()
	}
	wstart := telemetry.Now() // bracket worker 0 like the spawned workers
	trap.protect(func() { runSpan(lo, lo+total/w) })
	histRunNs.Since(wstart)
	wg.Wait()
	trap.rethrow()
}

// Do executes body(task) for every task in [0, tasks), distributing tasks to
// workers through an atomic counter so uneven task sizes balance themselves
// (a worker that drew a small task immediately draws the next).  total is
// the combined work size across tasks and drives the worker count and the
// sequential fallback; body must be safe to call concurrently for distinct
// tasks.
//
// A panic in any task is recovered, no further tasks are handed out
// (tasks already running finish), and Do re-panics once on the caller
// with a *WorkerPanic holding the first panic's value and original
// stack.
func Do(tasks int, total int, opts Options, body func(task int)) {
	doCtx(nil, nil, tasks, total, opts, body)
}

// DoCtx is Do bound to a context: workers stop drawing tasks once the
// context is done (the task boundary is the checkpoint — tasks are the
// irregular-work analogue of Run's strides; a long task should bound
// itself with a governor.Checkpoint).  Tasks already drawn finish; tasks
// never drawn are skipped, and DoCtx returns context.Canceled or
// context.DeadlineExceeded so the caller discards partial output.  A
// worker panic still wins and re-panics as *WorkerPanic.
func DoCtx(ctx context.Context, tasks int, total int, opts Options, body func(task int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return doCtx(ctx, ctx.Done(), tasks, total, opts, body)
}

func doCtx(ctx context.Context, done <-chan struct{}, tasks int, total int, opts Options, body func(task int)) error {
	ctxErr := func() error {
		if done == nil {
			return nil
		}
		select {
		case <-done:
			return ctx.Err()
		default:
			return nil
		}
	}
	if tasks == 0 {
		return ctxErr()
	}
	if err := ctxErr(); err != nil {
		return err
	}
	// Irregular task lists calibrate nowhere (no probe prefix to time), but
	// they resolve a Tuner another surface already calibrated.
	opts, _ = opts.Resolved()
	w := opts.WorkersFor(total)
	if w > tasks {
		w = tasks
	}
	if w == 1 {
		for t := 0; t < tasks; t++ {
			if t > 0 {
				if err := ctxErr(); err != nil {
					return err
				}
			}
			body(t)
		}
		return ctxErr()
	}
	var trap panicTrap
	var next atomic.Int64
	work := func() {
		// A sibling's panic or the context ending cancels the undrawn tasks.
		for !trap.tripped.Load() {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			t := int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			trap.protect(func() { body(t) })
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	spawn := telemetry.Now()
	for i := 1; i < w; i++ {
		go func() {
			defer wg.Done()
			histWaitNs.Since(spawn)
			wstart := telemetry.Now()
			work()
			histRunNs.Since(wstart)
		}()
	}
	wstart := telemetry.Now() // bracket worker 0 like the spawned workers
	work()
	histRunNs.Since(wstart)
	wg.Wait()
	trap.rethrow()
	return ctxErr()
}

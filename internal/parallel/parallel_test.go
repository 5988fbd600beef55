package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersFor(t *testing.T) {
	cases := []struct {
		opts  Options
		total int
		want  int
	}{
		{Options{Workers: 4, MinBatchPerWorker: 100}, 0, 1},
		{Options{Workers: 4, MinBatchPerWorker: 100}, 99, 1},
		{Options{Workers: 4, MinBatchPerWorker: 100}, 199, 1},
		{Options{Workers: 4, MinBatchPerWorker: 100}, 200, 2},
		{Options{Workers: 4, MinBatchPerWorker: 100}, 399, 3},
		{Options{Workers: 4, MinBatchPerWorker: 100}, 400, 4},
		{Options{Workers: 4, MinBatchPerWorker: 100}, 1 << 20, 4},
		{Options{Workers: 1, MinBatchPerWorker: 1}, 1 << 20, 1},
	}
	for _, c := range cases {
		if got := c.opts.WorkersFor(c.total); got != c.want {
			t.Errorf("WorkersFor(%+v, %d) = %d, want %d", c.opts, c.total, got, c.want)
		}
	}
	// Zero options scale with GOMAXPROCS but never exceed total/default.
	w := Options{}.WorkersFor(1 << 30)
	if max := runtime.GOMAXPROCS(0); w != max {
		t.Errorf("zero options on huge batch: %d workers, want GOMAXPROCS=%d", w, max)
	}
	if w := (Options{}).WorkersFor(DefaultMinPerWorker); w != 1 {
		t.Errorf("batch of one min-span should stay sequential, got %d workers", w)
	}
}

// TestRunCoversExactly verifies the spans partition [0, n) with no overlap
// and no gap, across worker counts and sizes including the fallback.
func TestRunCoversExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 9} {
		for _, n := range []int{0, 1, 5, 1000, 4096, 100_001} {
			seen := make([]int32, n)
			Run(n, Options{Workers: workers, MinBatchPerWorker: 1}, func(lo, hi int) {
				if lo > hi || lo < 0 || hi > n {
					t.Errorf("bad span [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestRunSequentialFallbackSingleCall(t *testing.T) {
	calls := 0
	Run(100, Options{Workers: 8, MinBatchPerWorker: 1000}, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Errorf("fallback span [%d,%d), want [0,100)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("fallback made %d calls, want 1", calls)
	}
	Run(0, Options{}, func(lo, hi int) { t.Error("body called for n=0") })
}

// TestSequentialMatchesRun holds Sequential to what Run does: true exactly
// when Run calls body(0, n) once, and an uncalibrated tuner's first large
// batch, which Run splits to time a prefix, is not sequential.
func TestSequentialMatchesRun(t *testing.T) {
	for _, opts := range []Options{
		{Workers: 1}, {Workers: 4, MinBatchPerWorker: 100}, {Workers: 8, MinBatchPerWorker: 1000}, {Workers: 1, Tuner: &Tuner{}},
	} {
		for _, n := range []int{1, 100, 399, 400, 2*calibSpan - 1, 2 * calibSpan} {
			var calls, whole atomic.Int32
			seq := opts.Sequential(n)
			Run(n, opts, func(lo, hi int) {
				calls.Add(1)
				if lo == 0 && hi == n {
					whole.Add(1)
				}
			})
			if want := calls.Load() == 1 && whole.Load() == 1; seq != want {
				t.Errorf("%+v n=%d: Sequential %v, Run made %d calls", opts, n, seq, calls.Load())
			}
			if opts.Tuner != nil {
				opts.Tuner = &Tuner{} // uncalibrated again for the next size
			}
		}
	}
}

func TestDoRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, tasks := range []int{0, 1, 3, 57} {
			seen := make([]int32, tasks)
			Do(tasks, 1<<20, Options{Workers: workers, MinBatchPerWorker: 1}, func(task int) {
				atomic.AddInt32(&seen[task], 1)
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d tasks=%d: task %d ran %d times", workers, tasks, i, c)
				}
			}
		}
	}
}

func TestDoSequentialOrder(t *testing.T) {
	var order []int
	Do(5, 10, Options{Workers: 1}, func(task int) { order = append(order, task) })
	for i, task := range order {
		if task != i {
			t.Fatalf("sequential Do out of order: %v", order)
		}
	}
}

func TestMinForCostClamps(t *testing.T) {
	if got := MinForCost(0); got != DefaultMinPerWorker {
		t.Fatalf("MinForCost(0) = %d, want default %d", got, DefaultMinPerWorker)
	}
	if got := MinForCost(1000); got != minAdaptiveSpan {
		t.Fatalf("slow probes should clamp to %d, got %d", minAdaptiveSpan, got)
	}
	if got := MinForCost(0.01); got != maxAdaptiveSpan {
		t.Fatalf("instant probes should clamp to %d, got %d", maxAdaptiveSpan, got)
	}
	// 50ns per probe → spanBudget/50 = 1000 probes.
	if got := MinForCost(50); got != 1000 {
		t.Fatalf("MinForCost(50) = %d, want 1000", got)
	}
}

func TestTunerCalibratesOnFirstLargeRun(t *testing.T) {
	var tu Tuner
	opts := Options{Workers: 4, Tuner: &tu}
	// Small run: no calibration.
	covered := make([]bool, 100)
	Run(100, opts, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			covered[i] = true
		}
	})
	if tu.Min() != 0 {
		t.Fatalf("small run calibrated: min=%d", tu.Min())
	}
	// Large run: calibrates once, still covers [0, n) exactly once.
	n := 3*calibSpan + 17
	var hits = make([]int32, n)
	Run(n, opts, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	if tu.Min() == 0 {
		t.Fatal("large run did not calibrate")
	}
	if tu.PerProbeNs() < 0 {
		t.Fatalf("negative per-probe cost %v", tu.PerProbeNs())
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d covered %d times", i, h)
		}
	}
	// The cached value resolves into later option sets.
	if ro, calibrate := opts.Resolved(); calibrate || ro.MinBatchPerWorker != tu.Min() {
		t.Fatalf("Resolved() = (%+v, %v), want cached min %d", ro, calibrate, tu.Min())
	}
	// Explicit MinBatchPerWorker wins over the tuner.
	pinned := Options{MinBatchPerWorker: 9999, Tuner: &tu}
	if ro, _ := pinned.Resolved(); ro.MinBatchPerWorker != 9999 {
		t.Fatalf("explicit span overridden: %d", ro.MinBatchPerWorker)
	}
	// WithoutTuner strips it.
	if o := opts.WithoutTuner(); o.Tuner != nil {
		t.Fatal("WithoutTuner kept the tuner")
	}
}

func TestTunerObserveInvalidatesOnGrowth(t *testing.T) {
	var tu Tuner
	// Before calibration Observe is a no-op.
	tu.Observe(10_000)
	if tu.Min() != 0 {
		t.Fatalf("Observe calibrated from nothing: min=%d", tu.Min())
	}
	tu.Note(1000, 50*time.Microsecond)
	want := tu.Min()
	if want == 0 {
		t.Fatal("Note did not calibrate")
	}
	// Stable index size keeps the calibration.
	for i := 0; i < 100; i++ {
		tu.Observe(10_000)
	}
	if tu.Min() != want {
		t.Fatalf("stable size invalidated calibration: min=%d, want %d", tu.Min(), want)
	}
	// Sub-2× growth keeps it too.
	tu.Observe(19_999)
	if tu.Min() != want {
		t.Fatal("sub-2x growth invalidated calibration")
	}
	// Doubling since the calibration-time size invalidates it.
	tu.Observe(20_000)
	if tu.Min() != 0 {
		t.Fatalf("2x growth kept stale calibration: min=%d", tu.Min())
	}
	// A fresh Note re-arms against the new size baseline.
	tu.Note(1000, 50*time.Microsecond)
	tu.Observe(20_000)
	tu.Observe(39_999)
	if tu.Min() == 0 {
		t.Fatal("recalibrated span dropped below the new 2x threshold")
	}
	tu.Observe(40_000)
	if tu.Min() != 0 {
		t.Fatal("2x growth after recalibration kept stale span")
	}
}

func TestTunerObserveInvalidatesAfterManyBatches(t *testing.T) {
	var tu Tuner
	tu.Note(1000, 50*time.Microsecond)
	for i := 0; i < recalibrateEvery-1; i++ {
		tu.Observe(5000)
		if tu.Min() == 0 {
			t.Fatalf("calibration dropped early at batch %d", i)
		}
	}
	tu.Observe(5000)
	if tu.Min() != 0 {
		t.Fatalf("calibration outlived %d batches", recalibrateEvery)
	}
}

func TestTunerResolvesInDo(t *testing.T) {
	var tu Tuner
	tu.Note(1000, 50*time.Microsecond) // 50ns/probe → min 1000
	opts := Options{Workers: 8, Tuner: &tu}
	var ran atomic.Int64
	Do(4, 100_000, opts, func(task int) { ran.Add(1) })
	if ran.Load() != 4 {
		t.Fatalf("Do ran %d tasks, want 4", ran.Load())
	}
	if got := opts.WorkersFor(3000); got != 3 {
		t.Fatalf("WorkersFor(3000) with calibrated min 1000 = %d, want 3", got)
	}
}

package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cssidx/internal/telemetry"
)

// TestRunPanicCancelsSiblings verifies panic isolation: one worker's panic
// trips the shared flag, so siblings stop at their next checkpoint instead
// of running their partitions to completion.
//
// The order of events is forced, not timed.  Every sibling parks inside its
// first chunk on a channel the panicking worker closes immediately before
// panic("boom") — but the flag is only set once that panic has unwound into
// the pool's recover, so a sibling released by the close alone could still
// race a whole partition through the gap whenever the panicking thread loses
// its core there (the old ≈1-in-100 failure on two cores).  The siblings
// therefore also wait for the first worker to be recorded as finished
// (parallel_worker_run_ns, observed after the recover returns): with every
// sibling parked, that worker can only be the panicking one, and the flag is
// set before its run time is.  From there the bound is exact — each sibling
// finishes the chunk it is in and stops at the checkpoint after it.
func TestRunPanicCancelsSiblings(t *testing.T) {
	const (
		n       = 1 << 22
		workers = 4
		stride  = 512
	)
	telemetry.Enable()
	defer telemetry.Disable()
	finished := histRunNs.Count()
	raised := make(chan struct{})
	deadline := time.Now().Add(30 * time.Second)
	var rows atomic.Int64
	var panicked, stuck atomic.Bool
	defer func() {
		v := recover()
		wp, ok := v.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %v, want *WorkerPanic", v)
		}
		if wp.Value != "boom" {
			t.Fatalf("panic value = %v, want boom", wp.Value)
		}
		if stuck.Load() {
			t.Fatal("no worker was ever recorded as finished: the panicking worker's run time is no longer observed after its recover")
		}
		if got := rows.Load(); got > (workers-1)*stride {
			t.Fatalf("siblings processed %d rows after the panic was trapped, want at most %d (one in-flight chunk each)", got, (workers-1)*stride)
		}
	}()
	Run(n, Options{Workers: workers, MinBatchPerWorker: 1, CheckpointStride: stride}, func(lo, hi int) {
		if panicked.CompareAndSwap(false, true) {
			close(raised)
			panic("boom")
		}
		<-raised
		for histRunNs.Count() == finished && !stuck.Load() {
			if time.Now().After(deadline) {
				stuck.Store(true)
			}
			runtime.Gosched()
		}
		rows.Add(int64(hi - lo))
	})
	t.Fatal("Run returned instead of re-panicking")
}

// TestRunPanicStillDrains: with every worker panicking, Run still joins
// them all and re-panics a single WorkerPanic.
func TestRunPanicStillDrains(t *testing.T) {
	defer func() {
		if _, ok := recover().(*WorkerPanic); !ok {
			t.Fatal("want *WorkerPanic")
		}
	}()
	Run(1<<20, Options{Workers: 4, MinBatchPerWorker: 1}, func(lo, hi int) {
		panic("legacy")
	})
}

func TestDoCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := DoCtx(ctx, 100, 1<<20, Options{}, func(task int) {
		t.Error("task ran under a pre-cancelled context")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestDoCtxStopsHandingOutTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tasks atomic.Int64
	err := DoCtx(ctx, 1000, 1<<22, Options{Workers: 4, MinBatchPerWorker: 1}, func(task int) {
		tasks.Add(1)
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	// Each worker may have been mid-draw when the flag flipped: a handful
	// of tasks is fine, hundreds is not.
	if got := tasks.Load(); got > 16 {
		t.Fatalf("ran %d tasks after cancel", got)
	}
}

func TestDoCtxSequentialHonorsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tasks int
	err := DoCtx(ctx, 1000, 10, Options{}, func(task int) {
		tasks++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if tasks != 1 {
		t.Fatalf("sequential path ran %d tasks, want 1", tasks)
	}
}

func TestDoCtxCompletes(t *testing.T) {
	var tasks atomic.Int64
	if err := DoCtx(context.Background(), 257, 1<<20, Options{Workers: 4, MinBatchPerWorker: 1}, func(task int) {
		tasks.Add(1)
	}); err != nil {
		t.Fatalf("DoCtx: %v", err)
	}
	if tasks.Load() != 257 {
		t.Fatalf("ran %d tasks, want 257", tasks.Load())
	}
}

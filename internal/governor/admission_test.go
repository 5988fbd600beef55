package governor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func mustAcquire(t *testing.T, a *Admission, class Class, bytes int64) *Grant {
	t.Helper()
	g, err := a.Acquire(context.Background(), class, bytes)
	if err != nil {
		t.Fatalf("Acquire(%s, %d): %v", class, bytes, err)
	}
	return g
}

func TestNilAdmissionAdmitsEverything(t *testing.T) {
	var a *Admission
	g, err := a.Acquire(context.Background(), ClassAggregate, 1<<40)
	if err != nil || g != nil {
		t.Fatalf("nil admission: got (%v, %v)", g, err)
	}
	g.Release() // nil-safe
	if a.Stats() != (Stats{}) {
		t.Fatal("nil admission stats must be zero")
	}
}

func TestConcurrencyGate(t *testing.T) {
	a := NewAdmission(Options{MaxConcurrent: 2, MaxQueue: 4})
	g1 := mustAcquire(t, a, ClassSelect, 0)
	g2 := mustAcquire(t, a, ClassSelect, 0)

	// Third select queues; it must be admitted when a slot frees.
	got := make(chan error, 1)
	go func() {
		g, err := a.Acquire(context.Background(), ClassSelect, 0)
		if err == nil {
			g.Release()
		}
		got <- err
	}()
	// Give the goroutine time to enqueue, then confirm it is waiting.
	deadline := time.Now().Add(time.Second)
	for a.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if q := a.Stats().Queued; q != 1 {
		t.Fatalf("Queued = %d, want 1", q)
	}
	g1.Release()
	if err := <-got; err != nil {
		t.Fatalf("queued select: %v", err)
	}
	g2.Release()
	if s := a.Stats(); s.Running != 0 || s.Queued != 0 {
		t.Fatalf("final stats: %+v", s)
	}
}

func TestAggregateShedsFirst(t *testing.T) {
	a := NewAdmission(Options{MaxConcurrent: 1, MaxQueue: 4})
	g := mustAcquire(t, a, ClassSelect, 0)
	defer g.Release()
	// Aggregates are never queued under overload.
	if _, err := a.Acquire(context.Background(), ClassAggregate, 0); !errors.Is(err, ErrShed) {
		t.Fatalf("aggregate under overload: got %v, want ErrShed", err)
	}
}

func TestQueueCapSheds(t *testing.T) {
	a := NewAdmission(Options{MaxConcurrent: 1, MaxQueue: 1})
	g := mustAcquire(t, a, ClassSelect, 0)
	defer g.Release()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gq, err := a.Acquire(ctx, ClassSelect, 0)
		if err == nil {
			gq.Release()
		}
	}()
	deadline := time.Now().Add(time.Second)
	for a.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// The queue is full: the next select sheds.
	if _, err := a.Acquire(context.Background(), ClassSelect, 0); !errors.Is(err, ErrShed) {
		t.Fatalf("select past queue cap: got %v, want ErrShed", err)
	}
	cancel()
	wg.Wait()
}

// TestQueueWakesInArrivalOrder: freed capacity goes to the select that
// queued first.
func TestQueueWakesInArrivalOrder(t *testing.T) {
	a := NewAdmission(Options{MaxConcurrent: 1, MaxQueue: 8})
	g := mustAcquire(t, a, ClassSelect, 0)

	order := make(chan int, 2)
	var wg sync.WaitGroup
	enqueue := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gq, err := a.Acquire(context.Background(), ClassSelect, 0)
			if err != nil {
				t.Errorf("Acquire(%d): %v", id, err)
				return
			}
			order <- id
			gq.Release()
		}()
		deadline := time.Now().Add(time.Second)
		want := a.Stats().Queued + 1
		for a.Stats().Queued < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	enqueue(1)
	enqueue(2)
	g.Release()
	wg.Wait()
	if first := <-order; first != 1 {
		t.Fatalf("first woken = select %d, want 1", first)
	}
}

func TestBytesWatermark(t *testing.T) {
	a := NewAdmission(Options{MaxConcurrent: 8, MaxQueue: 4, MaxBytesInFlight: 100})
	g1 := mustAcquire(t, a, ClassSelect, 80)
	// Over the watermark with work in flight: queue (cancel to observe).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Acquire(ctx, ClassSelect, 50); !errors.Is(err, context.Canceled) {
		t.Fatalf("over-watermark acquire: got %v, want Canceled (queued)", err)
	}
	g1.Release()
	// An idle engine always admits, even a query bigger than the watermark:
	// one huge query must never deadlock the gate.
	gBig := mustAcquire(t, a, ClassSelect, 1<<30)
	gBig.Release()
	if s := a.Stats(); s.BytesInFlight != 0 {
		t.Fatalf("BytesInFlight = %d, want 0", s.BytesInFlight)
	}
}

func TestGrantReleaseIdempotent(t *testing.T) {
	a := NewAdmission(Options{MaxConcurrent: 1})
	g := mustAcquire(t, a, ClassSelect, 10)
	g.Release()
	g.Release()
	if s := a.Stats(); s.Running != 0 || s.BytesInFlight != 0 {
		t.Fatalf("double release corrupted stats: %+v", s)
	}
}

func TestCancelWhileQueuedLeavesNoResidue(t *testing.T) {
	a := NewAdmission(Options{MaxConcurrent: 1, MaxQueue: 8})
	g := mustAcquire(t, a, ClassSelect, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx, ClassSelect, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued wait past deadline: got %v", err)
	}
	if q := a.Stats().Queued; q != 0 {
		t.Fatalf("Queued after cancelled wait = %d, want 0", q)
	}
	g.Release()
	if s := a.Stats(); s.Running != 0 {
		t.Fatalf("Running = %d, want 0", s.Running)
	}
}

// TestAcquireReleaseStorm hammers the controller from many goroutines under
// the race detector.
func TestAcquireReleaseStorm(t *testing.T) {
	a := NewAdmission(Options{MaxConcurrent: 4, MaxQueue: 16, MaxBytesInFlight: 1 << 20})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			class := Class(i % 2) // ClassSelect or ClassAggregate
			for j := 0; j < 50; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				g, err := a.Acquire(ctx, class, int64(i*100))
				if err == nil {
					g.Release()
				} else if !errors.Is(err, ErrShed) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("unexpected acquire error: %v", err)
				}
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if s := a.Stats(); s.Running != 0 || s.Queued != 0 || s.BytesInFlight != 0 {
		t.Fatalf("storm left residue: %+v", s)
	}
}

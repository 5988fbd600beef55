package governor

import (
	"context"
	"fmt"
	"sync"
)

// Class ranks work for the admission controller's shed policy.  Under
// overload the controller degrades gracefully rather than uniformly:
// cache-miss aggregates (the most expensive, most recomputable work) are
// shed at once and never queued, while selects queue up to the configured
// depth.  Cache hits never reach the controller, so they are the last
// thing an overloaded engine stops serving.
type Class uint8

const (
	// ClassSelect is a range/IN/WHERE/join compute.
	ClassSelect Class = iota
	// ClassAggregate is a cache-miss aggregate: shed first under overload.
	ClassAggregate
)

func (c Class) String() string {
	switch c {
	case ClassSelect:
		return "select"
	case ClassAggregate:
		return "aggregate"
	}
	return "unknown"
}

// Options configures an admission controller.  MaxConcurrent and
// MaxBytesInFlight are limits that zero or a negative value disables;
// MaxQueue is a depth, and zero means no queue at all.
type Options struct {
	// MaxConcurrent caps queries executing at once (the concurrency gate);
	// 0 or less = no cap.
	MaxConcurrent int
	// MaxQueue caps the ClassSelect queries waiting for capacity; beyond
	// it, work is shed.  0 or less queues nothing: under overload every
	// select is shed at once.  ClassAggregate never queues.
	MaxQueue int
	// MaxBytesInFlight is the watermark on the sum of admitted queries'
	// estimated bytes; 0 or less = no watermark.  A query that would cross
	// it waits (or is shed) unless the engine is idle, in which case it is
	// always admitted so one huge query can never deadlock the gate.
	MaxBytesInFlight int64
}

// Admission is the engine-level admission controller: a concurrency
// gate plus a bytes-in-flight watermark with one FIFO queue of selects.
// A nil *Admission admits everything for free.  Acquire blocks until
// admitted, the context ends, or the work is shed; every admit must be
// paired with Grant.Release.
type Admission struct {
	opts  Options
	mu    sync.Mutex
	run   int
	bytes int64
	queue []*waiter
}

type waiter struct {
	bytes int64
	ready chan *Grant
}

// Grant is an admitted query's reservation; Release returns its
// capacity and wakes queued waiters in arrival order.  Release
// is idempotent and nil-safe.
type Grant struct {
	a        *Admission
	bytes    int64
	released bool
	relMu    sync.Mutex
}

// NewAdmission returns a controller with the given limits.
func NewAdmission(opts Options) *Admission { return &Admission{opts: opts} }

func (a *Admission) admitLocked(est int64) bool {
	if a.opts.MaxConcurrent > 0 && a.run >= a.opts.MaxConcurrent {
		return false
	}
	if a.opts.MaxBytesInFlight > 0 && a.bytes+est > a.opts.MaxBytesInFlight && a.run > 0 {
		return false
	}
	return true
}

func (a *Admission) gaugesLocked() {
	gaugeQueueDepth.Set(int64(len(a.queue)))
	gaugeBytesInFlight.Set(a.bytes)
	gaugeRunning.Set(int64(a.run))
}

// Acquire asks to run work of the given class touching an estimated
// estBytes of memory.  It returns immediately when capacity is free;
// under overload it sheds (ErrShed) or queues per the class policy, and
// a queued wait ends early with ctx's error if the context is done
// first.  The returned Grant is nil only when a is nil.
func (a *Admission) Acquire(ctx context.Context, class Class, estBytes int64) (*Grant, error) {
	if a == nil {
		return nil, nil
	}
	if estBytes < 0 {
		estBytes = 0
	}
	a.mu.Lock()
	if a.admitLocked(estBytes) {
		a.run++
		a.bytes += estBytes
		a.gaugesLocked()
		a.mu.Unlock()
		ctrAdmitted.Inc()
		return &Grant{a: a, bytes: estBytes}, nil
	}
	// Overloaded: shed or queue per class.
	if class == ClassAggregate || len(a.queue) >= a.opts.MaxQueue {
		a.gaugesLocked()
		a.mu.Unlock()
		ctrSheds.Inc()
		return nil, fmt.Errorf("%w (%s)", ErrShed, class)
	}
	w := &waiter{bytes: estBytes, ready: make(chan *Grant, 1)}
	a.queue = append(a.queue, w)
	a.gaugesLocked()
	a.mu.Unlock()
	ctrQueuedTotal.Inc()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case g := <-w.ready:
		ctrAdmitted.Inc()
		return g, nil
	case <-done:
		a.mu.Lock()
		if !a.removeLocked(w) {
			// A hand-off raced with the cancellation: the grant is in
			// (or headed for) the channel.  Take it and give it back so
			// no capacity leaks, then report the context's error.
			a.mu.Unlock()
			g := <-w.ready
			g.Release()
			return nil, ctx.Err()
		}
		a.gaugesLocked()
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// removeLocked unlinks w from the queue; false if already handed off.
func (a *Admission) removeLocked(w *waiter) bool {
	q := a.queue
	for i, cand := range q {
		if cand == w {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			a.queue = q[:len(q)-1]
			return true
		}
	}
	return false
}

// Release returns the grant's capacity and hands freed slots to queued
// waiters in arrival order.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	g.relMu.Lock()
	if g.released {
		g.relMu.Unlock()
		return
	}
	g.released = true
	g.relMu.Unlock()
	a := g.a
	a.mu.Lock()
	a.run--
	a.bytes -= g.bytes
	for len(a.queue) > 0 && a.admitLocked(a.queue[0].bytes) {
		w := a.queue[0]
		a.queue[0] = nil
		a.queue = a.queue[1:]
		a.run++
		a.bytes += w.bytes
		w.ready <- &Grant{a: a, bytes: w.bytes}
	}
	a.gaugesLocked()
	a.mu.Unlock()
}

// Stats is a point-in-time view of the controller, for tests and scrapes.
type Stats struct {
	Running       int
	Queued        int
	BytesInFlight int64
}

// Stats snapshots the controller state (zero for nil).
func (a *Admission) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Running: a.run, Queued: len(a.queue), BytesInFlight: a.bytes}
}

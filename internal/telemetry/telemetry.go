// Package telemetry is the engine-wide observability layer: a
// zero-dependency metrics registry (counters, gauges, log-linear latency
// histograms) plus a per-query trace facility rendered as an EXPLAIN
// ANALYZE-style tree.
//
// The package is built for a cache-conscious engine, so the telemetry is
// cache-conscious too:
//
//   - Counters are sharded across padded per-core cells, so concurrent
//     batch workers incrementing the same counter never bounce one cache
//     line between cores.
//   - Collection is disabled by default.  Every hot-path operation
//     (Counter.Add, Histogram.Observe, Now) begins with a single atomic
//     load of the global switch and returns immediately when telemetry is
//     off — no clock reads, no stores, no allocation.
//   - Nothing on the record path allocates: counters and histograms are
//     fixed arrays of atomics, created once and looked up by package-level
//     variable, never per operation.
//
// Metric names follow the Prometheus data model with inline labels:
// "wal_fsync_ns", "shard_probes_total{shard=\"3\"}".  One process-wide
// Default registry aggregates every layer; Handler / Mux expose it over
// HTTP in Prometheus text and expvar-style JSON, with pprof wired in.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// enabled is the global collection switch.  The hot path pays exactly one
// atomic load to consult it.
var enabled atomic.Bool

// Enable turns collection on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns collection off; counters keep their accumulated values.
func Disable() { enabled.Store(false) }

// Enabled reports whether collection is on.  Instrumentation sites that
// need a timestamp should use Now instead, which folds the check into the
// clock read.
func Enabled() bool { return enabled.Load() }

// Now returns the current time when telemetry is enabled and the zero
// Time otherwise, so instrumentation can bracket a stage with
//
//	start := telemetry.Now()
//	... work ...
//	hist.Since(start)
//
// and pay only the single atomic load when collection is off.
func Now() time.Time {
	if !enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// cellCount is the number of padded counter cells (a power of two).  16
// covers the worker counts the parallel engine deploys.
const cellCount = 16

// paddedCell is one counter cell padded out to its own cache lines, so two
// cells never share a line (64-byte lines; 128 guards against adjacent-line
// prefetching).
type paddedCell struct {
	n atomic.Uint64
	_ [120]byte
}

// cellIndex picks this goroutine's counter cell by hashing the address of
// a stack local: goroutine stacks are spread across the address space, so
// concurrent workers land on different cells with high probability, and a
// given goroutine keeps hitting the same (already-owned) line within a
// batch.
func cellIndex() int {
	var x byte
	p := uint64(uintptr(unsafe.Pointer(&x)))
	return int(((p >> 6) * 0x9E3779B97F4A7C15) >> 58 & (cellCount - 1))
}

// Counter is a monotonically increasing counter sharded across padded
// per-core cells.  Add/Inc are allocation-free and contention-free on the
// hot path; Value sums the cells (reads may be slightly stale under
// concurrent writers, as with any statistical counter).
type Counter struct {
	name  string
	cells [cellCount]paddedCell
}

// Name returns the counter's registered metric name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n when telemetry is enabled.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.cells[cellIndex()].n.Add(n)
}

// Inc increments the counter by one when telemetry is enabled.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the cells.
func (c *Counter) Value() uint64 {
	var n uint64
	for i := range c.cells {
		n += c.cells[i].n.Load()
	}
	return n
}

// Gauge is an instantaneous integer value (queue depth, bytes held).
// Unlike Counter it is not gated on the global switch: gauges are set from
// slow paths (calibrations, admissions) where the store is already cheap,
// and keeping them live means scrapes see state even when hot-path
// collection is off.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value loads the value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a read-on-scrape metric: fn is evaluated at export time,
// so layers with their own internally consistent counters (e.g. the
// result cache's Stats) surface them without double bookkeeping.
type GaugeFunc struct {
	name string
	fn   func() float64
}

// Name returns the metric name the function is registered under.
func (g *GaugeFunc) Name() string { return g.name }

// Value evaluates the function.
func (g *GaugeFunc) Value() float64 { return g.fn() }

// Registry holds one process's metrics.  Lookups are GetOrCreate-style so
// independent packages (and repeated constructions of the same structure)
// share series by name; all methods are safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	order []string // registration order, for stable export
	cs    map[string]*Counter
	gs    map[string]*Gauge
	fs    map[string]*GaugeFunc
	hs    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		cs: map[string]*Counter{},
		gs: map[string]*Gauge{},
		fs: map[string]*GaugeFunc{},
		hs: map[string]*Histogram{},
	}
}

// Default is the process-wide registry every instrumented layer registers
// into, and the one Handler / Mux expose.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.cs[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.cs[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gs[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gs[name] = g
	r.order = append(r.order, name)
	return g
}

// RegisterFunc registers (or replaces) a read-on-scrape metric.
func (r *Registry) RegisterFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.fs[name]; !ok {
		r.order = append(r.order, name)
	}
	r.fs[name] = &GaugeFunc{name: name, fn: fn}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hs[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hs[name] = h
	r.order = append(r.order, name)
	return h
}

// Value returns the current value of the named counter, gauge, or
// read-on-scrape metric; ok is false when no such scalar series exists
// (histograms are not scalars — use Histogram().Quantile).
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.Lock()
	c, cok := r.cs[name]
	g, gok := r.gs[name]
	f, fok := r.fs[name]
	r.mu.Unlock()
	switch {
	case cok:
		return float64(c.Value()), true
	case gok:
		return float64(g.Value()), true
	case fok:
		return f.Value(), true
	}
	return 0, false
}

// snapshot copies the series lists for export without holding the lock
// while values are read (GaugeFuncs may take other locks).  The maps are
// copied, not aliased: registration can race with a scrape (e.g. a layer
// registering its metrics after the -metrics server is already serving),
// and exporting from the live maps would be a concurrent map read/write.
func (r *Registry) snapshot() (order []string, cs map[string]*Counter, gs map[string]*Gauge, fs map[string]*GaugeFunc, hs map[string]*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	order = append([]string(nil), r.order...)
	cs = make(map[string]*Counter, len(r.cs))
	for k, v := range r.cs {
		cs[k] = v
	}
	gs = make(map[string]*Gauge, len(r.gs))
	for k, v := range r.gs {
		gs[k] = v
	}
	fs = make(map[string]*GaugeFunc, len(r.fs))
	for k, v := range r.fs {
		fs[k] = v
	}
	hs = make(map[string]*Histogram, len(r.hs))
	for k, v := range r.hs {
		hs[k] = v
	}
	return order, cs, gs, fs, hs
}

// C returns a counter in the Default registry — the shorthand every
// instrumented package uses for its package-level metric variables.
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge in the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram in the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }

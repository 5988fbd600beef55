package qcache

import "cssidx/internal/telemetry"

// Stats is a point-in-time snapshot of the cache counters.
//
// The counters live stripe-local: each stripe accumulates plain int64
// cells that are only ever touched under that stripe's mutex, so the hot
// path never bounces a shared counter cache line between stripes, and a
// snapshot that locks each stripe once (Cache.Stats) can never observe
// a torn update: every lookup settles its hit, hit kind, miss and deferral
// under one lock acquisition, and no event counter ever moves backwards.
type Stats struct {
	// Hits counts lookups answered from the cache.  The hit-kind
	// breakdown below splits out the reuse classes that answered without
	// an exact fingerprint match; exact hits are the remainder:
	// Hits − ContainedHits − SubsetHits − AggregateHits.
	Hits int64
	// ContainedHits were answered by slicing a single covering range run.
	ContainedHits int64
	// SubsetHits were IN-lists replayed from the groups of a cached list
	// that names every query value.
	SubsetHits int64
	// Retired: range stitching and IN superset fill are deleted, so these
	// four are always zero.  The fields stay only because the end-to-end
	// benchmark's report reads them.
	StitchedHits     int64
	GapProbes        int64
	SupersetHits     int64
	MissingKeyProbes int64
	// AggregateHits were GroupAggregate results served from cache.
	AggregateHits int64
	Misses        int64
	// Deferred counts the misses that were a question's first sight (door.go):
	// the caller was told not to stage or insert, so nothing reached
	// admission.  The other misses reach Insert* unless the query aborts or
	// never fills the cache (a count-only join).
	Deferred int64
	// Inserts counts admitted entries; Rejects counts results that reached
	// admission and failed it (below the cost floor, oversized, a straggler's
	// late result, or unevictable pressure).
	Inserts int64
	Rejects int64
	// Evictions counts CLOCK victims; Invalidations counts entries
	// removed because their token went stale (lazily at access, eagerly
	// by DropTable) or because a reader ahead of them could not carry them.
	Evictions     int64
	Invalidations int64
	// Patches counts entries carried at hit time: a lookup picked the
	// entry to answer from, the reader covered rows past the entry's mark,
	// and the entry was brought current — re-stamped untouched or extended
	// with the qualifying appended rows — instead of dropped.  An absorbed
	// append itself patches nothing.
	Patches int64
	// Entries and Bytes are the current residency.
	Entries int64
	Bytes   int64
}

// accumulate folds another snapshot (one stripe's cells) into s.
func (s *Stats) accumulate(o Stats) {
	s.Hits += o.Hits
	s.ContainedHits += o.ContainedHits
	s.SubsetHits += o.SubsetHits
	s.AggregateHits += o.AggregateHits
	s.Misses += o.Misses
	s.Deferred += o.Deferred
	s.Inserts += o.Inserts
	s.Rejects += o.Rejects
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
	s.Patches += o.Patches
	s.Entries += o.Entries
	s.Bytes += o.Bytes
}

// Stats returns a consistent snapshot of the counters: each stripe's
// cells are summed exactly once under that stripe's lock, so no in-flight
// update can be half-observed.  A nil or disabled cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	var s Stats
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		s.accumulate(st.stats)
		st.mu.Unlock()
	}
	return s
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// RegisterMetrics surfaces the cache's counters in a telemetry registry
// (nil means telemetry.Default) as read-on-scrape series: each scrape
// takes one consistent Stats snapshot per metric, so no hot-path
// double-bookkeeping is added.  Call once per cache; re-registering
// replaces the previous cache's series.
func (c *Cache) RegisterMetrics(r *telemetry.Registry) {
	if r == nil {
		r = telemetry.Default
	}
	reg := func(name string, field func(Stats) int64) {
		r.RegisterFunc(name, func() float64 { return float64(field(c.Stats())) })
	}
	reg("qcache_hits_total", func(s Stats) int64 { return s.Hits })
	reg("qcache_misses_total", func(s Stats) int64 { return s.Misses })
	reg("qcache_contained_hits_total", func(s Stats) int64 { return s.ContainedHits })
	reg("qcache_subset_hits_total", func(s Stats) int64 { return s.SubsetHits })
	reg("qcache_agg_hits_total", func(s Stats) int64 { return s.AggregateHits })
	reg("qcache_deferred_total", func(s Stats) int64 { return s.Deferred })
	reg("qcache_inserts_total", func(s Stats) int64 { return s.Inserts })
	reg("qcache_rejects_total", func(s Stats) int64 { return s.Rejects })
	reg("qcache_evictions_total", func(s Stats) int64 { return s.Evictions })
	reg("qcache_invalidations_total", func(s Stats) int64 { return s.Invalidations })
	reg("qcache_patches_total", func(s Stats) int64 { return s.Patches })
	reg("qcache_entries", func(s Stats) int64 { return s.Entries })
	reg("qcache_bytes", func(s Stats) int64 { return s.Bytes })
	r.RegisterFunc("qcache_hit_rate", func() float64 { return c.Stats().HitRate() })
	r.RegisterFunc("qcache_budget_bytes", func() float64 {
		if !c.Enabled() {
			return 0
		}
		return float64(c.opts.MaxBytes)
	})
	r.RegisterFunc("qcache_budget_pressure", func() float64 {
		if !c.Enabled() || c.opts.MaxBytes == 0 {
			return 0
		}
		return float64(c.Stats().Bytes) / float64(c.opts.MaxBytes)
	})
}

package bench

// Governance experiment (extension beyond the paper):
//
// runGovernor proves the query-governance cost contract: the same mmdb
// workload measured three ways per surface —
//
//	legacy      the plain surfaces — each is its *Ctx form called with
//	            a background context and no trace, so this leg and
//	            the next run one code path and pin each other
//	background  the *Ctx surfaces under context.Background(): the
//	            governor handle resolves to nil and every checkpoint
//	            is a pointer test — the committed BENCH_governor.json
//	            pins this leg within 2% of legacy
//	governed    the *Ctx surfaces under a live (never-tripping) budget
//	            and deadline with the admission controller attached:
//	            what a fully governed query actually pays
//
// The result cache stays off so the legs time execution, not cache hits.

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"cssidx"
	"cssidx/internal/governor"
	"cssidx/internal/mmdb"
	"cssidx/internal/workload"
)

func runGovernor(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	g := workload.New(cfg.Seed)
	n := 2_000_000
	iters := 2048
	if cfg.Quick {
		n = 100_000
		iters = 256
	}
	keys := g.SortedWithDuplicates(n, 2)
	groups := make([]uint32, len(keys))
	for i, k := range keys {
		groups[i] = k % 64
	}
	tab := mmdb.NewTable("bench")
	if err := tab.AddColumn("k", keys); err != nil {
		return err
	}
	if err := tab.AddColumn("g", groups); err != nil {
		return err
	}
	if _, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		return err
	}
	// Ungoverned queries pass admission for free, so attaching the
	// controller up front leaves the legacy and background legs untouched.
	tab.EnableGovernor(governor.Options{MaxConcurrent: 8, MaxQueue: 8, MaxBytesInFlight: 1 << 30})

	points := g.Lookups(keys, iters)
	inPts := g.Lookups(keys, iters*8) // 8-value IN lists, iters of them
	// Narrow ranges (~n/8192 rows each): the legs differ only in per-query
	// plumbing, so small results keep the measurement on the plumbing
	// instead of bulk rid materialisation, which is identical code.
	width := keys[len(keys)-1] / 8192
	aggIters := 8 // aggregates sweep the whole table; a few suffice
	if cfg.Quick {
		aggIters = 4
	}

	surfaces := []struct {
		name  string
		count int // queries per leg run
		run   func(ctx context.Context) error
	}{
		{"range", iters, func(ctx context.Context) error {
			for _, p := range points {
				var err error
				if ctx == nil {
					_, _, err = tab.SelectRange("k", p, p+width)
				} else {
					_, _, err = tab.SelectRangeCtx(ctx, "k", p, p+width, nil)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"in", iters, func(ctx context.Context) error {
			for i := 0; i+8 <= len(inPts); i += 8 {
				vals := inPts[i : i+8]
				var err error
				if ctx == nil {
					_, _, err = tab.SelectIn("k", vals)
				} else {
					_, _, err = tab.SelectInCtx(ctx, "k", vals, nil)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"agg", aggIters, func(ctx context.Context) error {
			for i := 0; i < aggIters; i++ {
				var err error
				if ctx == nil {
					_, err = mmdb.GroupAggregate(tab, "g", "k", nil)
				} else {
					_, err = mmdb.GroupAggregateCtx(ctx, tab, "g", "k", nil, nil)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}},
	}

	// governedCtx builds the live-governance context: a deadline and
	// budget far too generous to trip, so the legs time the plumbing,
	// never an abort.
	governedCtx := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		return governor.WithBudget(ctx, 1<<40), cancel
	}

	fmt.Fprintf(w, "governance overhead: mmdb workload over n=%d rows (range/in %d queries, agg %d), min of %d\n\n",
		n, iters, aggIters, cfg.Repeats)
	t := newTable(w)
	t.row("surface", "legacy q/s", "background q/s", "governed q/s", "bg overhead", "gov overhead")
	for _, s := range surfaces {
		legs := []struct {
			name string
			run  func() error
		}{
			{"legacy", func() error { return s.run(nil) }},
			{"background", func() error { return s.run(context.Background()) }},
			{"governed", func() error {
				ctx, cancel := governedCtx()
				defer cancel()
				return s.run(ctx)
			}},
		}
		// Interleave the legs repeat-by-repeat (the telemetry experiment's
		// protocol) so frequency drift and cache warmth hit all three
		// equally, then take each leg's minimum.
		best := make([]float64, len(legs))
		for i := range best {
			best[i] = math.Inf(1)
		}
		for _, l := range legs { // warmup
			if err := l.run(); err != nil {
				return fmt.Errorf("governor %s %s: %w", s.name, l.name, err)
			}
		}
		for r := 0; r < cfg.Repeats; r++ {
			for i, l := range legs {
				// A collection boundary before each timed run keeps one
				// leg's garbage from billing the next leg's clock —
				// single-core runs showed 2× swings without it.
				runtime.GC()
				start := time.Now()
				if err := l.run(); err != nil {
					return fmt.Errorf("governor %s %s: %w", s.name, l.name, err)
				}
				if sec := time.Since(start).Seconds(); sec < best[i] {
					best[i] = sec
				}
			}
		}
		qps := func(sec float64) float64 { return float64(s.count) / sec }
		bgOver := (best[1]/best[0] - 1) * 100
		govOver := (best[2]/best[0] - 1) * 100
		t.row(s.name,
			fmt.Sprintf("%.0f", qps(best[0])),
			fmt.Sprintf("%.0f", qps(best[1])),
			fmt.Sprintf("%.0f", qps(best[2])),
			fmt.Sprintf("%+.2f%%", bgOver),
			fmt.Sprintf("%+.2f%%", govOver))
		for i, l := range legs {
			cfg.record(Record{Experiment: "governor",
				Params: map[string]any{"surface": s.name, "n": n, "leg": l.name},
				Metric: "throughput", Value: qps(best[i]), Unit: "queries/s"})
		}
		cfg.record(Record{Experiment: "governor",
			Params: map[string]any{"surface": s.name, "n": n, "leg": "background"},
			Metric: "overhead", Value: bgOver, Unit: "pct"})
		cfg.record(Record{Experiment: "governor",
			Params: map[string]any{"surface": s.name, "n": n, "leg": "governed"},
			Metric: "overhead", Value: govOver, Unit: "pct"})
	}
	t.flush()
	fmt.Fprintln(w, "\ncontract: the background leg — Ctx surfaces, no governance attached — stays")
	fmt.Fprintln(w, "within noise of legacy (≤2% pinned in BENCH_governor.json); governed pays the")
	fmt.Fprintln(w, "admission gate and budget checkpoints, the price of an interruptible query")
	return nil
}

package bench

// runReuse is the semantic result-cache experiment (an extension beyond
// the paper, following "Revisiting Reuse in Main Memory Database Systems"
// and "Don't Trash your Intermediate Results, Cache 'em"): decision-support
// traffic repeats itself, so a stream of multi-predicate selections drawn
// from a fixed template pool is replayed against the mmdb layer with the
// qcache result cache on and off, sweeping the pool skew (uniform vs Zipf
// θ=0.9 vs θ=1.2), the append rate (0 vs 8 invalidating AppendRows batches
// spread through the stream), and the cache byte budget (roomy vs tight
// enough that CLOCK must choose).  Appends are excluded from the timing on
// both sides; they cost the same either way and the question is the query
// stream.
//
// The shape target — and the PR's acceptance bar: on a repeated Zipf
// θ≥0.9 stream with no appends, cache-on is ≥5× cache-off (a hit is one
// fingerprint lookup and a small copy; a miss is two index probes, two RID
// materialisations, two radix sorts and a merge intersection).  Nothing is
// cached at first sight, so every template is computed twice before it is
// served: on ≈25 asks per template that is the stream's hit-rate ceiling.
// Appends drop the hit rate (every batch moves the generation token, though
// a known question is re-admitted by its first miss after the fold) but the
// cached side must stay ahead; the tight budget shows skew structure — the
// hotter the pool, the more of the traffic CLOCK keeps resident.
//
// A second block measures the recycler on streams that overlap rather than
// repeat: a shifting range window (every query a new fingerprint that no
// single cached run covers, so every query is a first-sight miss that runs
// exactly as with caching off — the stream prices what the cache costs when
// it cannot help: a lookup and a tag per query), IN-list subsets replayed
// from a cached superset, a repeated GroupAggregate that is carried across
// absorbed appends, and a scan: a small hot set of ranges drawn Zipf under
// nine one-off ranges for every hot one.  The two streams that measure
// *reuse* ask their sources twice in an untimed warm-up (on both sides), so
// they keep measuring replay and not admission.
// These streams interleave absorbed AppendRows batches and time them IN
// the stream: an absorb costs the cache nothing, the cached side pays to
// bring an entry current only when it next answers from it, and the
// uncached side pays nothing but the read-time weave.  Bar: group-agg
// ≥5×.  shift, in-subset and scan carry no bar: shift is all first-sight
// misses by construction, against cheap indexed point probes a replay plus
// the refresh is about break-even, and scan's ceiling is its hot share; the
// records say so.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"cssidx"
	"cssidx/internal/mmdb"
	"cssidx/internal/qcache"
	"cssidx/internal/workload"
)

// reuseDists are the template-pool skews; theta 0 draws uniformly.
var reuseDists = []struct {
	name  string
	theta float64
}{
	{"uniform", 0},
	{"zipf θ=0.9", 0.9},
	{"zipf θ=1.2", 1.2},
}

// powerLawPicks draws q template indices in [0, p) from a power law with
// exponent theta (theta 0 = uniform), via an inverse-CDF table over
// uniform draws from g — exact for every theta, unlike rand.Zipf which
// needs s > 1.  Hot ranks are shuffled across the pool so "hot" does not
// mean "numerically first".
func powerLawPicks(g *workload.Gen, p, q int, theta float64) []int {
	cum := make([]float64, p)
	total := 0.0
	for i := 0; i < p; i++ {
		total += math.Pow(float64(i+1), -theta)
		cum[i] = total
	}
	perm := make([]uint32, p)
	for i := range perm {
		perm[i] = uint32(i)
	}
	perm = g.Shuffled(perm)
	// Uniform draws: sample members of an identity slice.
	const res = 1 << 16
	ids := make([]uint32, res)
	for i := range ids {
		ids[i] = uint32(i)
	}
	draws := g.Lookups(ids, q)
	picks := make([]int, q)
	for i, d := range draws {
		u := (float64(d) + 0.5) / res * total
		rank := sort.SearchFloat64s(cum, u)
		if rank >= p {
			rank = p - 1
		}
		picks[i] = int(perm[rank])
	}
	return picks
}

// satAdd is a saturating uint32 add for template upper bounds.
func satAdd(v, w uint32) uint32 {
	if v > math.MaxUint32-w {
		return math.MaxUint32
	}
	return v + w
}

func runReuse(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	g := workload.New(cfg.Seed)
	n := 1_000_000
	pool := 200
	if cfg.Quick {
		n = 100_000
		pool = 50
	}
	queries := cfg.Lookups / 20
	if queries < 4*pool {
		queries = 4 * pool
	}
	const appendBatches = 8
	// ~0.5% selectivity per conjunct: misses do real extraction work while
	// one conjunct run stays a few tens of KB in the cache.
	width := uint32(workload.MaxKey / 200)

	// Two independent predicate columns, values in random row order.
	aVals := g.Shuffled(g.SortedUniform(n))
	bVals := g.Shuffled(g.SortedUniform(n))
	type template struct{ preds []mmdb.RangePred }
	templates := make([]template, pool)
	aLos := g.Lookups(aVals, pool)
	bLos := g.Lookups(bVals, pool)
	for i := range templates {
		templates[i] = template{preds: []mmdb.RangePred{
			{Col: "a", Lo: aLos[i], Hi: satAdd(aLos[i], width)},
			{Col: "b", Lo: bLos[i], Hi: satAdd(bLos[i], width)},
		}}
	}
	// Identical invalidating batches for the cached and uncached sides.
	batches := make([]map[string][]uint32, appendBatches)
	for i := range batches {
		batches[i] = map[string][]uint32{
			"a": g.Lookups(aVals, 500),
			"b": g.Lookups(bVals, 500),
		}
	}

	build := func(opts mmdb.CacheOptions) (*mmdb.Table, error) {
		tab := mmdb.NewTable("fact")
		if err := tab.AddColumn("a", aVals); err != nil {
			return nil, err
		}
		if err := tab.AddColumn("b", bVals); err != nil {
			return nil, err
		}
		if _, err := tab.BuildIndex("a", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
			return nil, err
		}
		if _, err := tab.BuildIndex("b", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
			return nil, err
		}
		tab.EnableCache(opts)
		return tab, nil
	}

	// runStream replays the picks, appending a batch every appendEvery
	// queries (0 = never); only query time is accumulated.
	runStream := func(tab *mmdb.Table, picks []int, appends int) (float64, error) {
		appendEvery := 0
		if appends > 0 {
			appendEvery = len(picks) / (appends + 1)
		}
		total := 0.0
		nextBatch := 0
		start := time.Now()
		for qi, pick := range picks {
			if appendEvery > 0 && qi > 0 && qi%appendEvery == 0 && nextBatch < appends {
				total += time.Since(start).Seconds()
				if err := tab.AppendRows(batches[nextBatch]); err != nil {
					return 0, err
				}
				nextBatch++
				start = time.Now()
			}
			rids, _, err := tab.SelectWhere(templates[pick].preds)
			if err != nil {
				return 0, err
			}
			Sink += len(rids)
		}
		total += time.Since(start).Seconds()
		return total, nil
	}

	type cell struct {
		budget string
		opts   mmdb.CacheOptions
		apps   int
	}
	cells := []cell{
		{"off", mmdb.CacheOptions{Disabled: true}, 0},
		{"64MB", mmdb.CacheOptions{}, 0},
		{"4MB", mmdb.CacheOptions{MaxBytes: 4 << 20}, 0},
		{"off", mmdb.CacheOptions{Disabled: true}, appendBatches},
		{"64MB", mmdb.CacheOptions{}, appendBatches},
	}

	fmt.Fprintf(w, "result-cache reuse: %d queries over a pool of %d 2-predicate templates, n=%d rows\n", queries, pool, n)
	fmt.Fprintf(w, "appends = AppendRows batches (500 rows) spread through the stream, each moving the\n")
	fmt.Fprintf(w, "generation token (full invalidation); append time excluded on both sides\n\n")
	t := newTable(w)
	t.row("workload", "appends", "cache", "qps", "hit rate", "vs off")
	for _, d := range reuseDists {
		picks := powerLawPicks(g, pool, queries, d.theta)
		baseline := map[int]float64{} // appends -> cache-off seconds
		for _, c := range cells {
			tab, err := build(c.opts)
			if err != nil {
				return err
			}
			before := tab.CacheStats()
			sec, err := runStream(tab, picks, c.apps)
			if err != nil {
				return err
			}
			after := tab.CacheStats()
			qps := float64(queries) / sec
			if c.budget == "off" {
				baseline[c.apps] = sec
			}
			hits := after.Hits - before.Hits
			misses := after.Misses - before.Misses
			hitRate := 0.0
			if hits+misses > 0 {
				hitRate = float64(hits) / float64(hits+misses)
			}
			hitCell, speedCell := "-", "1.00x"
			speedup := 1.0
			if c.budget != "off" {
				hitCell = fmt.Sprintf("%.0f%%", 100*hitRate)
				speedup = baseline[c.apps] / sec
				speedCell = fmt.Sprintf("%.2fx", speedup)
			}
			t.row(d.name, fmt.Sprintf("%d", c.apps), c.budget,
				fmt.Sprintf("%.0f", qps), hitCell, speedCell)
			rec := Record{
				Experiment: "reuse",
				Params: map[string]any{
					"workload": d.name, "appends": c.apps, "cache": c.budget,
					"n": n, "pool": pool, "queries": queries,
				},
				Metric: "throughput", Value: qps, Unit: "queries/s",
			}
			cfg.record(rec)
			if c.budget != "off" {
				cfg.record(Record{Experiment: "reuse", Params: rec.Params, Metric: "hit_rate", Value: hitRate})
				cfg.record(Record{Experiment: "reuse", Params: rec.Params, Metric: "speedup", Value: speedup, Unit: "x"})
			}
		}
	}
	t.flush()
	fmt.Fprintln(w, "\nshape target: with no appends every template is computed twice (nothing is cached")
	fmt.Fprintln(w, "at first sight) and hits from then on, and the cached stream")
	fmt.Fprintln(w, "runs ≥5× the uncached one on the Zipf pools (the acceptance bar); the tight budget")
	fmt.Fprintln(w, "holds that hit rate because CLOCK sheds the bulky per-conjunct runs and keeps the")
	fmt.Fprintln(w, "tiny full-query results (benefit per byte); appends cut the hit rate — every batch")
	fmt.Fprintln(w, "moves the generation token — with recovery tracking the skew (hotter pools rewarm")
	fmt.Fprintln(w, "faster), and the cache must stay ahead of off throughout")

	return runRecycler(cfg, w, g, n, aVals, bVals)
}

// runRecycler is the intermediate-reuse block of the reuse experiment:
// streams where no (or almost no) query repeats a fingerprint exactly, so
// exact-match caching is useless and the recycler classes — IN-subset replay,
// GroupAggregate patching — carry the reuse; the shift stream has no single
// entry that answers a query and measures the miss path, and the scan stream
// hides a small hot set under one-off ranges.  Appends are
// absorbed (never folded) and their time is INCLUDED in the stream timing:
// what the cached side pays to bring the entries it reuses current after
// an absorb against what the reuse saves is the comparison being made.
func runRecycler(cfg Config, w io.Writer, g *workload.Gen, n int, aVals, bVals []uint32) error {
	// Group column over a small domain plus a free-range measure column.
	gdom := make([]uint32, 256)
	for i := range gdom {
		gdom[i] = uint32(i)
	}
	gVals := g.Lookups(gdom, n)
	mVals := g.Shuffled(g.SortedUniform(n))

	shiftQ, insubQ, aggQ, scanQ := 384, 256, 48, 2048
	if cfg.Quick {
		shiftQ, insubQ, aggQ, scanQ = 128, 96, 16, 512
	}
	// ~0.2% selectivity window marching by an eighth of its width: 7/8 of
	// every query is the previous query, yet no cached run covers it.
	width := uint32(workload.MaxKey / 500)
	step := width / 8

	// Identical absorbed batches for both sides of every stream.
	const streamBatch = 500
	sbatches := make([]map[string][]uint32, 16)
	for i := range sbatches {
		sbatches[i] = map[string][]uint32{
			"a": g.Lookups(aVals, streamBatch),
			"b": g.Lookups(bVals, streamBatch),
			"g": g.Lookups(gdom, streamBatch),
			"m": g.Lookups(mVals, streamBatch),
		}
	}

	// Parent IN-lists; the stream replays rotating ~60% windows of them.
	// Lists are a couple of hundred keys — the break-even needs the replayed
	// probes to be worth skipping, and WorkersFor must stay 1 so the compute
	// path admits grouped entries.
	const parents, parentLen = 8, 200
	parentVals := g.Lookups(bVals, parents*parentLen)

	build := func(opts mmdb.CacheOptions) (*mmdb.Table, error) {
		tab := mmdb.NewTable("stream")
		cols := []struct {
			name string
			vals []uint32
		}{{"a", aVals}, {"b", bVals}, {"g", gVals}, {"m", mVals}}
		for _, c := range cols {
			if err := tab.AddColumn(c.name, c.vals); err != nil {
				return nil, err
			}
		}
		for _, col := range []string{"a", "b"} {
			if _, err := tab.BuildIndex(col, cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
				return nil, err
			}
		}
		// Absorb every batch into the delta layer; a fold would drop the
		// cache and rebuild the base, which is a different experiment
		// (ingest).
		tab.SetAppendPolicy(mmdb.AppendPolicy{MinFoldRows: 1 << 30})
		tab.EnableCache(opts)
		return tab, nil
	}

	// absorb lands batch number k (0-based) into the table.
	absorb := func(tab *mmdb.Table, k int) error {
		return tab.AppendRows(sbatches[k%len(sbatches)])
	}

	runShift := func(tab *mmdb.Table) error {
		lo := uint32(0)
		for qi := 0; qi < shiftQ; qi++ {
			if qi > 0 && qi%8 == 0 {
				if err := absorb(tab, qi/8-1); err != nil {
					return err
				}
			}
			rids, _, err := tab.SelectRange("a", lo, satAdd(lo, width))
			if err != nil {
				return err
			}
			Sink += len(rids)
			lo += step
			if lo > workload.MaxKey-width {
				lo = 0
			}
		}
		return nil
	}

	// The parents are the replay's sources: asked twice they are resident.
	warmInsub := func(tab *mmdb.Table) error {
		for i := 0; i < 2*parents; i++ {
			p := i % parents
			if _, _, err := tab.SelectIn("b", parentVals[p*parentLen:(p+1)*parentLen]); err != nil {
				return err
			}
		}
		return nil
	}

	runInsub := func(tab *mmdb.Table) error {
		for qi := 0; qi < insubQ; qi++ {
			if qi > 0 && qi%32 == 0 {
				if err := absorb(tab, qi/32-1); err != nil {
					return err
				}
			}
			p := qi % parents
			list := parentVals[p*parentLen : (p+1)*parentLen]
			if qi >= parents {
				// Subset replay: a rotating window over the parent list.
				k := parentLen * 3 / 5
				start := (qi * 7) % (parentLen - k)
				list = list[start : start+k]
			}
			rids, _, err := tab.SelectIn("b", list)
			if err != nil {
				return err
			}
			Sink += len(rids)
		}
		return nil
	}

	warmAgg := func(tab *mmdb.Table) error {
		for i := 0; i < 2; i++ {
			if _, err := mmdb.GroupAggregate(tab, "g", "m", nil); err != nil {
				return err
			}
		}
		return nil
	}

	runAgg := func(tab *mmdb.Table) error {
		for qi := 0; qi < aggQ; qi++ {
			if qi > 0 && qi%8 == 0 {
				if err := absorb(tab, qi/8-1); err != nil {
					return err
				}
			}
			rows, err := mmdb.GroupAggregate(tab, "g", "m", nil)
			if err != nil {
				return err
			}
			Sink += len(rows)
		}
		return nil
	}

	// scan: one query in ten draws Zipf from a hot set of 32 ranges; the other
	// nine are ranges nobody asks for again, each at its own low bound.
	const hotSet = 32
	hotLos := g.Lookups(aVals, hotSet)
	hotPicks := powerLawPicks(g, hotSet, scanQ/10+1, 1.2)
	oneOffStep := uint32(workload.MaxKey / uint32(scanQ))
	runScan := func(tab *mmdb.Table) error {
		for qi := 0; qi < scanQ; qi++ {
			if qi > 0 && qi%256 == 0 {
				if err := absorb(tab, qi/256-1); err != nil {
					return err
				}
			}
			lo := uint32(qi) * oneOffStep
			if qi%10 == 0 {
				lo = hotLos[hotPicks[qi/10]]
			}
			rids, _, err := tab.SelectRange("a", lo, satAdd(lo, width))
			if err != nil {
				return err
			}
			Sink += len(rids)
		}
		return nil
	}

	streams := []struct {
		name    string
		bar     string
		queries int
		warm    func(*mmdb.Table) error // untimed, both sides; nil = none
		run     func(*mmdb.Table) error
	}{
		{"shift", "-", shiftQ, nil, runShift},
		{"in-subset", "-", insubQ, warmInsub, runInsub},
		{"group-agg", "≥5x", aggQ, warmAgg, runAgg},
		{"scan", "-", scanQ, nil, runScan},
	}

	fmt.Fprintf(w, "\nrecycler streams: overlapping (not repeating) work under absorbed appends,\n")
	fmt.Fprintf(w, "append time included in the stream on both sides; in-subset and group-agg ask\n")
	fmt.Fprintf(w, "their sources twice in an untimed warm-up (nothing is cached at first sight)\n\n")
	t := newTable(w)
	t.row("stream", "queries", "cache", "secs", "qps", "reuse hits", "vs off", "bar")
	kinds := map[string]any{}
	for _, st := range streams {
		var offSec float64
		// The cached side runs under a deliberately tight budget: the
		// marching window leaves superseded-by-nothing fragments behind it,
		// and CLOCK sheds them.
		for _, budget := range []string{"off", "2MB"} {
			opts := mmdb.CacheOptions{Disabled: true}
			if budget != "off" {
				opts = mmdb.CacheOptions{MaxBytes: 2 << 20}
			}
			// Streams are stateful (appends land in the table), so each
			// repeat replays against a fresh build; minimum reported, per the
			// paper's protocol.
			var sec float64
			var s qcache.Stats
			for r := 0; r < cfg.Repeats; r++ {
				tab, err := build(opts)
				if err != nil {
					return err
				}
				var warm qcache.Stats
				if st.warm != nil {
					if err := st.warm(tab); err != nil {
						return err
					}
					warm = tab.CacheStats()
				}
				start := time.Now()
				if err := st.run(tab); err != nil {
					return err
				}
				if el := time.Since(start).Seconds(); r == 0 || el < sec {
					sec = el
				}
				s = tab.CacheStats()
				s.Hits, s.Misses, s.Deferred, s.Inserts = s.Hits-warm.Hits, s.Misses-warm.Misses, s.Deferred-warm.Deferred, s.Inserts-warm.Inserts
			}
			qps := float64(st.queries) / sec
			reuseCell, speedCell, barCell := "-", "1.00x", "-"
			speedup := 1.0
			if budget == "off" {
				offSec = sec
			} else {
				speedup = offSec / sec
				speedCell = fmt.Sprintf("%.2fx", speedup)
				barCell = st.bar
				reuseCell = fmt.Sprintf("hit=%d cont=%d sub=%d agg=%d", s.Hits, s.ContainedHits, s.SubsetHits, s.AggregateHits)
				kinds[st.name] = map[string]int64{
					"hits": s.Hits, "contained_hits": s.ContainedHits, "subset_hits": s.SubsetHits,
					"aggregate_hits": s.AggregateHits, "misses": s.Misses, "deferred": s.Deferred,
					"inserts": s.Inserts, "patches": s.Patches,
				}
			}
			t.row(st.name, fmt.Sprintf("%d", st.queries), budget,
				secs(sec), fmt.Sprintf("%.0f", qps), reuseCell, speedCell, barCell)
			rec := Record{
				Experiment: "reuse",
				Params: map[string]any{
					"stream": st.name, "cache": budget, "queries": st.queries, "n": n,
				},
				Metric: "throughput", Value: qps, Unit: "queries/s",
			}
			cfg.record(rec)
			if budget != "off" {
				cfg.record(Record{Experiment: "reuse", Params: rec.Params, Metric: "speedup", Value: speedup, Unit: "x"})
			}
		}
	}
	t.flush()
	if cfg.Recorder != nil {
		cfg.Recorder.SetContext("reuse_hit_kinds", kinds)
	}
	fmt.Fprintln(w, "\nshape target: shift is overlapping windows without repeats — no single cached")
	fmt.Fprintln(w, "run covers a query, so every query is a first-sight miss that runs as it would")
	fmt.Fprintln(w, "with caching off and is not admitted; its ratio is what a cache that cannot help")
	fmt.Fprintln(w, "costs — a lookup and a tag per query (informational, no bar); in-subset replays")
	fmt.Fprintln(w, "cached superset groups and is informational too: against cheap indexed point")
	fmt.Fprintln(w, "probes replay is about break-even — its win needs expensive probes or")
	fmt.Fprintln(w, "scan-priced recomputes; group-agg never recomputes — the first hit after an")
	fmt.Fprintln(w, "absorb folds the appended (group, measure) pairs into the cached rows — ≥5× (the")
	fmt.Fprintln(w, "acceptance bar); scan serves its hot tenth from the cache once each hot range has")
	fmt.Fprintln(w, "missed twice, and its one-off nine tenths leave only tags (informational, no bar)")
	return nil
}

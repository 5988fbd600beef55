// Command cssx is an index explorer: it generates a data set, builds any of
// the paper's index structures over it, and reports the numbers the paper's
// analysis is about — structure space, levels, simulated cache misses per
// lookup on the paper's machines, and host lookup throughput.
//
// Usage:
//
//	cssx -kind levelcss -n 1000000
//	cssx -kind all -n 5000000 -node 64 -machine ultra
//	cssx -kind hash -n 1000000 -hashdir 262144 -dist skewed
//
// Batch lookup mode probes the built index with keys read from a file (or
// stdin with "-"), one decimal key per line, driving the batched lockstep
// descent in chunks of -batch and reporting per-batch timings:
//
//	cssx -kind levelcss -n 1000000 -probefile probes.txt -batch 512
//	generate-keys | cssx -probefile - -batch 64 -schedule sorted
//	cssx -probefile probes.txt -schedule auto   # resolves per batch; rows
//	                                            # show the schedule that ran
//
// With -cache, batch mode runs each probe batch as an mmdb IN-list
// selection through the epoch-aware result cache (internal/qcache) and
// dumps the cache counters at the end — a batch the probe file repeats is
// answered from the cache from its third appearance on (its first miss is
// deferred, its second admitted):
//
//	cssx -kind levelcss -n 1000000 -probefile probes.txt -cache
//
// With -wal, the key set is persisted through a write-ahead-logged table
// (internal/wal) before indexing; rerunning with the same directory
// recovers the keys from snapshot + log replay instead of regenerating:
//
//	cssx -kind levelcss -n 1000000 -wal /tmp/cssx-wal -fsync group
//
// Every mmdb-driving mode (-explain, -cache, the -wal append loop, and
// batch mode) runs under the resource-governance flags: -timeout DUR puts
// the whole run under a deadline, -mem-budget BYTES caps query result
// memory.  The query that trips a limit aborts with a typed error, and a
// governed -explain still prints the partial EXPLAIN ANALYZE tree
// annotated where execution stopped:
//
//	cssx -explain -timeout 200us
//	cssx -explain -mem-budget 4096
//
// Example output column meanings:
//
//	space      bytes the structure needs beyond the sorted key array
//	levels     node levels a lookup traverses (tree methods)
//	L1/L2      simulated misses per lookup on the chosen machine
//	est        modelled seconds per lookup on that machine (§5.1 cost model)
//	host       measured seconds per lookup on this machine
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"cssidx"
	"cssidx/internal/cachesim"
	"cssidx/internal/failfs"
	"cssidx/internal/governor"
	"cssidx/internal/mem"
	"cssidx/internal/mmdb"
	"cssidx/internal/shard"
	"cssidx/internal/simidx"
	"cssidx/internal/telemetry"
	"cssidx/internal/wal"
	"cssidx/internal/workload"
)

var kinds = map[string]cssidx.Kind{
	"binary":   cssidx.KindBinarySearch,
	"interp":   cssidx.KindInterpolation,
	"bst":      cssidx.KindBST,
	"ttree":    cssidx.KindTTree,
	"bptree":   cssidx.KindBPlusTree,
	"fullcss":  cssidx.KindFullCSS,
	"levelcss": cssidx.KindLevelCSS,
	"hash":     cssidx.KindHash,
}

// kindOrder fixes display order for -kind all.
var kindOrder = []string{"binary", "bst", "interp", "ttree", "bptree", "fullcss", "levelcss", "hash"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cssx", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind    = fs.String("kind", "levelcss", "index kind: "+strings.Join(kindOrder, ", ")+", or all")
		n       = fs.Int("n", 1_000_000, "number of keys")
		node    = fs.Int("node", cssidx.DefaultNodeBytes, "node size in bytes for tree methods")
		hashdir = fs.Int("hashdir", 0, "hash directory size (0 = auto)")
		dist    = fs.String("dist", "uniform", "key distribution: uniform, linear, skewed, dups")
		machine = fs.String("machine", "ultra", "simulated machine: ultra, pc, modern")
		lookups = fs.Int("lookups", 100_000, "lookups to simulate/measure")
		seed    = fs.Int64("seed", 1, "workload seed")

		probefile = fs.String("probefile", "", "batch mode: file of probe keys, one per line (\"-\" = stdin)")
		batchSize = fs.Int("batch", 512, "batch mode: probes per lockstep batch")
		schedule  = fs.String("schedule", "", "batch mode: probe schedule per batch: auto, input, sorted (default input; auto resolves per batch)")
		workers   = fs.Int("workers", 1, "batch mode: worker goroutines per batch (0 = GOMAXPROCS; needs an ordered method)")
		useCache  = fs.Bool("cache", false, "batch mode: run each batch as an mmdb IN-list selection through the result cache; dumps cache stats")

		walDir    = fs.String("wal", "", "durable mode: persist the key set through a WAL-backed table in this directory; a rerun recovers it (snapshot + log replay) instead of regenerating")
		fsyncMode = fs.String("fsync", "group", "with -wal: fsync policy: none (clean close only), group (2ms group commit), always (fsync per batch)")

		explain     = fs.Bool("explain", false, "run one query of every shape (point, range, IN, join, aggregate) twice through the mmdb planner and print the EXPLAIN ANALYZE traces")
		metricsAddr = fs.String("metrics", "", "serve /metrics (Prometheus text), /metrics.json and /debug/pprof on this address (e.g. :9090); enables telemetry collection")
		linger      = fs.Duration("linger", 0, "with -metrics: keep the endpoint serving this long after the workload finishes")

		timeout   = fs.Duration("timeout", 0, "abort the run's mmdb work (-explain, -cache, -wal appends, batch loops) after this long with a typed deadline error; 0 = no deadline")
		memBudget = fs.Int64("mem-budget", 0, "per-run byte budget for mmdb query results; the query that exceeds it aborts with a typed budget error (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The governance context every mmdb path runs under.  Without -timeout
	// or -mem-budget this stays context.Background(), which the governor
	// resolves to its nil zero-cost handle.
	qctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(qctx, *timeout)
		defer cancel()
	}
	if *memBudget > 0 {
		qctx = governor.WithBudget(qctx, *memBudget)
	}
	if *metricsAddr != "" {
		telemetry.Enable()
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(stderr, "cssx: metrics listener: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "metrics: serving on http://%s/metrics\n", ln.Addr())
		srv := &http.Server{Handler: telemetry.Default.Mux()}
		go srv.Serve(ln)
		defer srv.Close()
		if *linger > 0 {
			defer time.Sleep(*linger)
		}
	}

	g := workload.New(*seed)
	var keys []uint32
	switch *dist {
	case "uniform":
		keys = g.SortedUniform(*n)
	case "linear":
		keys = g.SortedLinear(*n)
	case "skewed":
		keys = g.SortedSkewed(*n)
	case "dups":
		keys = g.SortedWithDuplicates(*n, 4)
	default:
		fmt.Fprintf(stderr, "cssx: unknown distribution %q\n", *dist)
		return 2
	}
	if *walDir != "" {
		var rc int
		keys, rc = durableKeys(qctx, stdout, stderr, *walDir, *fsyncMode, keys)
		if rc != 0 {
			return rc
		}
	}
	if *explain {
		return runExplain(qctx, stdout, stderr, *kind, keys, *node, *hashdir, *seed)
	}
	if *probefile != "" {
		if *kind == "all" {
			fmt.Fprintln(stderr, "cssx: batch mode needs a single -kind")
			return 2
		}
		if _, ok := kinds[*kind]; !ok {
			fmt.Fprintf(stderr, "cssx: unknown kind %q\n", *kind)
			return 2
		}
		if *useCache {
			if *schedule != "" || *workers != 1 {
				fmt.Fprintln(stderr, "cssx: -cache drives the mmdb selection path; -schedule/-workers do not apply")
				return 2
			}
			return runCachedBatchMode(qctx, stdout, stderr, *kind, keys, *node, *hashdir, *probefile, *batchSize)
		}
		return runBatchMode(qctx, stdout, stderr, *kind, keys, *node, *hashdir, *probefile, *batchSize, *schedule, *workers)
	}

	probes := g.Lookups(keys, *lookups)

	var mach *cachesim.Machine
	switch *machine {
	case "ultra":
		mach = cachesim.UltraSparcII()
	case "pc":
		mach = cachesim.PentiumII()
	case "modern":
		mach = cachesim.ModernServer()
	default:
		fmt.Fprintf(stderr, "cssx: unknown machine %q\n", *machine)
		return 2
	}

	var selected []string
	if *kind == "all" {
		selected = kindOrder
	} else {
		if _, ok := kinds[*kind]; !ok {
			fmt.Fprintf(stderr, "cssx: unknown kind %q\n", *kind)
			return 2
		}
		selected = []string{*kind}
	}

	dir := *hashdir
	if dir == 0 {
		dir = cssidx.DefaultHashDirSize(*n)
	}

	fmt.Fprintf(stdout, "n=%d dist=%s node=%dB lookups=%d machine=%s\n\n", *n, *dist, *node, *lookups, mach.Name)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\tspace\tL1 miss/lkp\tL2 miss/lkp\tcmp/lkp\test s/lkp\thost s/lkp")
	for _, name := range selected {
		sim := buildSim(name, keys, *node, dir)
		res := simidx.Run(sim, mach, probes)

		idx := cssidx.New(kinds[name], keys, cssidx.Options{NodeBytes: *node, HashDirSize: dir})
		host := measure(idx.Search, probes)

		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.1f\t%.2e\t%.2e\n",
			idx.Name(), mem.Bytes(int64(sim.SpaceBytes())),
			res.MissesPerLookup(0), res.MissesPerLookup(1),
			float64(res.Cmps)/float64(res.Lookups),
			res.SecondsPerLookup(), host)
	}
	tw.Flush()
	return 0
}

// runBatchMode probes the index with keys from a file (or stdin), driving
// the batched search surface in chunks — fanned across the parallel engine
// when -workers asks for it — and reporting per-batch timings.  Each batch
// row carries the schedule that batch ACTUALLY descended under: with
// -schedule auto the sampled duplicate-density estimate resolves per batch,
// and tagging the timing with the requested setting would misattribute the
// sort cost whenever auto flips between batches.
func runBatchMode(ctx context.Context, stdout, stderr io.Writer, kindName string, keys []uint32, nodeBytes, hashDir int, probefile string, batchSize int, scheduleName string, workers int) int {
	probes, err := readProbes(probefile)
	if err != nil {
		fmt.Fprintf(stderr, "cssx: %v\n", err)
		return 2
	}
	if len(probes) == 0 {
		fmt.Fprintln(stderr, "cssx: probe file holds no keys")
		return 2
	}
	if batchSize < 1 {
		fmt.Fprintf(stderr, "cssx: batch size %d must be ≥ 1\n", batchSize)
		return 2
	}
	// keyOrder resolves the requested schedule against one batch: auto asks
	// the sharded engine's sampler — the whole rule on the plain index,
	// which is one key range (only a multi-shard view sorts network-sized
	// batches outright) — the others answer the same every batch.
	var keyOrder func([]uint32) bool
	requested := scheduleName
	switch scheduleName {
	case "auto":
		keyOrder = shard.ChooseKeyOrder
	case "", "input":
		requested, keyOrder = "input-order", func([]uint32) bool { return false }
	case "sorted":
		keyOrder = func([]uint32) bool { return true }
	default:
		fmt.Fprintf(stderr, "cssx: unknown schedule %q (auto, input, sorted)\n", scheduleName)
		return 2
	}
	idx := cssidx.New(kinds[kindName], keys, cssidx.Options{NodeBytes: nodeBytes, HashDirSize: hashDir})
	parallel := workers != 1
	needSorted := requested != "input-order"
	var plain cssidx.BatchIndex
	var sorted *cssidx.SortedBatch
	switch {
	case needSorted || parallel:
		ord, ok := idx.(cssidx.OrderedIndex)
		if !ok {
			fmt.Fprintf(stderr, "cssx: -schedule/-workers need an ordered method, %s has none\n", idx.Name())
			return 2
		}
		b := cssidx.BatchOrderedIndex(cssidx.AsBatchOrdered(ord))
		if parallel {
			b = cssidx.NewParallel(ord, cssidx.ParallelOptions{Workers: workers})
		}
		plain = b
		if needSorted {
			// Sorting stays on the caller; the descent underneath fans out.
			sorted = cssidx.NewSortedBatch(b)
		}
	default:
		plain = cssidx.AsBatch(idx)
	}

	switch {
	case workers == 0:
		requested += ", GOMAXPROCS workers"
	case parallel:
		requested += fmt.Sprintf(", %d workers", workers)
	}
	fmt.Fprintf(stdout, "%s over n=%d keys: %d probes in batches of %d (%s schedule requested)\n\n",
		idx.Name(), len(keys), len(probes), batchSize, requested)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "batch\tkeys\tschedule\thits\tµs\tMkeys/s")
	out := make([]int32, batchSize)
	hits, total := 0, 0.0
	minB, maxB := 0.0, 0.0
	nSorted := 0
	for b, base := 0, 0; base < len(probes); b, base = b+1, base+batchSize {
		if err := ctx.Err(); err != nil {
			tw.Flush()
			fmt.Fprintf(stderr, "cssx: aborted after %d of %d batches: %v\n",
				b, (len(probes)+batchSize-1)/batchSize, err)
			return 1
		}
		end := base + batchSize
		if end > len(probes) {
			end = len(probes)
		}
		chunk := probes[base:end]
		resolved := "input-order"
		if keyOrder(chunk) {
			resolved = "sorted"
			nSorted++
		}
		start := time.Now()
		if resolved == "sorted" {
			sorted.SearchBatch(chunk, out[:len(chunk)])
		} else {
			plain.SearchBatch(chunk, out[:len(chunk)])
		}
		el := time.Since(start).Seconds()
		h := 0
		for _, r := range out[:len(chunk)] {
			if r >= 0 {
				h++
			}
		}
		hits += h
		total += el
		if b == 0 || el < minB {
			minB = el
		}
		if el > maxB {
			maxB = el
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%d\t%.1f\t%.2f\n", b, len(chunk), resolved, h, el*1e6, float64(len(chunk))/el/1e6)
	}
	tw.Flush()
	nBatches := (len(probes) + batchSize - 1) / batchSize
	fmt.Fprintf(stdout, "\ntotal: %d probes, %d hits, %.1fµs (%.2f Mkeys/s); per-batch min %.1fµs max %.1fµs over %d batches\n",
		len(probes), hits, total*1e6, float64(len(probes))/total/1e6, minB*1e6, maxB*1e6, nBatches)
	fmt.Fprintf(stdout, "resolved schedules: %d input-order, %d sorted\n", nBatches-nSorted, nSorted)
	return 0
}

// runCachedBatchMode drives the mmdb query layer instead of the bare
// index: the keys become a one-column table indexed with the chosen
// method, each probe batch runs as an IN-list selection (Table.SelectIn)
// through the epoch-aware result cache, and the cache counters are dumped
// at the end.  Repeated batches — the common shape of skewed probe files —
// are answered from the cache from their third appearance on (nothing is
// cached at first sight: a batch's first miss is deferred, its second
// admitted); the "rows" column counts matching RIDs.
func runCachedBatchMode(ctx context.Context, stdout, stderr io.Writer, kindName string, keys []uint32, nodeBytes, hashDir int, probefile string, batchSize int) int {
	probes, err := readProbes(probefile)
	if err != nil {
		fmt.Fprintf(stderr, "cssx: %v\n", err)
		return 2
	}
	if len(probes) == 0 {
		fmt.Fprintln(stderr, "cssx: probe file holds no keys")
		return 2
	}
	if batchSize < 1 {
		fmt.Fprintf(stderr, "cssx: batch size %d must be ≥ 1\n", batchSize)
		return 2
	}
	tab := mmdb.NewTable("cssx")
	if err := tab.AddColumn("k", keys); err != nil {
		fmt.Fprintf(stderr, "cssx: %v\n", err)
		return 2
	}
	if _, err := tab.BuildIndex("k", kinds[kindName], cssidx.Options{NodeBytes: nodeBytes, HashDirSize: hashDir}); err != nil {
		fmt.Fprintf(stderr, "cssx: %v\n", err)
		return 2
	}
	tab.EnableCache(mmdb.CacheOptions{}).RegisterMetrics(telemetry.Default)

	fmt.Fprintf(stdout, "mmdb IN-list selections over n=%d keys (%s index, result cache on): %d probes in batches of %d\n\n",
		len(keys), kindName, len(probes), batchSize)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "batch\tkeys\trows\tµs\tMkeys/s")
	rows, total := 0, 0.0
	for b, base := 0, 0; base < len(probes); b, base = b+1, base+batchSize {
		end := base + batchSize
		if end > len(probes) {
			end = len(probes)
		}
		chunk := probes[base:end]
		start := time.Now()
		rids, _, err := tab.SelectInCtx(ctx, "k", chunk, nil)
		el := time.Since(start).Seconds()
		if err != nil {
			tw.Flush()
			if governor.IsAbort(err) {
				fmt.Fprintf(stderr, "cssx: aborted after %d of %d batches: %v\n",
					b, (len(probes)+batchSize-1)/batchSize, err)
			} else {
				fmt.Fprintf(stderr, "cssx: %v\n", err)
			}
			return 1
		}
		rows += len(rids)
		total += el
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.2f\n", b, len(chunk), len(rids), el*1e6, float64(len(chunk))/el/1e6)
	}
	tw.Flush()
	// The dump reads the registry — the same read-on-scrape series /metrics
	// exposes — rather than a second private stats path.
	val := func(name string) int64 {
		v, _ := telemetry.Default.Value(name)
		return int64(v)
	}
	hitRate, _ := telemetry.Default.Value("qcache_hit_rate")
	fmt.Fprintf(stdout, "\ntotal: %d probes, %d matching rows, %.1fµs (%.2f Mkeys/s)\n",
		len(probes), rows, total*1e6, float64(len(probes))/total/1e6)
	fmt.Fprintf(stdout, "cache: %d hits (%d contained) / %d misses (%.0f%% hit rate), %d deferred at first sight, %d inserts, %d rejects, %d evictions, %d invalidations, %d entries, %d bytes\n",
		val("qcache_hits_total"), val("qcache_contained_hits_total"), val("qcache_misses_total"), 100*hitRate,
		val("qcache_deferred_total"), val("qcache_inserts_total"), val("qcache_rejects_total"), val("qcache_evictions_total"),
		val("qcache_invalidations_total"), val("qcache_entries"), val("qcache_bytes"))
	fmt.Fprintf(stdout, "reuse: %d in-subset, %d aggregate, %d patched entries\n",
		val("qcache_subset_hits_total"), val("qcache_agg_hits_total"), val("qcache_patches_total"))
	return 0
}

// durableKeys persists or recovers the key set through a WAL-backed mmdb
// table (internal/wal via mmdb.OpenDurable).  An empty directory gets the
// generated keys appended in logged batches; a populated one hands back the
// keys recovered from snapshot + log replay — rerunning the same command
// after a crash (or plain exit) serves the exact key set the first run
// acknowledged, which is the durability guarantee the README documents.
// Returns the keys to index and a non-zero exit code on failure.  A
// -timeout deadline governs the append loop: a cancelled batch either
// never reached the log or is fully durable, never torn.
func durableKeys(ctx context.Context, stdout, stderr io.Writer, dir, fsyncMode string, generated []uint32) ([]uint32, int) {
	var pol wal.Policy
	switch fsyncMode {
	case "none":
		pol = wal.None()
	case "group":
		pol = wal.GroupCommit(2 * time.Millisecond)
	case "always":
		pol = wal.Always()
	default:
		fmt.Fprintf(stderr, "cssx: unknown fsync policy %q (none, group, always)\n", fsyncMode)
		return nil, 2
	}
	d, err := mmdb.OpenDurable(failfs.OS, dir, "cssx", pol)
	if err != nil {
		fmt.Fprintf(stderr, "cssx: opening durable table: %v\n", err)
		return nil, 1
	}
	keys := generated
	if d.Rows() == 0 {
		start := time.Now()
		const chunk = 4096
		for base := 0; base < len(keys); base += chunk {
			end := min(base+chunk, len(keys))
			if err := d.AppendRowsCtx(ctx, map[string][]uint32{"k": keys[base:end]}); err != nil {
				if governor.IsAbort(err) {
					fmt.Fprintf(stderr, "cssx: aborted logging keys after %d of %d (%d durable): %v\n",
						base, len(keys), d.Rows(), err)
				} else {
					fmt.Fprintf(stderr, "cssx: logging keys: %v\n", err)
				}
				return nil, 1
			}
		}
		if err := d.SyncWAL(); err != nil {
			fmt.Fprintf(stderr, "cssx: syncing wal: %v\n", err)
			return nil, 1
		}
		fmt.Fprintf(stdout, "wal: logged %d keys to %s (%s fsync, %d log bytes, seq %d) in %.1fms\n\n",
			len(keys), dir, fsyncMode, d.LogSize(), d.LastSeq(), time.Since(start).Seconds()*1e3)
	} else {
		// Recovered rows win over the regenerated set: they are what the
		// first run acknowledged.  Appends preserved order, so the column
		// is still the sorted array the index builders need.
		col, _ := d.Column("k")
		keys = make([]uint32, d.Rows())
		for i := range keys {
			keys[i] = col.Value(i)
		}
		fmt.Fprintf(stdout, "wal: recovered %d keys from %s (snapshot + %d log bytes, seq %d)\n\n",
			len(keys), dir, d.LogSize(), d.LastSeq())
	}
	if err := d.Close(); err != nil {
		fmt.Fprintf(stderr, "cssx: closing durable table: %v\n", err)
		return nil, 1
	}
	return keys, 0
}

// readProbes parses one decimal uint32 key per line; "-" reads stdin.
func readProbes(path string) ([]uint32, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var probes []uint32
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("probe file line %d: %q is not a uint32 key", line, s)
		}
		probes = append(probes, uint32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return probes, nil
}

// buildSim constructs the simulated index for a kind name.
func buildSim(name string, keys []uint32, nodeBytes, hashDir int) simidx.Sim {
	alloc := cachesim.NewAddrAlloc()
	slots := nodeBytes / 4
	switch name {
	case "binary":
		return simidx.NewBinarySearch(keys, alloc)
	case "interp":
		return simidx.NewInterpolationSearch(keys, alloc)
	case "bst":
		return simidx.NewBST(keys, alloc)
	case "ttree":
		cap := (nodeBytes - 8) / 8
		if cap < 2 {
			cap = 2
		}
		return simidx.NewTTree(keys, cap, alloc)
	case "bptree":
		if slots%2 == 1 {
			slots++
		}
		return simidx.NewBPlusTree(keys, slots, alloc)
	case "fullcss":
		return simidx.NewFullCSS(keys, slots, alloc)
	case "levelcss":
		return simidx.NewLevelCSS(keys, mem.NextPow2(slots), alloc)
	case "hash":
		return simidx.NewHash(keys, hashDir, mem.CacheLine, alloc)
	default:
		panic("unreachable")
	}
}

var sink int

// measure returns host seconds per lookup (single pass; cssbench does the
// full min-of-N protocol).
func measure(search func(uint32) int, probes []uint32) float64 {
	if len(probes) == 0 {
		return 0
	}
	start := nowSeconds()
	s := 0
	for _, k := range probes {
		s += search(k)
	}
	sink += s
	return (nowSeconds() - start) / float64(len(probes))
}

// nowSeconds is time.Now in seconds, isolated for readability above.
func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

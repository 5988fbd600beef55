package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"cssidx"
	"cssidx/internal/failfs"
	"cssidx/internal/mmdb"
	"cssidx/internal/qcache"
	"cssidx/internal/wal"
)

// ingest_durable writes beside reads: small durable appends onto a
// checkpointed base, each followed by a few queries, with periodic
// checkpoints; then the store is closed without a final checkpoint, reopened
// and verified.  wal, the mmdb delta layer, folds (sortu32, domain, tree
// rebuild), checkpoints and the cache's PatchAppend do the work.  A read-side
// gain bought with write cost, fold stalls, log volume or recovery time shows
// here.

const (
	ingestBaseRows    = 524_288
	ingestBatchRows   = 256
	ingestCategories  = 1_024 // distinct values of column c
	ingestRangePool   = 32    // repeating range templates (the cache patches these across appends)
	ingestInValues    = 16
	ingestCheckpoints = 5
	// Reads per append: a fresh range, a template range, two IN-lists and a
	// point probe.  Two IN-lists, not one: with four equally frequent classes
	// the median read sat at the top of the IN-lists' tail (≈65µs median,
	// then a gap up to the point probes' ≈450µs) and moved by 30% between
	// sets of runs; with IN-lists 40% of the reads it falls inside them.
	ingestReads       = 5
	ingestCacheBytes  = 64 << 20
	ingestOracleEvery = 16
	ingestRecoveries  = 3   // timed reopen cycles; recovery_s is their median
	ingestOpsSec      = 700 // pinned stream length: ops (appends and reads) per second of -seconds

	// The flush policy, the same on both sides of every comparison.
	fsyncPolicyName = "wal.GroupCommit(2ms): fsync every 2ms or 1MiB of records, and at every checkpoint and close"
)

func ingestPolicy() wal.Policy { return wal.GroupCommit(2 * time.Millisecond) }

const (
	ingAppend = iota
	ingRange
	ingIn
	ingEqual
	ingCheckpoint
)

var ingestClasses = []classDef{
	{"append", kindWrite}, {"range", kindRead}, {"in", kindRead}, {"equal", kindRead}, {"checkpoint", kindMaint},
}

type ingestDurable struct{}

func (ingestDurable) name() string { return "ingest_durable" }

type ingestRead struct {
	class  uint8
	lo, hi uint32 // range on k; lo is the value for an equal probe on c
	values []uint32
}

// rangeWant is a range whose oracle answer over every acknowledged row is
// worked out before the column copies are dropped; recovery is checked
// against it.
type rangeWant struct {
	lo, hi uint32
	count  int
	sum    uint64
}

type ingestInst struct {
	dir  string
	cfs  *countFS // non-nil in the traced pass
	d    *mmdb.DurableTable
	kIdx *mmdb.SortedIndex
	cIdx *mmdb.SortedIndex
	open bool

	k, c, v []uint32 // every row: the base, then each batch
	base    int
	batches []map[string][]uint32
	reads   []ingestRead // ingestReads per append
	ckptAt  map[int]bool // checkpoint after this many appends

	answers  []answer
	inWant   []inQuery
	recovery []rangeWant
	acked    int // rows acknowledged by AppendRows, beyond the base

	logMark             int64 // LogSize() after the last checkpoint
	logBytes, snapBytes int64 // written by the measured stream
	lastSnap            int64
	stats0              qcache.Stats

	absorbNs, foldNs, postAbsorbNs []int64
	hitNs, missNs                  []int64
}

func (ingestDurable) setup(cfg config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x696e67))
	in := &ingestInst{base: cfg.n(ingestBaseRows), ckptAt: map[int]bool{}}
	appends := max(cfg.ops(ingestOpsSec)/(1+ingestReads), 40)
	total := in.base + appends*ingestBatchRows
	in.k, in.c, in.v = make([]uint32, total), make([]uint32, total), make([]uint32, total)
	for i := 0; i < total; i++ {
		in.k[i] = rng.Uint32()
		in.c[i] = uint32(rng.Intn(ingestCategories))
		in.v[i] = uint32(rng.Intn(1 << 20))
	}
	cols := func(lo, hi int) map[string][]uint32 {
		return map[string][]uint32{"k": in.k[lo:hi], "c": in.c[lo:hi], "v": in.v[lo:hi]}
	}
	pool := make([]ingestRead, ingestRangePool)
	for r := range pool {
		pool[r].class = ingRange
		pool[r].lo, pool[r].hi = kRange(rng, ladder(r, 0.0005, 0.005))
	}
	for i := 0; i < appends; i++ {
		lo := in.base + i*ingestBatchRows
		in.batches = append(in.batches, cols(lo, lo+ingestBatchRows))
		visible := lo + ingestBatchRows
		fresh := ingestRead{class: ingRange}
		fresh.lo, fresh.hi = kRange(rng, ladder(i, 0.0005, 0.005))
		in.reads = append(in.reads, fresh, pool[rng.Intn(len(pool))])
		for l := 0; l < 2; l++ {
			list := ingestRead{class: ingIn, values: make([]uint32, ingestInValues)}
			for j := range list.values {
				list.values[j] = in.k[rng.Intn(visible)]
				if j%4 == 3 {
					list.values[j] = rng.Uint32()
				}
			}
			in.reads = append(in.reads, list)
		}
		in.reads = append(in.reads, ingestRead{class: ingEqual, lo: uint32(rng.Intn(ingestCategories))})
	}
	// Checkpoints fall mid-cycle, so the close at the end of the stream
	// leaves a tenth of the appends in the log for recovery to replay.
	for j := 0; j < ingestCheckpoints; j++ {
		in.ckptAt[(2*j+1)*appends/(2*ingestCheckpoints)] = true
	}

	var err error
	if in.dir, err = scratchDir(cfg, "ingest-"); err != nil {
		return nil, err
	}
	var fsys failfs.FS = failfs.OS
	if cfg.tracedPass {
		in.cfs = newCountFS()
		fsys = in.cfs
	}
	if in.d, err = mmdb.OpenDurable(fsys, in.dir, "events", ingestPolicy()); err != nil {
		return nil, err
	}
	in.open = true
	in.d.EnableCache(cfg.cacheOptions(ingestCacheBytes))
	if err := in.d.AppendRows(cols(0, in.base)); err != nil {
		return nil, err
	}
	if err := in.buildIndexes(in.d); err != nil {
		return nil, err
	}
	if err := in.d.Checkpoint(); err != nil {
		return nil, err
	}
	in.logMark = in.d.LogSize()
	in.stats0 = in.d.Cache().Stats()
	in.answers = make([]answer, 0, appends*ingestReads/ingestOracleEvery+1)
	in.absorbNs = make([]int64, 0, appends)
	in.postAbsorbNs = make([]int64, 0, appends)
	return in, nil
}

func (in *ingestInst) buildIndexes(d *mmdb.DurableTable) error {
	var err error
	if in.kIdx, err = d.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		return err
	}
	in.cIdx, err = d.BuildIndex("c", cssidx.KindLevelCSS, cssidx.Options{})
	return err
}

func (in *ingestInst) classes() []classDef    { return ingestClasses }
func (in *ingestInst) opCount() int           { return len(in.batches) * (1 + ingestReads) }
func (in *ingestInst) segments() segmentation { return segmentation{n: ingestCheckpoints} }
func (in *ingestInst) callsPerClass() []int {
	a := len(in.batches)
	return []int{a, 2 * a, 2 * a, a, ingestCheckpoints}
}
func (in *ingestInst) heapRows() int { return in.d.Rows() }

func (in *ingestInst) close() error {
	var err error
	if in.open {
		in.open = false
		err = in.d.Close()
	}
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

func (in *ingestInst) streamHash() uint64 {
	h := newHasher()
	h.u32s(in.k)
	h.u32s(in.c)
	h.u32s(in.v)
	for _, r := range in.reads {
		h.u64(uint64(r.class)<<60 | uint64(r.lo)<<28 | uint64(r.hi>>4))
		h.u32s(r.values)
	}
	return h.sum
}

func (in *ingestInst) run(ph *phase, tr *tracer, limit int, res *result) {
	op := 0
	for i := 0; i < len(in.batches) && op < limit; i++ {
		base0 := in.d.BaseRows()
		root := tr.begin(0, "op", "append", op)
		start := time.Now()
		call := tr.begin(root, "mmdb", "DurableTable.AppendRows", op)
		err := in.d.AppendRows(in.batches[i])
		tr.end(call)
		ns := time.Since(start).Nanoseconds()
		tr.end(root)
		ph.add(ingAppend, ns)
		op++
		if err != nil {
			res.fail("append %d: %v", i, err)
			continue
		}
		in.acked += ingestBatchRows
		// A fold moved the frozen base forward; an absorb left it alone.
		folded := in.d.BaseRows() != base0
		if tr == nil {
			if folded {
				in.foldNs = append(in.foldNs, ns)
			} else {
				in.absorbNs = append(in.absorbNs, ns)
			}
		}
		visible := in.base + (i+1)*ingestBatchRows
		for r := 0; r < ingestReads && op < limit; r++ {
			rd := &in.reads[i*ingestReads+r]
			sampled := op%ingestOracleEvery == 0
			root := tr.begin(0, "op", ingestClasses[rd.class].name, op)
			start := time.Now()
			var rids []uint32
			var err error
			switch rd.class {
			case ingRange:
				call := tr.begin(root, "mmdb", "Table.SelectRange", op)
				rids, _, err = in.d.SelectRange("k", rd.lo, rd.hi)
				tr.end(call)
			case ingIn:
				call := tr.begin(root, "mmdb", "Table.SelectIn", op)
				rids, _, err = in.d.SelectIn("k", rd.values)
				tr.end(call)
			case ingEqual:
				call := tr.begin(root, "mmdb", "SortedIndex.SelectEqual", op)
				rids = in.cIdx.SelectEqual(rd.lo)
				tr.end(call)
			}
			ns := time.Since(start).Nanoseconds()
			tr.end(root)
			ph.add(int(rd.class), ns)
			if err != nil {
				res.fail("op %d (%s): %v", op, ingestClasses[rd.class].name, err)
			}
			if tr == nil {
				// The first range read after an absorb pays for the
				// merged base ∪ delta overlay the absorb invalidated.
				if r == 0 && !folded {
					in.postAbsorbNs = append(in.postAbsorbNs, ns)
				}
				if sampled {
					in.answers = append(in.answers, answer{op: i*ingestReads + r, rows: visible, count: len(rids), sum: ridSum(rids)})
				}
			} else if tr.delta(root, "hits") > 0 && tr.delta(root, "misses") == 0 {
				in.hitNs = append(in.hitNs, ns)
			} else if rd.class != ingEqual { // a point probe on the index never consults the cache
				in.missNs = append(in.missNs, ns)
			}
			op++
		}
		if in.ckptAt[i+1] && op < limit {
			in.logBytes += in.d.LogSize() - in.logMark
			id := tr.begin(0, "wal", "DurableTable.Checkpoint", op)
			start := time.Now()
			err := in.d.Checkpoint()
			ns := time.Since(start).Nanoseconds()
			tr.end(id)
			ph.add(ingCheckpoint, ns)
			if err != nil {
				res.fail("checkpoint after append %d: %v", i, err)
			}
			in.logMark = in.d.LogSize()
			if st, err := os.Stat(filepath.Join(in.dir, "events.snap")); err == nil {
				in.lastSnap = st.Size()
				in.snapBytes += st.Size()
			}
		}
	}
}

// verify recomputes the sampled reads by brute-force scans over the rows
// that were visible when each ran, and works out the answers recovery will
// be checked against.
func (in *ingestInst) verify(res *result) {
	for _, a := range in.answers {
		rd := &in.reads[a.op]
		var n int
		var s uint64
		switch rd.class {
		case ingRange:
			n, s = scanRange(in.k, a.rows, rd.lo, rd.hi)
		case ingEqual:
			n, s = scanRange(in.c, a.rows, rd.lo, rd.lo)
		case ingIn:
			in.inWant = append(in.inWant, inQuery{values: rd.values, rows: a.rows, count: a.count, sum: a.sum, op: a.op})
			continue
		}
		if n != a.count || s != a.sum {
			res.fail("read %d (%s): %d rows, the oracle scan over %d rows found %d",
				a.op, ingestClasses[rd.class].name, a.count, a.rows, n)
		}
	}
	for _, q := range scanInMany(in.k, in.inWant) {
		res.fail("read %d (in): %d rows, the oracle scan over %d rows found %d", q.op, q.count, q.rows, q.found)
	}
	rows := in.base + in.acked
	for j := 0; j < 8; j++ {
		rd := &in.reads[(j*len(in.reads)/8)/ingestReads*ingestReads] // the fresh range of an evenly spaced iteration
		w := rangeWant{lo: rd.lo, hi: rd.hi}
		w.count, w.sum = scanRange(in.k, rows, rd.lo, rd.hi)
		in.recovery = append(in.recovery, w)
	}
	// Leave both indexes' read-side memos (the merged base ∪ delta overlay,
	// 8 B per row) built, as they are whenever a read has followed an
	// append: otherwise heap_bytes_per_row differs by 20% between seeds
	// according to whether the stream's last range happened to hit the cache.
	if _, err := in.kIdx.SelectRange(0, 0); err != nil {
		res.fail("settling the k index: %v", err)
	}
	in.cIdx.SelectEqual(0)
}

func (in *ingestInst) report(ph *phase, res *result) {
	a := len(in.batches)
	putClassLatencies(res, ph, "range", "in")
	res.put("mmdb.rows_per_query", "count", float64(in.rowsReturned())/float64(max(len(in.answers), 1)), len(in.answers))
	putCacheStats(res, in.stats0, in.d.Cache().Stats(), a*ingestReads)

	if len(in.absorbNs) > 0 {
		res.put("mmdb.absorb_us_p50", "us", percentileNs(in.absorbNs, 50)/1e3, len(in.absorbNs))
	}
	if len(in.foldNs) > 0 {
		res.put("mmdb.fold_ms_p50", "ms", percentileNs(in.foldNs, 50)/1e6, len(in.foldNs))
	}
	res.put("mmdb.fold_count", "count", float64(len(in.foldNs)), a)
	if len(in.postAbsorbNs) > 0 {
		res.put("mmdb.post_absorb_read_us_p50", "us", percentileNs(in.postAbsorbNs, 50)/1e3, len(in.postAbsorbNs))
	}

	logBytes := in.logBytes + in.d.LogSize() - in.logMark
	user := float64(4 * 3 * in.acked)
	res.put("write_amp", "ratio", float64(logBytes+in.snapBytes)/user, in.acked)
	res.put("wal.bytes_per_user_byte", "ratio", float64(logBytes)/user, in.acked)
	res.put("wal.snapshot_bytes", "B", float64(in.lastSnap), ingestCheckpoints)
	if ns, n, ok := ph.pct(ofClass("checkpoint"), 50); ok {
		res.put("wal.checkpoint_ms_p50", "ms", ns/1e6, n)
	}
}

// rowsReturned sums the rows of the sampled reads.
func (in *ingestInst) rowsReturned() int {
	n := 0
	for _, a := range in.answers {
		n += a.count
	}
	return n
}

func (in *ingestInst) release() {
	in.k, in.c, in.v, in.batches, in.reads, in.answers, in.inWant = nil, nil, nil, nil, nil, nil, nil
}

// reopen closes the store as a crash-free shutdown would — no final
// checkpoint — and reopens it: snapshot load, replay of the appends logged
// since the last checkpoint, index build, first correct read.
func (in *ingestInst) reopen(res *result) error {
	in.open = false
	if err := in.d.Close(); err != nil {
		return err
	}
	want := in.base + in.acked
	times := make([]float64, 0, ingestRecoveries)
	for r := 0; r < ingestRecoveries; r++ {
		start := time.Now()
		d, err := mmdb.OpenDurable(nil, in.dir, "events", ingestPolicy())
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if err := in.buildIndexes(d); err != nil {
			return err
		}
		rids, _, err := d.SelectRange("k", in.recovery[0].lo, in.recovery[0].hi)
		times = append(times, time.Since(start).Seconds())
		if err != nil || len(rids) != in.recovery[0].count || ridSum(rids) != in.recovery[0].sum {
			res.fail("first read after recovery: %d rows (err %v), want %d", len(rids), err, in.recovery[0].count)
		}
		if d.Rows() != want {
			res.fail("recovered %d rows, %d were acknowledged", d.Rows(), want)
		}
		for _, w := range in.recovery[1:] {
			if rids, _, err := d.SelectRange("k", w.lo, w.hi); err != nil || len(rids) != w.count || ridSum(rids) != w.sum {
				res.fail("range [%d,%d] after recovery: %d rows (err %v), want %d", w.lo, w.hi, len(rids), err, w.count)
			}
		}
		if err := d.Close(); err != nil {
			return err
		}
	}
	s := median(times)
	res.put("recovery_s", "s", s, len(times))
	res.put("wal.replay_rows_per_s", "1/s", float64(want)/s, want)
	return nil
}

func (in *ingestInst) counters() ([]string, func(*[maxCounts]int64)) {
	names := []string{"hits", "misses", "patches", "invalidations", "base_rows", "delta_rows", "log_bytes",
		"fs_writes", "fs_write_bytes", "fs_fsyncs", "alloc_bytes"}
	return names, func(c *[maxCounts]int64) {
		st := in.d.Cache().Stats()
		c[0], c[1], c[2], c[3] = st.Hits, st.Misses, st.Patches, st.Invalidations
		c[4], c[5], c[6] = int64(in.d.BaseRows()), int64(in.d.DeltaRows()), in.d.LogSize()
		if in.cfs != nil {
			c[7], c[8], c[9] = in.cfs.writes.Load(), in.cfs.writeBytes.Load(), in.cfs.fsyncs.Load()
		}
		c[10] = allocatedBytes()
	}
}

func (in *ingestInst) isolate(cfg config, tr *tracer, res *result) error {
	putHitMiss(res, in.hitNs, in.missNs)
	isolateDomain(tr, res, in.k[:in.base])
	if in.cfs != nil {
		n := len(tr.spans)
		res.put("failfs.writes", "count", float64(in.cfs.writes.Load()), n)
		res.put("failfs.write_bytes", "B", float64(in.cfs.writeBytes.Load()), n)
		res.put("failfs.fsyncs", "count", float64(in.cfs.fsyncs.Load()), n)
		res.put("failfs.renames", "count", float64(in.cfs.renames.Load()), n)
	}

	// The log alone: records the size of one append batch, same policy.
	dir, err := scratchDir(cfg, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(failfs.OS, filepath.Join(dir, "scratch.wal"), ingestPolicy())
	if err != nil {
		return err
	}
	payload := make([]byte, 3*(12+4*ingestBatchRows))
	const appends, syncs = 1000, 200
	appendNs, syncNs := make([]int64, 0, appends), make([]int64, 0, syncs)
	spanned(tr, "wal", "Log.Append", func() {
		for i := 0; i < appends && err == nil; i++ {
			start := time.Now()
			_, err = log.Append(payload)
			appendNs = append(appendNs, time.Since(start).Nanoseconds())
		}
	})
	spanned(tr, "wal", "Log.Sync", func() {
		for i := 0; i < syncs && err == nil; i++ {
			if _, err = log.Append(payload); err != nil {
				break
			}
			start := time.Now()
			err = log.Sync()
			syncNs = append(syncNs, time.Since(start).Nanoseconds())
		}
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res.put("wal.append_us_p50", "us", percentileNs(appendNs, 50)/1e3, len(appendNs))
	res.put("wal.sync_us_p50", "us", percentileNs(syncNs, 50)/1e3, len(syncNs))
	return nil
}

package bench

// runIngest measures the append cliff and the delta layer that removes it
// (an extension beyond the paper; the paper's §2.3 position is
// rebuild-per-batch).  A table with a sorted index and a sharded index
// ingests a stream of fixed-size append batches twice: once with the delta
// layer absorbing batches as sorted runs (size-tiered folds amortise the
// O(n) work), once with AppendPolicy.Disabled folding every batch — an O(n)
// merge per batch, which is the cliff.  Sustained appends/s is the cliff
// metric; a read pass over the delta-carrying table against a just-folded
// twin prices what the merged base ∪ delta reads cost.
//
// The shape target: at small batches (64 and 256 rows) the delta path
// sustains ≥5× the fold-per-batch append rate — measured on the 2-vCPU box,
// ≈50× at 64-row batches and ≈30× at 256, falling to ≈5× at 4,096.  Range
// reads woven over the outstanding delta are meant to stay within 2× of the
// pure-immutable reads; that cell is a microsecond-scale timing and reads
// 1.2–2.9× run to run on this box.

import (
	"fmt"
	"io"
	"time"

	"cssidx"
	"cssidx/internal/mmdb"
	"cssidx/internal/workload"
)

// ingestTable builds the experiment's table: an indexed key column, a
// sharded key column, and a measure column, over baseRows rows.
func ingestTable(g *workload.Gen, dict []uint32, baseRows int, pol mmdb.AppendPolicy) (*mmdb.Table, *mmdb.ShardedIndex, error) {
	tab := mmdb.NewTable("ingest")
	tab.SetAppendPolicy(pol)
	for _, c := range []string{"k", "s", "v"} {
		if err := tab.AddColumn(c, g.Lookups(dict, baseRows)); err != nil {
			return nil, nil, err
		}
	}
	if _, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		return nil, nil, err
	}
	sh, err := tab.BuildShardedIndex("s", 4)
	if err != nil {
		return nil, nil, err
	}
	return tab, sh, nil
}

// ingestBatches pre-generates the append stream so generation cost never
// lands inside the timed region.
func ingestBatches(g *workload.Gen, dict []uint32, batch, count int) []map[string][]uint32 {
	out := make([]map[string][]uint32, count)
	for i := range out {
		out[i] = map[string][]uint32{
			"k": g.Lookups(dict, batch),
			"s": g.Lookups(dict, batch),
			"v": g.Lookups(dict, batch),
		}
	}
	return out
}

// measureRangeReads times q mid-selectivity range selections against the
// indexed column, returning steady-state seconds per query: the pass runs
// repeats times and reports the minimum (the paper's protocol).  The delta
// table has no one-time work to settle — every read weaves the runs in
// afresh — so the figure is what any read over that delta costs.
func measureRangeReads(tab *mmdb.Table, dict []uint32, g *workload.Gen, q, repeats int) (float64, error) {
	los := g.Lookups(dict, q)
	const width = 1 << 24 // ~0.4% of the uint32 key space
	var err error
	best := Measure(func() {
		for _, lo := range los {
			rids, _, qerr := tab.SelectRange("k", lo, lo+width)
			if qerr != nil {
				err = qerr
				return
			}
			Sink += len(rids)
		}
	}, repeats)
	if err != nil {
		return 0, err
	}
	return best / float64(q), nil
}

func runIngest(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	g := workload.New(cfg.Seed)
	baseRows, totalAppend, readQ := 200_000, 16_384, 400
	if cfg.Quick {
		baseRows, totalAppend, readQ = 50_000, 4_096, 150
	}
	dict := g.SortedUniform(4096)
	batchSizes := []int{64, 256, 1024, 4096}

	fmt.Fprintf(w, "append stream of %d rows onto a %d-row base (sorted + sharded index), per batch size\n",
		totalAppend, baseRows)
	t := newTable(w)
	t.row("batch", "delta appends/s", "fold/batch appends/s", "speedup", "delta read", "folded read", "read ratio")
	for _, batch := range batchSizes {
		count := totalAppend / batch
		var rates [2]float64
		var tabs [2]*mmdb.Table
		for mi, pol := range []mmdb.AppendPolicy{
			{},               // delta layer on, default tiering
			{Disabled: true}, // fold (an O(n) merge) per batch
		} {
			tab, sh, err := ingestTable(g, dict, baseRows, pol)
			if err != nil {
				return err
			}
			defer sh.Close()
			batches := ingestBatches(g, dict, batch, count)
			start := time.Now()
			for _, b := range batches {
				if err := tab.AppendRows(b); err != nil {
					return err
				}
			}
			elapsed := time.Since(start).Seconds()
			rates[mi] = float64(count*batch) / elapsed
			tabs[mi] = tab
		}
		// Read price of the outstanding delta: the delta table still holds
		// absorbed runs (unless the tier folded them all); the disabled
		// table is pure immutable state — the 1.5× bar from the issue.
		deltaRead, err := measureRangeReads(tabs[0], dict, g, readQ, cfg.Repeats)
		if err != nil {
			return err
		}
		foldedRead, err := measureRangeReads(tabs[1], dict, g, readQ, cfg.Repeats)
		if err != nil {
			return err
		}
		speedup := rates[0] / rates[1]
		ratio := deltaRead / foldedRead
		t.row(fmt.Sprintf("%d", batch),
			fmt.Sprintf("%.0f", rates[0]), fmt.Sprintf("%.0f", rates[1]),
			fmt.Sprintf("%.1fx", speedup),
			secs(deltaRead), secs(foldedRead), fmt.Sprintf("%.2fx", ratio))
		cfg.record(Record{Experiment: "ingest", Params: map[string]any{"mode": "delta", "batch": batch, "base": baseRows}, Metric: "appends_per_s", Value: rates[0]})
		cfg.record(Record{Experiment: "ingest", Params: map[string]any{"mode": "fold-per-batch", "batch": batch, "base": baseRows}, Metric: "appends_per_s", Value: rates[1]})
		cfg.record(Record{Experiment: "ingest", Params: map[string]any{"batch": batch, "base": baseRows}, Metric: "append_speedup", Value: speedup, Unit: "x"})
		cfg.record(Record{Experiment: "ingest", Params: map[string]any{"mode": "delta", "batch": batch, "base": baseRows}, Metric: "range_read_time", Value: deltaRead, Unit: "s"})
		cfg.record(Record{Experiment: "ingest", Params: map[string]any{"mode": "fold-per-batch", "batch": batch, "base": baseRows}, Metric: "range_read_time", Value: foldedRead, Unit: "s"})
		cfg.record(Record{Experiment: "ingest", Params: map[string]any{"batch": batch, "base": baseRows}, Metric: "read_ratio", Value: ratio, Unit: "x"})
	}
	t.flush()
	fmt.Fprintln(w, "\nshape target: ≥5x the fold-per-batch appends/s at small batches (the cliff flattened);")
	fmt.Fprintln(w, "range reads woven over the outstanding delta within 2x of the pure-immutable twin")
	return nil
}

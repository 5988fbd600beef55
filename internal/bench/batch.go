package bench

// runBatch is the batched-probing experiment (an extension, not a paper
// artifact): the §2.2 observation that decision-support probes arrive in
// bulk, measured.  It compares the scalar probe loop against the lockstep
// batch descent at batch sizes 1/8/64/512 on uniform and Zipf-skewed probe
// streams, then repeats the comparison for the sharded serving layer (both
// batch schedules) and for the indexed nested-loop join end to end.
//
// The shape target: a batch of one pays the level pass's call overhead with
// nothing to overlap and loses to the scalar loop; from batch size ≥ 8 the
// lockstep descent wins on both distributions — the level pass prefetches
// the group's next nodes together where the scalar loop serialises the
// misses.  The sorted schedule's radix sort costs more than the descents it
// saves on a single tree and about breaks even on the sharded index, where
// it also routes.

import (
	"fmt"
	"io"

	"cssidx"
	"cssidx/internal/mmdb"
	"cssidx/internal/workload"
)

// batchSizes are the probe group sizes the experiment sweeps.
var batchSizes = []int{1, 8, 64, 512}

// measureScalarLB times the scalar lower-bound loop, min over repeats.
func measureScalarLB(idx cssidx.OrderedIndex, probes []uint32, repeats int) float64 {
	return Measure(func() {
		s := 0
		for _, p := range probes {
			s += idx.LowerBound(p)
		}
		Sink += s
	}, repeats)
}

// lowerBounder is any batch surface the experiment times (single trees,
// sorted schedules, sharded indexes).
type lowerBounder interface {
	LowerBoundBatch(probes []uint32, out []int32)
}

// measureBatchedLB times the whole probe stream through LowerBoundBatch in
// chunks of bs, min over repeats.
func measureBatchedLB(idx lowerBounder, probes []uint32, bs, repeats int) float64 {
	out := make([]int32, bs)
	return Measure(func() {
		s := int32(0)
		for base := 0; base < len(probes); base += bs {
			end := base + bs
			if end > len(probes) {
				end = len(probes)
			}
			chunk := probes[base:end]
			idx.LowerBoundBatch(chunk, out[:len(chunk)])
			s += out[0]
		}
		Sink += int(s)
	}, repeats)
}

func runBatch(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	g := workload.New(cfg.Seed)
	// The paper's primary array size (§6.1): large enough that directories
	// and leaves live beyond the caches, which is the regime batching is for.
	n := 10_000_000
	if cfg.Quick {
		n = 100_000
	}
	keys := g.SortedUniform(n)
	level := cssidx.NewLevelCSS(keys, cssidx.DefaultNodeBytes)
	batched := cssidx.AsBatchOrdered(level)

	// The Zipf stream samples ranks over a *shuffled* copy of the keys: hot
	// keys scatter across the key domain (hot products are not the
	// alphabetically-first products), so hot probes exercise distinct
	// root-to-leaf paths instead of one cache-resident corner of the tree.
	dists := []struct {
		name   string
		probes []uint32
	}{
		{"uniform", g.Lookups(keys, cfg.Lookups)},
		{"zipf s=1.2", g.ZipfLookups(g.Shuffled(keys), cfg.Lookups, 1.2)},
	}

	fmt.Fprintf(w, "batched probing: level CSS-tree over n=%d keys, %d probes per cell\n", n, cfg.Lookups)
	fmt.Fprintf(w, "sorted = sort-probes-first schedule (radix sort + dedup per batch)\n\n")
	t := newTable(w)
	t.row("workload", "schedule", "Mprobes/s", "vs scalar")
	recordCell := func(workload, schedule, surface string, bs int, sec float64, probeCount int) {
		cfg.record(Record{
			Experiment: "batch",
			Params: map[string]any{
				"workload": workload, "schedule": schedule, "surface": surface,
				"batch": bs, "n": n,
			},
			Metric: "throughput", Value: float64(probeCount) / sec / 1e6, Unit: "Mprobes/s",
		})
	}
	for _, d := range dists {
		scalar := measureScalarLB(level, d.probes, cfg.Repeats)
		mps := func(sec float64) string { return fmt.Sprintf("%.2f", float64(len(d.probes))/sec/1e6) }
		t.row(d.name, "scalar", mps(scalar), "1.00x")
		recordCell(d.name, "scalar", "levelcss", 1, scalar, len(d.probes))
		for _, bs := range batchSizes {
			sec := measureBatchedLB(batched, d.probes, bs, cfg.Repeats)
			t.row(d.name, fmt.Sprintf("batch %d", bs), mps(sec), fmt.Sprintf("%.2fx", scalar/sec))
			recordCell(d.name, "input-order", "levelcss", bs, sec, len(d.probes))
		}
		for _, bs := range []int{64, 512} {
			sec := measureBatchedLB(cssidx.NewSortedBatch(level), d.probes, bs, cfg.Repeats)
			t.row(d.name, fmt.Sprintf("batch %d sorted", bs), mps(sec), fmt.Sprintf("%.2fx", scalar/sec))
			recordCell(d.name, "sorted", "levelcss", bs, sec, len(d.probes))
		}
	}
	t.flush()

	fmt.Fprintf(w, "\nsharded serving (4 shards), batch 512, input-order vs sorted schedule\n\n")
	ts := newTable(w)
	ts.row("workload", "schedule", "Mprobes/s", "vs scalar")
	for _, d := range dists {
		for _, schedule := range []cssidx.BatchSchedule{cssidx.ScheduleInputOrder, cssidx.ScheduleSorted} {
			idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 4, Schedule: schedule})
			scalarSec := Measure(func() {
				s := 0
				for _, p := range d.probes {
					s += idx.LowerBound(p)
				}
				Sink += s
			}, cfg.Repeats)
			batchSec := measureBatchedLB(idx, d.probes, 512, cfg.Repeats)
			ts.row(d.name, "batch 512 "+schedule.String(),
				fmt.Sprintf("%.2f", float64(len(d.probes))/batchSec/1e6),
				fmt.Sprintf("%.2fx", scalarSec/batchSec))
			recordCell(d.name, schedule.String(), "sharded", 512, batchSec, len(d.probes))
			idx.Close()
		}
	}
	ts.flush()

	// End-to-end: the §2.2 indexed nested-loop join, scalar vs batched probes.
	joinInner := n / 10
	joinOuter := cfg.Lookups
	innerKeys := g.SortedUniform(joinInner)
	outerVals := g.Lookups(innerKeys, joinOuter)
	inner := mmdb.NewTable("inner")
	if err := inner.AddColumn("k", innerKeys); err != nil {
		return err
	}
	outer := mmdb.NewTable("outer")
	if err := outer.AddColumn("k", outerVals); err != nil {
		return err
	}
	ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nindexed nested-loop join: %d outer rows probing %d inner keys\n\n", joinOuter, joinInner)
	tj := newTable(w)
	tj.row("schedule", "Mprobes/s", "vs scalar")
	var scalarJoin float64
	for _, bs := range []int{1, 64, 512} {
		sec := Measure(func() {
			c, err := mmdb.JoinBatch(outer, "k", ix, bs, nil)
			if err != nil {
				panic(err)
			}
			Sink += c
		}, cfg.Repeats)
		if bs == 1 {
			scalarJoin = sec
			tj.row("scalar (batch 1)", fmt.Sprintf("%.2f", float64(joinOuter)/sec/1e6), "1.00x")
			recordCell("uniform", "scalar", "join", bs, sec, joinOuter)
			continue
		}
		tj.row(fmt.Sprintf("batch %d", bs),
			fmt.Sprintf("%.2f", float64(joinOuter)/sec/1e6),
			fmt.Sprintf("%.2fx", scalarJoin/sec))
		recordCell("uniform", "input-order", "join", bs, sec, joinOuter)
	}
	tj.flush()
	fmt.Fprintln(w, "\nshape target: on both distributions the input-order lockstep wins from batch")
	fmt.Fprintln(w, "size ≥ 8 (the level pass prefetches the group's next nodes together); a batch")
	fmt.Fprintln(w, "of one pays the pass's call overhead with nothing to overlap and loses to the")
	fmt.Fprintln(w, "scalar loop; the sorted schedule's radix sort costs more than the descents it")
	fmt.Fprintln(w, "saves on a single tree and about breaks even on the sharded index; the batched")
	fmt.Fprintln(w, "join beats the scalar join throughout")
	return nil
}

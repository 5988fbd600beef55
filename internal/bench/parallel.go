package bench

// runParallel is the parallel-execution-engine experiment (an extension
// beyond the paper, following its §8 direction): the lockstep batch kernel
// measured under the worker-pool scheduler across batch size × workers ×
// probe distribution, plus the branch-free vs scalar node-search ablation
// the kernels are built on.
//
// The shape target: one worker matches the plain lockstep kernel (the engine
// adds no overhead before it forks); at ≥64k-probe batches throughput scales
// with workers up to the core count (each worker keeps its own complement of
// independent misses in flight); small batches are immune to worker settings
// (the sequential fallback).  Branch-free node search is never slower than
// the scalar unrolled search and wins clearly on random probes, where the
// scalar version mispredicts roughly every other halving step.
//
// Every cell lands in cfg.Recorder (cssbench -json) so the perf trajectory
// is machine-readable across commits: see BENCH_parallel.json.

import (
	"fmt"
	"io"
	"runtime"

	"cssidx"
	"cssidx/internal/binsearch"
	"cssidx/internal/parallel"
	"cssidx/internal/sortu32"
	"cssidx/internal/workload"
)

// parallelBatchSizes sweeps from "fallback" through "worth one core" to
// "worth every core".
var parallelBatchSizes = []int{512, 4096, 65536, 262144}

// parallelWorkerCounts sweeps the engine; 0 = GOMAXPROCS.
var parallelWorkerCounts = []int{1, 2, 4, 8}

func runParallel(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	g := workload.New(cfg.Seed)
	n := 10_000_000
	if cfg.Quick {
		n = 200_000
	}
	// -lookups bounds the probe stream as in every experiment; batch sizes
	// beyond it are skipped, so the committed baseline uses -lookups 524288
	// to cover the whole sweep.
	probeCount := cfg.Lookups
	keys := g.SortedUniform(n)
	level := cssidx.NewLevelCSS(keys, cssidx.DefaultNodeBytes)
	seq := cssidx.AsBatchOrdered(level)

	dists := []struct {
		name   string
		probes []uint32
	}{
		{"uniform", g.Lookups(keys, probeCount)},
		{"zipf s=1.2", g.ZipfLookups(g.Shuffled(keys), probeCount, 1.2)},
	}

	fmt.Fprintf(w, "parallel batch engine: level CSS-tree over n=%d keys, %d probes per cell, GOMAXPROCS=%d\n\n",
		n, probeCount, runtime.GOMAXPROCS(0))
	t := newTable(w)
	t.row("workload", "batch", "workers", "Mprobes/s", "vs 1 worker")
	for _, d := range dists {
		for _, bs := range parallelBatchSizes {
			if bs > len(d.probes) {
				continue
			}
			var oneWorker float64
			for _, workers := range parallelWorkerCounts {
				par := cssidx.NewParallel(level, cssidx.ParallelOptions{Workers: workers})
				sec := measureBatchedLB(par, d.probes, bs, cfg.Repeats)
				mps := float64(len(d.probes)) / sec / 1e6
				if workers == 1 {
					oneWorker = sec
				}
				t.row(d.name, fmt.Sprintf("%d", bs), fmt.Sprintf("%d", workers),
					fmt.Sprintf("%.2f", mps), fmt.Sprintf("%.2fx", oneWorker/sec))
				cfg.record(Record{
					Experiment: "parallel",
					Params: map[string]any{
						"workload": d.name, "batch": bs, "workers": workers,
						"n": n, "surface": "LowerBoundBatch",
					},
					Metric: "throughput", Value: mps, Unit: "Mprobes/s",
				})
			}
		}
		// The sequential lockstep kernel is the baseline the engine must
		// not regress: one worker above should match this row.
		baseBS := 65536
		if baseBS > len(d.probes) {
			baseBS = len(d.probes)
		}
		sec := measureBatchedLB(seq, d.probes, baseBS, cfg.Repeats)
		mps := float64(len(d.probes)) / sec / 1e6
		t.row(d.name, fmt.Sprintf("%d", baseBS), "lockstep (no engine)", fmt.Sprintf("%.2f", mps), "-")
		cfg.record(Record{
			Experiment: "parallel",
			Params:     map[string]any{"workload": d.name, "batch": baseBS, "workers": 0, "n": n, "surface": "lockstep-baseline"},
			Metric:     "throughput", Value: mps, Unit: "Mprobes/s",
		})
	}
	t.flush()

	// Adaptive worker sizing: a fresh engine calibrates MinBatchPerWorker
	// from its first large batch; surface the value it derives for this
	// index's measured per-probe cost.
	adaptive := cssidx.NewParallel(level, cssidx.ParallelOptions{})
	calibBS := min(65536, len(dists[0].probes))
	calibOut := make([]int32, calibBS)
	adaptive.LowerBoundBatch(dists[0].probes[:calibBS], calibOut)
	if tun, ok := adaptive.(cssidx.BatchTuning); ok {
		if mbw, perNs, calibrated := tun.BatchCalibration(); calibrated {
			fmt.Fprintf(w, "\nadaptive worker sizing: measured %.1f ns/probe -> MinBatchPerWorker %d\n", perNs, mbw)
			if cfg.Recorder != nil {
				cfg.Recorder.SetContext("calibrated_min_batch_per_worker", mbw)
				cfg.Recorder.SetContext("calibrated_per_probe_ns", perNs)
			}
			cfg.record(Record{
				Experiment: "parallel",
				Params:     map[string]any{"surface": "calibration", "n": n},
				Metric:     "min_batch_per_worker", Value: float64(mbw), Unit: "probes",
			})
		}
	}

	// Sharded serving under the engine: per-shard runs across workers.  The
	// index runs ScheduleAuto; every record carries the schedule the batch
	// actually resolved to, not just the requested "auto".
	fmt.Fprintf(w, "\nsharded serving (4 shards, auto schedule), batch 65536, workers sweep\n\n")
	ts := newTable(w)
	ts.row("workload", "workers", "resolved schedule", "Mprobes/s")
	for _, d := range dists {
		for _, workers := range parallelWorkerCounts {
			idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{
				Shards:   4,
				Parallel: cssidx.ParallelOptions{Workers: workers},
			})
			bs := 65536
			if bs > len(d.probes) {
				bs = len(d.probes)
			}
			// Auto resolves per chunk; resolve every chunk the measurement
			// will run so the record reflects what actually descended (one
			// cell's chunks can legitimately split between schedules).
			sortedChunks, inputChunks := 0, 0
			for lo := 0; lo < len(d.probes); lo += bs {
				hi := min(lo+bs, len(d.probes))
				if idx.ResolveSchedule(d.probes[lo:hi]) == cssidx.ScheduleSorted {
					sortedChunks++
				} else {
					inputChunks++
				}
			}
			resolved := "input-order"
			switch {
			case inputChunks == 0:
				resolved = "sorted"
			case sortedChunks > 0:
				resolved = "mixed"
			}
			sec := measureBatchedLB(idx, d.probes, bs, cfg.Repeats)
			mps := float64(len(d.probes)) / sec / 1e6
			ts.row(d.name, fmt.Sprintf("%d", workers), resolved, fmt.Sprintf("%.2f", mps))
			cfg.record(Record{
				Experiment: "parallel",
				Params: map[string]any{
					"workload": d.name, "batch": bs, "workers": workers, "n": n,
					"surface": "sharded", "schedule_requested": "auto",
					"schedule_resolved": resolved,
					"chunks_sorted":     sortedChunks, "chunks_input": inputChunks,
				},
				Metric: "throughput", Value: mps, Unit: "Mprobes/s",
			})
			idx.Close()
		}
	}
	ts.flush()

	// Key-ordered schedule sort phase: the parallel MSB-radix partition vs
	// the worker count, on a 1M-probe batch — the serial fraction the
	// ROADMAP flagged for skewed streams.  (On a single-vCPU runner the
	// worker columns flatten; the partition itself still wins by skipping
	// radix passes per bucket — both effects land in the records.)
	sortN := 1 << 20
	if cfg.Quick {
		sortN = 1 << 15
	}
	fmt.Fprintf(w, "\nkey-ordered schedule sort phase: parallel radix partition, %d probes\n\n", sortN)
	tsort := newTable(w)
	tsort.row("workload", "workers", "Mkeys/s", "vs sequential")
	for _, d := range dists {
		src := make([]uint32, sortN)
		for i := range src {
			src[i] = d.probes[i%len(d.probes)]
		}
		keysBuf := make([]uint32, sortN)
		valsBuf := make([]uint32, sortN)
		tmpK := make([]uint32, sortN)
		tmpV := make([]uint32, sortN)
		var seqSec float64
		for _, workers := range parallelWorkerCounts {
			opts := parallel.Options{Workers: workers}
			hist := make([]int32, sortu32.HistLen(sortN, opts))
			sec := Measure(func() {
				copy(keysBuf, src)
				for i := range valsBuf {
					valsBuf[i] = uint32(i)
				}
				sortu32.SortPairsParallel(keysBuf, valsBuf, tmpK, tmpV, hist, opts)
			}, cfg.Repeats)
			if workers == 1 {
				seqSec = sec
			}
			mks := float64(sortN) / sec / 1e6
			tsort.row(d.name, fmt.Sprintf("%d", workers), fmt.Sprintf("%.2f", mks), fmt.Sprintf("%.2fx", seqSec/sec))
			cfg.record(Record{
				Experiment: "parallel",
				Params:     map[string]any{"workload": d.name, "workers": workers, "n": sortN, "surface": "sort-phase"},
				Metric:     "throughput", Value: mks, Unit: "Mkeys/s",
			})
		}
	}
	tsort.flush()

	// Dispatched vs branchy-scalar node search: the per-node ablation under
	// the kernels (random in-cache probes mispredict the branchy version;
	// the dispatched tier is whatever binsearch selected at init — see the
	// `nodesearch` experiment for the full scalar/simd ablation).
	fmt.Fprintf(w, "\ndispatched (%s) vs branchy scalar node search (uniform random probes, in-cache node)\n\n",
		binsearch.ActiveKernel())
	tn := newTable(w)
	tn.row("node slots", "scalar Mops/s", "dispatched Mops/s", "speedup")
	for _, m := range []int{15, 16, 31, 32} {
		nodeKeys := g.SortedDistinct(m)
		nodeProbes := append(g.Lookups(nodeKeys, 4096), g.Misses(nodeKeys, 4096)...)
		iters := 1 << 20
		if cfg.Quick {
			iters = 1 << 16
		}
		scalar := Measure(func() {
			s := 0
			for i := 0; i < iters; i++ {
				s += binsearch.NodeLowerBoundScalar(nodeKeys, m, nodeProbes[i&8191])
			}
			Sink += s
		}, cfg.Repeats)
		bf := Measure(func() {
			s := 0
			for i := 0; i < iters; i++ {
				s += binsearch.NodeLowerBound(nodeKeys, m, nodeProbes[i&8191])
			}
			Sink += s
		}, cfg.Repeats)
		tn.row(fmt.Sprintf("%d", m),
			fmt.Sprintf("%.1f", float64(iters)/scalar/1e6),
			fmt.Sprintf("%.1f", float64(iters)/bf/1e6),
			fmt.Sprintf("%.2fx", scalar/bf))
		cfg.record(Record{
			Experiment: "parallel",
			Params:     map[string]any{"node_slots": m, "surface": "node-search-scalar"},
			Metric:     "throughput", Value: float64(iters) / scalar / 1e6, Unit: "Mops/s",
		})
		cfg.record(Record{
			Experiment: "parallel",
			Params:     map[string]any{"node_slots": m, "surface": "node-search-branch-free"},
			Metric:     "throughput", Value: float64(iters) / bf / 1e6, Unit: "Mops/s",
		})
	}
	tn.flush()

	fmt.Fprintln(w, "\nshape target: one worker matches the bare lockstep kernel; ≥64k batches")
	fmt.Fprintln(w, "scale with workers up to the core count; 512-probe batches are immune to the")
	fmt.Fprintln(w, "worker knob (sequential fallback); branch-free node search never loses to the")
	fmt.Fprintln(w, "scalar unrolled search and wins big on mispredicting probe streams")
	return nil
}

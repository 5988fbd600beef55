package shard

// Telemetry for the serving layer.  Probe counters are labelled by shard
// position (clamped: shards past shardLabelMax pool into one overflow
// series) so a scrape shows the probe distribution across the range
// partition.  Epoch-swaps record
// the event kind (absorb vs fold) and, per kind, what the swap cost; two
// gauges carry the delta's lag — the insert-run keys and tombstones awaiting
// a fold, summed over every index in the process.  All series live in
// telemetry.Default; while collection is off every counter and histogram
// hook costs one atomic load.

import (
	"strconv"

	"cssidx/internal/telemetry"
)

// shardLabelMax bounds the labelled probe series: shards 0..14 get their
// own counter, everything beyond pools into the "15+" overflow label.
// Indexes are expected to run a handful of shards (one per core region);
// the clamp keeps the registry finite when tests build very wide indexes.
const shardLabelMax = 15

var (
	shardProbeCtrs = func() [shardLabelMax + 1]*telemetry.Counter {
		var cs [shardLabelMax + 1]*telemetry.Counter
		for i := 0; i < shardLabelMax; i++ {
			cs[i] = telemetry.C(`shard_probes_total{shard="` + strconv.Itoa(i) + `"}`)
		}
		cs[shardLabelMax] = telemetry.C(`shard_probes_total{shard="` + strconv.Itoa(shardLabelMax) + `+"}`)
		return cs
	}()

	ctrBatchProbes = telemetry.C("shard_batch_probes_total")
	ctrAbsorbs     = telemetry.C("shard_absorbs_total")
	ctrFolds       = telemetry.C("shard_folds_total")
	histAbsorbNs   = telemetry.H(`shard_epoch_swap_ns{outcome="absorb"}`)
	histFoldNs     = telemetry.H(`shard_epoch_swap_ns{outcome="fold"}`)

	gaugeDeltaKeys  = telemetry.G("shard_delta_keys")
	gaugeTombstones = telemetry.G("shard_tombstones")
)

// noteProbe counts one single-key probe against shard sid.
func noteProbe(sid int) {
	if sid > shardLabelMax {
		sid = shardLabelMax
	}
	shardProbeCtrs[sid].Inc()
}

// noteBatchRuns counts a batch's probes into the per-shard series.  The
// enabled check keeps the disabled cost at one atomic load for the whole
// batch rather than one per run.
func noteBatchRuns(runs []batchRun) {
	if !telemetry.Enabled() {
		return
	}
	total := 0
	for _, r := range runs {
		n := r.hi - r.lo
		total += n
		sid := r.sid
		if sid > shardLabelMax {
			sid = shardLabelMax
		}
		shardProbeCtrs[sid].Add(uint64(n))
	}
	ctrBatchProbes.Add(uint64(total))
}

// noteBatchSingle counts a single-shard fast-path batch (no run list).
func noteBatchSingle(n int) {
	if !telemetry.Enabled() {
		return
	}
	shardProbeCtrs[0].Add(uint64(n))
	ctrBatchProbes.Add(uint64(n))
}

package mmdb

// Telemetry for the query layer: one latency histogram per query surface
// (bracketing the public Select*/GroupAggregate/JoinWith entry points),
// counters for the planner's access-path decisions, and for the write path
// what an AppendRows batch costs by outcome (absorb vs fold — microseconds
// against milliseconds) with the lag it leaves: the rows awaiting a fold,
// summed over every table in the process.  All series live in
// telemetry.Default; counters and histograms cost a single atomic load while
// collection is off, the gauge is always live.

import (
	"sort"

	"cssidx/internal/telemetry"
)

var (
	histRangeNs = telemetry.H(`mmdb_query_ns{surface="range"}`)
	histInNs    = telemetry.H(`mmdb_query_ns{surface="in"}`)
	histWhereNs = telemetry.H(`mmdb_query_ns{surface="where"}`)
	histAggNs   = telemetry.H(`mmdb_query_ns{surface="agg"}`)
	histJoinNs  = telemetry.H(`mmdb_query_ns{surface="join"}`)

	ctrPlanIndex = telemetry.C(`mmdb_plan_total{path="index"}`)
	ctrPlanScan  = telemetry.C(`mmdb_plan_total{path="scan"}`)

	histAbsorbNs   = telemetry.H(`mmdb_append_ns{outcome="absorb"}`)
	histFoldNs     = telemetry.H(`mmdb_append_ns{outcome="fold"}`)
	gaugeDeltaRows = telemetry.G("mmdb_delta_rows")
)

// notePlan counts the access path an executing query committed to (plans
// produced for inspection via PlanRange/PlanIn are not counted).
func notePlan(p Plan) {
	if p.UseIndex {
		ctrPlanIndex.Inc()
	} else {
		ctrPlanScan.Inc()
	}
}

// shardsTouched counts the shards holding span, a range's base span of
// sorted keys, given the index's split boundaries (len = shards-1, strictly
// ascending; shard i holds keys < bounds[i], the last shard the rest).
func shardsTouched(bounds, span []uint32) int {
	if len(span) == 0 {
		return 0
	}
	lo, hi := span[0], span[len(span)-1]
	first := sort.Search(len(bounds), func(i int) bool { return lo < bounds[i] })
	last := sort.Search(len(bounds), func(i int) bool { return hi < bounds[i] })
	return last - first + 1
}

package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// -compare old.json new.json: the regression gate.  Each report may hold
// several run-sets (-runs); a metric's value is the median over them and its
// spread the distance between their quartiles as a share of the median.  One
// row per workload × gated metric:
//
//	regressed   the new median is worse than the old by more than the bound
//	unresolved  within the bound, but the recorded spread exceeds the bound,
//	            and not every new run reads better than every old one
//	improved    better by more than the bound (or every new run beats every old)
//	unchanged   otherwise
//
// The command exits non-zero on a regression or a larger error_share.

// workloadGates are the end-to-end metrics the driver cannot gate: those
// only some workloads have (write latency on the two that write; log volume
// and recovery on the durable one — BENCHMARK.json requires every gated
// metric from every workload), and read_p99_us, whose seed-to-seed spread on
// the reference box exceeded its bound on three workloads.  BENCHMARK.json
// lists them as reported-only; their bounds live here, and a row whose
// recorded spread exceeds its bound reads "unresolved", not "unchanged".
var workloadGates = []specMetric{
	{Name: "read_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_amp", Unit: "ratio", Better: "lower", Bound: 0.02},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// exactCount reports whether a counter repeats exactly for a given seed and
// op count, so that runs of the same seed can be compared value by value.
// The cache counts qualify where nothing is evicted: the cache gives an entry
// whose *measured* recompute time exceeded 8µs a second CLOCK life, so under
// eviction pressure (dss_adhoc, ingest_durable) which entry goes depends on
// timing and the counts wobble by a fraction of a percent.
func exactCount(workload, name string) bool {
	switch name {
	case "mmdb.fold_count", "csstree.sim_llc_miss_per_probe":
		return true
	}
	return workload == "dss_repeat" && cacheCount(name)
}

// cacheCount reports whether name is one of the result cache's counters (as
// opposed to a ratio or a timing derived from them).
func cacheCount(name string) bool {
	switch name {
	case "qcache.hit_rate", "qcache.hits_per_insert", "qcache.hit_op_us_p50", "qcache.miss_op_us_p50":
		return false
	}
	return strings.HasPrefix(name, "qcache.")
}

// quartileSpread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(v, n=4); 0 with fewer than two values.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// collect gathers metric name's values for one workload across a report's
// runs, in run order.
func collect(rep *report, workload, name string) (vals []float64) {
	for i := range rep.Runs {
		r := &rep.Runs[i]
		if r.Workload != workload {
			continue
		}
		if m, ok := r.get(name); ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

func compareReports(sp *spec, oldPath, newPath string, stdout, stderr io.Writer) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareTo(sp, oldRep, newRep, stdout)
}

func compareTo(sp *spec, oldRep, newRep *report, w io.Writer) int {
	gates := append(slices.Clone(sp.EndToEnd), workloadGates...)
	bad := 0
	fmt.Fprintf(w, "%-15s %-22s %14s %14s %9s %7s %8s  %s\n",
		"workload", "metric", "old", "new", "change", "bound", "spread", "verdict")
	for _, wl := range sp.Workloads {
		for _, g := range gates {
			o := collect(oldRep, wl.Name, g.Name)
			n := collect(newRep, wl.Name, g.Name)
			if len(o) == 0 || len(n) == 0 {
				continue // the metric does not apply to this workload
			}
			om, nm := median(o), median(n)
			worse := (nm - om) / om // share by which the new median is worse
			allBetter := slices.Min(n) > slices.Max(o)
			if g.Better == "lower" {
				allBetter = slices.Max(n) < slices.Min(o)
			} else {
				worse = -worse
			}
			spread := max(quartileSpread(o), quartileSpread(n))
			verdict := "unchanged"
			switch {
			case worse > g.Bound:
				verdict = "REGRESSED"
				bad++
			case spread > g.Bound && !allBetter:
				verdict = "unresolved"
			case -worse > g.Bound || (spread > g.Bound && allBetter):
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-15s %-22s %14.4f %14.4f %+8.1f%% %6.1f%% %7.1f%%  %s\n",
				wl.Name, g.Name, om, nm, 100*(nm-om)/om, 100*g.Bound, 100*spread, verdict)
		}
		o := collect(oldRep, wl.Name, "error_share")
		n := collect(newRep, wl.Name, "error_share")
		if len(o) > 0 && len(n) > 0 {
			verdict := "unchanged"
			if slices.Max(n) > slices.Max(o) {
				verdict = "REGRESSED"
				bad++
			}
			fmt.Fprintf(w, "%-15s %-22s %14.6f %14.6f %9s %7s %8s  %s\n",
				wl.Name, "error_share", slices.Max(o), slices.Max(n), "", "0", "", verdict)
		}
	}

	// Counters that repeat exactly: same seed, same op counts, same code
	// give the same value.  A difference is information about the change,
	// not a regression.
	differ := 0
	for i := range oldRep.Runs {
		or := &oldRep.Runs[i]
		for j := range newRep.Runs {
			nr := &newRep.Runs[j]
			if nr.Workload != or.Workload || nr.Seed != or.Seed || nr.StreamHash != or.StreamHash {
				continue
			}
			for _, om := range or.Metrics {
				if nm, ok := nr.get(om.Name); ok && exactCount(or.Workload, om.Name) && nm.Value != om.Value {
					fmt.Fprintf(w, "count differs: %s seed %d %s: %v -> %v\n", or.Workload, or.Seed, om.Name, om.Value, nm.Value)
					differ++
				}
			}
		}
	}
	fmt.Fprintf(w, "%d regressed, %d exact counts differ\n", bad, differ)
	if bad > 0 {
		return 1
	}
	return 0
}

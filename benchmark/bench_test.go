package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The tests run all five workloads, traced, at 1/200 of the data sizes, so
// `go test` in this directory exercises every code path of the benchmark in
// a few seconds.

func testConfig(t *testing.T) config {
	t.Helper()
	minTail = 0 // the scaled-down streams are short: report every percentile
	return config{seed: 7, seconds: 10, scale: 1.0 / 200, trace: true, outDir: t.TempDir()}
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// expectOn lists, for metrics that only some workloads report, where each
// must appear.
var expectOn = map[string][]string{
	"write_p50_us":                      {"serve_sharded", "ingest_durable"},
	"write_p99_us":                      {"serve_sharded", "ingest_durable"},
	"write_amp":                         {"ingest_durable"},
	"recovery_s":                        {"ingest_durable"},
	"csstree.batch_ns_per_probe":        {"probe_uniform", "serve_sharded"},
	"binsearch.node_ns_per_visit":       {"probe_uniform"},
	"parallel.speedup":                  {"probe_uniform"},
	"baseline.css_speedup_vs_binsearch": {"probe_uniform"},
	"shard.folds":                       {"serve_sharded"},
	"shard.route_ns_per_probe":          {"serve_sharded"},
	"sortu32.sort_ns_per_key":           {"probe_uniform", "serve_sharded"},
	"domain.build_ns_per_row":           {"dss_repeat", "dss_adhoc", "ingest_durable"},
	"qcache.hit_rate":                   {"dss_repeat", "dss_adhoc", "ingest_durable"},
	"qcache.hit_op_us_p50":              {"dss_repeat"},
	"mmdb.join_p50_us":                  {"dss_repeat", "dss_adhoc"},
	"mmdb.plan_ns":                      {"dss_repeat", "dss_adhoc"},
	"mmdb.fold_count":                   {"ingest_durable"},
	"mmdb.absorb_us_p50":                {"ingest_durable"},
	"wal.append_us_p50":                 {"ingest_durable"},
	"wal.checkpoint_ms_p50":             {"ingest_durable"},
	"failfs.fsyncs":                     {"ingest_durable"},
	"telemetry.enabled_overhead_pct":    {"dss_repeat"},
}

func TestWorkloadsEmitTheCatalogue(t *testing.T) {
	cfg, sp := testConfig(t), loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOf := map[string]string{}
	gated := map[string]bool{}
	for _, m := range sp.EndToEnd {
		unitOf[m.Name], gated[m.Name] = m.Unit, true
	}
	for _, m := range sp.PerLayer {
		if _, dup := unitOf[m.Name]; dup {
			t.Errorf("BENCHMARK.json names %s twice", m.Name)
		}
		unitOf[m.Name] = m.Unit
	}
	for name := range unitOf {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", name)
		}
	}
	if len(sp.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(scenarios))
	}

	emittedBy := map[string][]string{}
	for i, w := range scenarios {
		if sp.Workloads[i].Name != w.name() {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the benchmark", i, sp.Workloads[i].Name, w.name())
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name(), res.Failed, res.Attempted, res.failures)
		}
		if es, ok := res.get("error_share"); !ok || es.Value != 0 {
			t.Errorf("%s: error_share = %v, want 0", w.name(), es.Value)
		}
		if res.TraceFile == "" || len(res.Layers) == 0 {
			t.Errorf("%s: the traced pass left no span file or layer summary", w.name())
		}
		seen := map[string]bool{}
		for _, m := range res.Metrics {
			if seen[m.Name] {
				t.Errorf("%s emits %s twice", w.name(), m.Name)
			}
			seen[m.Name] = true
			emittedBy[m.Name] = append(emittedBy[m.Name], w.name())
			if unit, ok := unitOf[m.Name]; !ok {
				t.Errorf("%s emits %s, which BENCHMARK.json does not list", w.name(), m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s emits %s in %q, BENCHMARK.json says %q", w.name(), m.Name, m.Unit, unit)
			}
		}
		for name := range gated {
			if m, ok := res.get(name); !ok || m.Value <= 0 {
				t.Errorf("%s: gated metric %s = %v (reported: %v), want a positive value", w.name(), name, m.Value, ok)
			}
		}
		for _, traced := range []bool{false, true} {
			line, err := driverLine(sp, res, traced)
			if err != nil {
				t.Fatalf("%s: %v", w.name(), err)
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("%s: driver line %q: %v", w.name(), line, err)
			}
			want := len(sp.EndToEnd)
			if traced {
				want = len(sp.PerLayer)
			}
			if !got.Correct || got.Attempted < 1 || len(got.Metrics) != want {
				t.Errorf("%s: driver line has correct=%v attempted=%d and %d metrics, want %d", w.name(), got.Correct, got.Attempted, len(got.Metrics), want)
			}
		}
	}
	for name := range unitOf {
		if len(emittedBy[name]) == 0 {
			t.Errorf("no workload emits %s", name)
		}
	}
	for name, on := range expectOn {
		for _, w := range on {
			if !slices.Contains(emittedBy[name], w) {
				t.Errorf("%s does not emit %s", w, name)
			}
		}
	}
}

// TestSameSeedSameStream runs every workload twice: equal seeds must give
// equal op streams and equal values for the counts that do not depend on
// timing.
func TestSameSeedSameStream(t *testing.T) {
	cfg := testConfig(t)
	cfg.admitAll = true // see config.admitAll: default admission depends on timing at this scale
	for _, w := range scenarios {
		a, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		b, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		if a.StreamHash != b.StreamHash {
			t.Errorf("%s: stream hashes %s and %s differ for one seed", w.name(), a.StreamHash, b.StreamHash)
		}
		for _, m := range a.Metrics {
			// With admission off timing, the cache counts are exact on
			// every workload, not only where nothing is evicted.
			if !exactCount(w.name(), m.Name) && !cacheCount(m.Name) {
				continue
			}
			if n, ok := b.get(m.Name); !ok || n.Value != m.Value {
				t.Errorf("%s: %s = %v, then %v", w.name(), m.Name, m.Value, n.Value)
			}
		}
		other := cfg
		other.seed++
		in, err := w.setup(other)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		if h := fmt.Sprintf("%016x", in.streamHash()); h == a.StreamHash {
			t.Errorf("%s: seeds %d and %d give the same stream", w.name(), cfg.seed, other.seed)
		}
		if err := in.close(); err != nil {
			t.Errorf("%s: %v", w.name(), err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp := loadSpec(t)
	mk := func(opsPerS []float64, errShare float64) *report {
		rep := &report{}
		for i, v := range opsPerS {
			r := result{Workload: "dss_repeat", Seed: int64(i), StreamHash: "x"}
			r.put("ops_per_s", "1/s", v, 1)
			r.put("error_share", "ratio", errShare, 1)
			r.put("qcache.misses", "count", v, 1)
			rep.Runs = append(rep.Runs, r)
		}
		return rep
	}
	bound := 0.0
	for _, m := range sp.EndToEnd {
		if m.Name == "ops_per_s" {
			bound = m.Bound
		}
	}
	if bound <= 0 || bound > 0.25 {
		t.Fatalf("ops_per_s bound = %v", bound)
	}
	steady := []float64{1000, 1001, 1002, 1003, 1004}
	noisy := []float64{600, 800, 1000, 1200, 1400}
	for _, c := range []struct {
		name     string
		old, new *report
		verdict  string
		exit     int
	}{
		{"same", mk(steady, 0), mk(steady, 0), "unchanged", 0},
		{"slower", mk(steady, 0), mk([]float64{500, 501, 502, 503, 504}, 0), "REGRESSED", 1},
		{"faster", mk(steady, 0), mk([]float64{2000, 2001, 2002, 2003, 2004}, 0), "improved", 0},
		{"noisy", mk(noisy, 0), mk(noisy, 0), "unresolved", 0},
		{"errors", mk(steady, 0), mk(steady, 0.01), "REGRESSED", 1},
	} {
		var out bytes.Buffer
		if exit := compareTo(sp, c.old, c.new, &out); exit != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, exit, c.exit, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.verdict, out.String())
		}
	}
	var out bytes.Buffer
	compareTo(sp, mk(steady, 0), mk([]float64{1000, 1001, 1002, 1003, 999}, 0), &out)
	if !strings.Contains(out.String(), "count differs") {
		t.Errorf("a changed exact count went unreported:\n%s", out.String())
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestReportedSegment feeds a phase four segments, one of them three times
// slower than the rest: a steady stream must report the fastest segment, any
// other stream the median one, and a tail percentile never the fastest.
func TestReportedSegment(t *testing.T) {
	minTail = 0
	classes := []classDef{{"read", kindRead}}
	for _, steady := range []bool{true, false} {
		ph := newPhase(classes, 400, segmentation{n: 4, steady: steady}, nil)
		for !ph.finished() {
			seg := max(ph.seg, 0)       // -1 while warming up
			ns := int64(1000 + 100*seg) // segments at 1.0, 1.1, 1.2, 1.3µs per op
			if seg == 1 {
				ns *= 3
			}
			ph.add(0, ns)
		}
		near := func(got, want float64) bool { return got > want*0.999 && got < want*1.001 }
		wantRate, wantP50, wantP99 := 1e9/1000, 1000.0, (1200.0+1300)/2
		if !steady {
			wantRate, wantP50 = (1e9/1200+1e9/1300)/2, (1200.0+1300)/2
		}
		if got := ph.opsPerSecond(); !near(got, wantRate) {
			t.Errorf("steady=%v: ops_per_s = %v, want about %v", steady, got, wantRate)
		}
		if got, _, _ := ph.pct(ofKind(kindRead), 50); !near(got, wantP50) {
			t.Errorf("steady=%v: p50 = %v, want about %v", steady, got, wantP50)
		}
		if got, _, _ := ph.pct(ofKind(kindRead), 99); !near(got, wantP99) {
			t.Errorf("steady=%v: p99 = %v, want about %v", steady, got, wantP99)
		}
	}
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cssidx/internal/telemetry"
	"cssidx/internal/workload"
)

func TestExploreSingleKind(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-kind", "levelcss", "-n", "5000", "-lookups", "500"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "level CSS-tree") {
		t.Errorf("output missing method name:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "L2 miss/lkp") {
		t.Error("header missing")
	}
}

func TestExploreAllKinds(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-kind", "all", "-n", "3000", "-lookups", "300", "-machine", "pc"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	for _, want := range []string{"array binary search", "T-tree", "B+-tree", "full CSS-tree", "hash", "Pentium"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestExploreDistributions(t *testing.T) {
	for _, dist := range []string{"uniform", "linear", "skewed", "dups"} {
		var out, errb bytes.Buffer
		code := run([]string{"-kind", "binary", "-n", "2000", "-lookups", "200", "-dist", dist}, &out, &errb)
		if code != 0 {
			t.Fatalf("dist=%s: exit=%d stderr=%s", dist, code, errb.String())
		}
	}
}

func TestExploreBadInputs(t *testing.T) {
	cases := [][]string{
		{"-kind", "btree"},
		{"-dist", "bimodal"},
		{"-machine", "cray"},
		{"-badflag"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit=%d, want 2", args, code)
		}
	}
}

// writeProbeFile writes a probe file with hits and misses for the seed-1
// uniform key set run generates, returning its path and the hit count.
func writeProbeFile(t *testing.T, n, q int) (path string, hits int) {
	t.Helper()
	g := workload.New(1)
	keys := g.SortedUniform(n) // same keys run() builds for -n with -seed 1
	probes := append(g.Lookups(keys, q), g.Misses(keys, q/2)...)
	hits = q
	var b strings.Builder
	for i, p := range probes {
		fmt.Fprintf(&b, "%d\n", p)
		if i == 0 {
			b.WriteString("\n") // blank lines are skipped
		}
	}
	path = filepath.Join(t.TempDir(), "probes.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, hits
}

func TestBatchModeFile(t *testing.T) {
	path, hits := writeProbeFile(t, 4000, 600)
	for _, extra := range [][]string{nil, {"-schedule", "sorted"}, {"-kind", "hash"}, {"-workers", "4"}, {"-workers", "0"}, {"-schedule", "sorted", "-workers", "3"}} {
		args := append([]string{"-kind", "levelcss", "-n", "4000", "-probefile", path, "-batch", "128"}, extra...)
		if len(extra) > 0 && extra[0] == "-kind" { // kind override replaces the leading pair
			args = append([]string{"-n", "4000", "-probefile", path, "-batch", "128"}, extra...)
		}
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		if code != 0 {
			t.Fatalf("args %v: exit=%d stderr=%s", args, code, errb.String())
		}
		s := out.String()
		if !strings.Contains(s, fmt.Sprintf("%d hits", hits)) {
			t.Errorf("args %v: expected %d hits in summary:\n%s", args, hits, s)
		}
		if !strings.Contains(s, "Mkeys/s") || !strings.Contains(s, "per-batch min") {
			t.Errorf("args %v: missing per-batch timing report:\n%s", args, s)
		}
	}
}

func TestBatchModeCached(t *testing.T) {
	path, _ := writeProbeFile(t, 4000, 600)
	var out, errb bytes.Buffer
	code := run([]string{"-kind", "levelcss", "-n", "4000", "-probefile", path, "-batch", "128", "-cache"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "result cache on") || !strings.Contains(s, "cache: ") {
		t.Errorf("missing cache stats dump:\n%s", s)
	}
	if !strings.Contains(s, "matching rows") {
		t.Errorf("missing summary:\n%s", s)
	}
	// The same probe file twice over one process sees repeated batches
	// only when the file itself repeats, so just require the cache to
	// have recorded activity.
	if !strings.Contains(s, "inserts") || !strings.Contains(s, "deferred at first sight") {
		t.Errorf("missing cache counters:\n%s", s)
	}
}

func TestBatchModeBadInputs(t *testing.T) {
	path, _ := writeProbeFile(t, 1000, 50)
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("12\nnope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-kind", "all", "-probefile", path},                         // batch mode needs one kind
		{"-kind", "btree", "-probefile", path},                       // unknown kind
		{"-kind", "hash", "-probefile", path, "-schedule", "sorted"}, // hash has no ordered schedule
		{"-kind", "hash", "-probefile", path, "-workers", "4"},       // hash has no parallel batch either
		{"-probefile", bad},                                          // malformed key
		{"-probefile", empty},                                        // no keys
		{"-probefile", filepath.Join(t.TempDir(), "missing.txt")},    // unreadable
		{"-probefile", path, "-batch", "0"},                          // bad batch size
		{"-probefile", path, "-cache", "-schedule", "sorted"},        // cache mode owns the schedule
		{"-probefile", path, "-cache", "-workers", "4"},              // ...and the worker count
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(append([]string{"-n", "1000"}, args...), &out, &errb); code != 2 {
			t.Errorf("args %v: exit=%d, want 2 (stderr=%s)", args, code, errb.String())
		}
	}
}

func TestExploreHashDirOverride(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-kind", "hash", "-n", "5000", "-lookups", "200", "-hashdir", "64"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
}

// TestBatchModeResolvedSchedule pins the -schedule fix: timings must be
// tagged with the schedule each batch actually descended under, and the
// summary counts the resolution outcomes.
func TestBatchModeResolvedSchedule(t *testing.T) {
	// Heavily duplicated probes: auto resolves every large batch to sorted.
	g := workload.New(1)
	keys := g.SortedUniform(4000)
	var b strings.Builder
	for i := 0; i < 2048; i++ {
		fmt.Fprintf(&b, "%d\n", keys[i%7])
	}
	dupPath := filepath.Join(t.TempDir(), "dups.txt")
	if err := os.WriteFile(dupPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-kind", "levelcss", "-n", "4000", "-probefile", dupPath, "-batch", "512", "-schedule", "auto"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "auto schedule requested") {
		t.Errorf("missing requested schedule in header:\n%s", s)
	}
	if !strings.Contains(s, "sorted") {
		t.Errorf("duplicate-saturated batches should resolve to sorted:\n%s", s)
	}
	if !strings.Contains(s, "resolved schedules: 0 input-order, 4 sorted") {
		t.Errorf("missing/incorrect resolution summary:\n%s", s)
	}

	// Distinct uniform probes: auto resolves to input-order.
	probePath, _ := writeProbeFile(t, 4000, 600)
	out.Reset()
	errb.Reset()
	code = run([]string{"-kind", "levelcss", "-n", "4000", "-probefile", probePath, "-batch", "512", "-schedule", "auto"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	if s := out.String(); !strings.Contains(s, "0 sorted") {
		t.Errorf("uniform distinct batches should resolve to input-order:\n%s", s)
	}

	// Explicit schedules work.
	for _, extra := range [][]string{{"-schedule", "sorted"}, {"-schedule", "input"}, {"-schedule", "sorted", "-workers", "2"}} {
		out.Reset()
		errb.Reset()
		args := append([]string{"-kind", "levelcss", "-n", "4000", "-probefile", probePath, "-batch", "128"}, extra...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("args %v: exit=%d stderr=%s", extra, code, errb.String())
		}
	}
	// Unknown schedule errors.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-kind", "levelcss", "-n", "4000", "-probefile", probePath, "-schedule", "wat"}, &out, &errb); code != 2 {
		t.Fatalf("unknown schedule: exit=%d, want 2", code)
	}
}

func TestWALModeLogsThenRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	var out, errb bytes.Buffer
	code := run([]string{"-kind", "levelcss", "-n", "5000", "-lookups", "200", "-wal", dir, "-fsync", "always"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wal: logged 5000 keys") {
		t.Errorf("first run did not log:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	code = run([]string{"-kind", "levelcss", "-n", "5000", "-lookups", "200", "-wal", dir}, &out, &errb)
	if code != 0 {
		t.Fatalf("rerun exit=%d stderr=%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wal: recovered 5000 keys") {
		t.Errorf("rerun did not recover:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "level CSS-tree") {
		t.Errorf("rerun did not index the recovered keys:\n%s", out.String())
	}
}

func TestWALModeBadPolicy(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-wal", t.TempDir(), "-fsync", "sometimes", "-n", "100"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit=%d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown fsync policy") {
		t.Errorf("stderr = %s", errb.String())
	}
}

func TestExplainMode(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-explain", "-n", "50000"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{
		"EXPLAIN ANALYZE",
		"plan",
		"outcome=miss",
		"outcome=hit",
		"path=sorted-index",
		"path=indexed-nested-loop",
		"path=domain-array",
		"JoinWith probes.k = keys.k",
		"GroupAggregate by g over k",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q:\n%s", want, s)
		}
	}
}

func TestExplainNeedsOrderedKind(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-explain", "-kind", "hash", "-n", "1000"}, &out, &errb); code != 2 {
		t.Fatalf("exit=%d, want 2; stderr=%s", code, errb.String())
	}
}

// TestGovernedExplainBudgetAbort pins the -mem-budget satellite: a budget
// small enough for the point query but not the range scan aborts the run
// with a typed error AND still renders the partial EXPLAIN ANALYZE tree,
// annotated at the span where execution stopped.
func TestGovernedExplainBudgetAbort(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-explain", "-n", "20000", "-mem-budget", "2048"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit=%d, want 1; stderr=%s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "outcome=hit") {
		t.Errorf("point query should fit the budget and hit the cache warm:\n%s", s)
	}
	if !strings.Contains(s, "ABORTED: governor: memory budget exceeded") {
		t.Errorf("missing typed abort banner:\n%s", s)
	}
	if !strings.Contains(s, "aborted=governor: memory budget exceeded") {
		t.Errorf("partial trace missing the aborted span annotation:\n%s", s)
	}
	if !strings.Contains(errb.String(), "aborted by the governance context") {
		t.Errorf("stderr missing abort summary: %s", errb.String())
	}
}

// TestGovernedExplainDeadline: an already-hopeless -timeout aborts every
// query leg with the deadline error, partial traces still print.
func TestGovernedExplainDeadline(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-explain", "-n", "20000", "-timeout", "1ns"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit=%d, want 1; stderr=%s", code, errb.String())
	}
	if s := out.String(); !strings.Contains(s, "aborted=context deadline exceeded") {
		t.Errorf("partial traces missing deadline annotation:\n%s", s)
	}
	if !strings.Contains(errb.String(), "10 query leg(s) aborted") {
		t.Errorf("stderr = %s", errb.String())
	}
}

// TestGovernedExplainClean: generous limits change nothing — the governed
// run exits 0 with the same trace shapes as an ungoverned one.
func TestGovernedExplainClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-explain", "-n", "20000", "-timeout", "1m", "-mem-budget", "268435456"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"outcome=miss", "outcome=hit", "GroupAggregate by g over k"} {
		if !strings.Contains(s, want) {
			t.Errorf("governed clean run missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "ABORTED") {
		t.Errorf("generous limits aborted something:\n%s", s)
	}
}

// TestGovernedBatchModesTimeout: both batch loops honor the deadline with
// a typed abort message instead of running to completion.
func TestGovernedBatchModesTimeout(t *testing.T) {
	path, _ := writeProbeFile(t, 4000, 600)
	for _, extra := range [][]string{{"-cache"}, nil} {
		var out, errb bytes.Buffer
		args := append([]string{"-kind", "levelcss", "-n", "4000", "-probefile", path, "-batch", "64", "-timeout", "1ns"}, extra...)
		code := run(args, &out, &errb)
		if code != 1 {
			t.Fatalf("args %v: exit=%d, want 1; stderr=%s", args, code, errb.String())
		}
		es := errb.String()
		if !strings.Contains(es, "aborted after") || !strings.Contains(es, "context deadline exceeded") {
			t.Errorf("args %v: stderr = %s", args, es)
		}
	}
}

// TestGovernedWALTimeout: the durable append loop honors the deadline and
// reports how far the log got before the abort.
func TestGovernedWALTimeout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	var out, errb bytes.Buffer
	code := run([]string{"-kind", "levelcss", "-n", "5000", "-wal", dir, "-timeout", "1ns"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit=%d, want 1; stderr=%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "aborted logging keys") {
		t.Errorf("stderr = %s", errb.String())
	}
}

// TestMetricsScrape drives a cached workload with collection enabled and
// scrapes the registry through the same mux -metrics serves: the body
// must parse as Prometheus text and carry the core engine series.
func TestMetricsScrape(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	path, _ := writeProbeFile(t, 4000, 600)
	var out, errb bytes.Buffer
	if code := run([]string{"-kind", "levelcss", "-n", "4000", "-probefile", path, "-batch", "128", "-cache"}, &out, &errb); code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb.String())
	}
	srv := httptest.NewServer(telemetry.Default.Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidatePrometheus(body); err != nil {
		t.Fatalf("scrape does not parse: %v\nbody:\n%s", err, body)
	}
	for _, series := range []string{"qcache_hits_total", "mmdb_query_ns", "mmdb_plan_total"} {
		if !strings.Contains(string(body), series) {
			t.Errorf("scrape missing series %s", series)
		}
	}
}

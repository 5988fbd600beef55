package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"cssidx/internal/binsearch"
)

// metric is one reported number.  N is the number of samples (timed calls,
// or ops for a ratio) behind Value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// layerTime is a layer's share of a traced pass: the spans the harness
// opened around calls into it, and their self time (span minus the interval
// its children cover).
type layerTime struct {
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
}

// result is one run of one workload.
type result struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Ops          map[string]int `json:"ops"` // timed calls per class, whole stream
	Attempted    int            `json:"attempted"`
	Failed       int            `json:"failed"`
	PhaseSeconds float64        `json:"phase_seconds"`
	BusySeconds  float64        `json:"busy_seconds"`
	// SegmentOpsPerS is ops_per_s of each segment, in stream order: a host
	// that slowed down mid-run shows here.
	SegmentOpsPerS []float64 `json:"segment_ops_per_s"`
	// StreamHash fingerprints the generated op stream: equal seeds and op
	// counts give equal hashes.
	StreamHash   string               `json:"stream_hash"`
	SpinMsBefore float64              `json:"spin_ms_before"`
	SpinMsAfter  float64              `json:"spin_ms_after"`
	HostNoisePct float64              `json:"host_noise_pct"`
	Calibration  map[string]any       `json:"calibration,omitempty"`
	Metrics      []metric             `json:"metrics"`
	Layers       map[string]layerTime `json:"layers,omitempty"`
	TraceFile    string               `json:"trace_file,omitempty"`

	failures []string
}

func (r *result) put(name, unit string, value float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, N: n})
}

// note records a calibration or configuration value beside the metrics.
func (r *result) note(key string, v any) {
	if r.Calibration == nil {
		r.Calibration = map[string]any{}
	}
	r.Calibration[key] = v
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// fail records an op that errored or disagreed with the oracle.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// header describes the host and the configuration a report was taken on.
type header struct {
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	Scale       float64  `json:"scale"`
	Trace       bool     `json:"trace"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NProc       int      `json:"nproc"`
	CPUModel    string   `json:"cpu_model"`
	Kernel      string   `json:"binsearch_kernel"`
	FsyncPolicy string   `json:"fsync_policy"`
	Workloads   []string `json:"workloads"`
}

// report is what -json writes: the header and every run.
type report struct {
	Header header   `json:"header"`
	Runs   []result `json:"runs"`
}

func newHeader(cfg config, names []string) header {
	return header{
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Scale:       cfg.scale,
		Trace:       cfg.trace,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		CPUModel:    cpuModel(),
		Kernel:      binsearch.ActiveKernel().String(),
		FsyncPolicy: fsyncPolicyName,
		Workloads:   names,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// printResult lists every metric of a run by name, with its unit and the
// number of samples behind it.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  seed=%d  ops=%d  failed=%d  phase=%.2fs busy=%.2fs  host_noise=%.1f%%\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.PhaseSeconds, r.BusySeconds, r.HostNoisePct)
	classes := make([]string, 0, len(r.Ops))
	for c := range r.Ops {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "   calls %-14s %d\n", c, r.Ops[c])
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "   %-36s %16.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

// spec is the part of BENCHMARK.json the benchmark reads: the catalogue of
// workloads and reported metrics.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// locate finds BENCHMARK.json and the benchmark's output directory from the
// working directory: the checkout root (run.sh) or benchmark/ (go run .).
func locate() (specPath, outDir string, err error) {
	for _, c := range []struct{ spec, out string }{
		{"BENCHMARK.json", filepath.Join("benchmark", "out")},
		{filepath.Join("..", "BENCHMARK.json"), "out"},
	} {
		if _, serr := os.Stat(c.spec); serr == nil {
			return c.spec, c.out, nil
		}
	}
	return "", "", fmt.Errorf("BENCHMARK.json not found: run from the repository root or from benchmark/")
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// driverLine is the one-object summary the driver reads from the last line
// of standard output: the end-to-end metrics of an untraced run, or the
// per-layer metrics of a traced one.  A per-layer metric whose layer is not
// on this workload's path reads 0.
func driverLine(s *spec, r *result, traced bool) (string, error) {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for _, sm := range want {
		m, ok := r.get(sm.Name)
		if !ok && !traced {
			return "", fmt.Errorf("workload %s did not report end-to-end metric %s", r.Workload, sm.Name)
		}
		out.Metrics[sm.Name] = mv{m.Value, sm.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

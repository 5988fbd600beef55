// Package bench is the paper suite: the experiment harness that regenerates
// every table and figure of the paper's evaluation (§6, §7).  Each experiment
// is registered under the paper's artifact id (table1, fig5 … fig14, plus the
// skew study of its §3.5/§5.1 claims) and prints the same rows/series the
// paper reports.  The extension layers are measured elsewhere: end to end by
// the gated benchmark/ module, layer by layer by Go benchmarks in the
// package each one lives in.
//
// Two measurement modes back the lookup-time experiments:
//
//   - simulated: address traces (internal/simidx) against the paper's exact
//     cache configurations (internal/cachesim), with the §5.1 cost model —
//     deterministic, machine-independent, directly comparable to the paper's
//     Ultra Sparc II / Pentium II curves;
//   - host: wall-clock timing of the real implementations on the current
//     CPU, following the paper's protocol (pre-generated random matching
//     keys, repeated runs, minimum reported).
//
// The experiments and the shapes they must reproduce are listed by
// `cssbench -list` (README "Commands"); README "Model vs measured" records
// paper-vs-measured values.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"
)

// Config controls a run of the paper suite.
type Config struct {
	Seed    int64  // workload seed (default 1)
	Lookups int    // lookups per measurement (default 100000, the paper's count)
	Machine string // "ultra" (default) or "pc" for simulated experiments
	Quick   bool   // shrink data sizes for smoke runs / CI
	Repeats int    // wall-clock repetitions, minimum reported (default 3; paper used 5)

	// Recorder, when non-nil, collects machine-readable measurements from
	// experiments that emit them (cssbench -json), alongside their table
	// output.
	Recorder *Recorder
}

// Record is one machine-readable measurement of an experiment cell: the
// experiment id, the parameters identifying the cell, and one metric value.
type Record struct {
	Experiment string         `json:"experiment"`
	Params     map[string]any `json:"params,omitempty"`
	Metric     string         `json:"metric"`
	Value      float64        `json:"value"`
	Unit       string         `json:"unit,omitempty"`
}

// Recorder accumulates Records; safe for concurrent Add.
type Recorder struct {
	mu      sync.Mutex
	records []Record
}

// Add appends one record.
func (r *Recorder) Add(rec Record) {
	r.mu.Lock()
	r.records = append(r.records, rec)
	r.mu.Unlock()
}

// Records returns the accumulated records in insertion order.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.records...)
}

// record is the experiments' no-op-when-unset emission helper.
func (c Config) record(rec Record) {
	if c.Recorder != nil {
		c.Recorder.Add(rec)
	}
}

// WriteJSON writes the records as one indented JSON document with enough
// environment context (Go version, GOMAXPROCS) to compare baselines across
// machines and commits.
func (r *Recorder) WriteJSON(w io.Writer) error {
	doc := struct {
		GoVersion  string   `json:"go_version"`
		GOMAXPROCS int      `json:"gomaxprocs"`
		NumCPU     int      `json:"num_cpu"`
		Records    []Record `json:"records"`
	}{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Records:    r.Records(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Lookups == 0 {
		c.Lookups = 100000
	}
	if c.Machine == "" {
		c.Machine = "ultra"
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	return c
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// Experiments returns all experiments in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: parameters and their typical values", runTable1},
		{"fig5", "Figure 5: comparison and cache-access ratio, level vs full CSS-trees", runFig5},
		{"fig6", "Figure 6: time analysis (branching, levels, comparisons, cache misses)", runFig6},
		{"fig7", "Figure 7: space analysis (indirect and direct)", runFig7},
		{"fig8", "Figure 8: space under typical configuration, varying n", runFig8},
		{"fig9", "Figure 9: building time for CSS-trees", runFig9},
		{"fig10", "Figure 10: search time varying array size (Ultra Sparc II)", runFig10},
		{"fig11", "Figure 11: search time varying array size (Pentium II)", runFig11},
		{"fig12", "Figure 12: search time varying node size (Ultra Sparc II)", runFig12},
		{"fig13", "Figure 13: search time varying node size (Pentium II)", runFig13},
		{"fig14", "Figure 2/14: space/time trade-offs and the stepped frontier", runFig14},
		{"skew", "Extension: skew sensitivity (interpolation, hash chains, Zipf warm cache)", runSkew},
	}
}

// Lookup finds an experiment by id ("fig2" aliases fig14).
func Lookup(id string) (Experiment, bool) {
	if id == "fig2" {
		id = "fig14"
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Sink defeats dead-code elimination in timing loops; its value is
// meaningless.
var Sink int

// MeasureLookups times the whole probe sequence through search, repeating
// per the paper's protocol and returning the minimum seconds.
func MeasureLookups(search func(uint32) int, probes []uint32, repeats int) float64 {
	if repeats < 1 {
		repeats = 1
	}
	best := 0.0
	for r := 0; r < repeats; r++ {
		s := 0
		start := time.Now()
		for _, k := range probes {
			s += search(k)
		}
		elapsed := time.Since(start).Seconds()
		Sink += s
		if r == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best
}

// Measure times an arbitrary step, repeating and returning the minimum
// seconds (used for build-time experiments).
func Measure(step func(), repeats int) float64 {
	if repeats < 1 {
		repeats = 1
	}
	best := 0.0
	for r := 0; r < repeats; r++ {
		start := time.Now()
		step()
		elapsed := time.Since(start).Seconds()
		if r == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best
}

// table accumulates aligned rows for paper-style output.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// secs formats seconds the way the paper's y-axes read.
func secs(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-4:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.4fs", s)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// mb formats bytes in the paper's decimal megabytes.
func mb(b float64) string {
	return fmt.Sprintf("%.2f MB", b/1e6)
}

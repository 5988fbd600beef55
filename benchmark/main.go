// Command benchmark is the engine's one end-to-end benchmark: five
// workloads driven closed-loop from one client goroutine through the public
// surfaces of every layer (CSS-tree kernels, parallel batching, sharded
// serving, the mmdb planner and delta layer, the result cache, the
// write-ahead log), each answer checked against an oracle.  README.md says
// why each workload exists and which layer metric is expected to move which
// end-to-end metric; BENCHMARK.json at the repository root is the catalogue
// of metric names, units and regression bounds.
//
//	go run . -seed 1 -json out/run.json          every workload, untraced
//	go run . -workload dss_repeat -trace 1       add the traced pass
//	go run . -compare old.json new.json          gate one report against another
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"cssidx/internal/mmdb"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // stream length: op counts are opsPerSecond × seconds
	scale   float64 // data-size multiplier; 1 except in the package's tests
	trace   bool
	outDir  string // result, span and durable-store files
	// tracedPass is set while building the state the traced replay runs on.
	tracedPass bool
	// admitAll turns the result cache's cost floor off.  The floor compares
	// a query's measured time with 1µs (and gives entries measured above
	// 8µs a second CLOCK life), so at the tests' 1/200 scale, where queries
	// take about that long, admission depends on timing and no cache count
	// repeats.  The determinism test sets it; measured runs keep the
	// engine's default admission.
	admitAll bool
}

// cacheOptions is the mmdb workloads' result cache: the stated budget,
// everything else the engine's default.
func (c config) cacheOptions(maxBytes int64) mmdb.CacheOptions {
	o := mmdb.CacheOptions{MaxBytes: int64(float64(maxBytes) * c.scale)}
	if c.admitAll {
		o.MinCostNs = -1
	}
	return o
}

// n scales a full-size count (rows, keys) by cfg.scale.
func (c config) n(full int) int { return max(int(float64(full)*c.scale), 1) }

// ops turns a pinned per-second rate into this run's op count.
func (c config) ops(perSecond float64) int {
	return max(int(perSecond*c.seconds*c.scale), 64)
}

// A scenario builds engine state from a seed; an instance is one built state
// and the op stream that runs on it.
type scenario interface {
	name() string
	setup(cfg config) (instance, error)
}

type instance interface {
	classes() []classDef
	// opCount is the number of read and write ops in the stream;
	// callsPerClass the timed calls of each class.
	opCount() int
	callsPerClass() []int
	// segments is how the measured ops are cut and which part is reported.
	segments() segmentation
	streamHash() uint64
	// run executes the first limit ops, timing each engine call into ph
	// and, when tr is non-nil, recording a span per op and per call.
	run(ph *phase, tr *tracer, limit int, res *result)
	// verify runs the oracle checks that were deferred out of the
	// measured pass, and the end-of-stream state checks.
	verify(res *result)
	// report adds the metrics this workload derives from the untraced pass
	// beyond the common end-to-end set.
	report(ph *phase, res *result)
	// heapRows is the number of keys or rows the engine holds.
	heapRows() int
	// release drops the harness's own data (probe pools, oracle copies) so
	// that only the engine's memory stays reachable.
	release()
	// counters names and samples the counts a traced span carries.
	counters() ([]string, func(*[maxCounts]int64))
	// isolate runs the layer-isolation measurements on the workload's data,
	// one span each, and reports what the traced pass collected.
	isolate(cfg config, tr *tracer, res *result) error
	close() error
}

var scenarios = []scenario{probeUniform{}, serveSharded{}, dss{repeat: true}, dss{repeat: false}, ingestDurable{}}

// setupRepeats is how many times an untraced run builds the workload's
// state; setup_s is their median.
const setupRepeats = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated data and op streams")
	seconds := fs.Float64("seconds", 0, "stream length; 0 means run_seconds of BENCHMARK.json")
	trace := fs.Int("trace", 0, "1 adds the traced pass and the layer-isolation measurements")
	jsonPath := fs.String("json", "", "write the full report (header, every metric, sample counts) to this file")
	runs := fs.Int("runs", 1, "run-sets: repeat every workload with seeds seed, seed+1, …")
	compare := fs.Bool("compare", false, "compare two -json reports: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	specPath, outDir, err := locate()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two report files")
			return 2
		}
		return compareReports(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: 1, trace: *trace != 0, outDir: outDir}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	var picked []scenario
	var names []string
	for _, w := range scenarios {
		if *name == "all" || *name == w.name() {
			picked = append(picked, w)
			names = append(names, w.name())
		}
	}
	if len(picked) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	rep := report{Header: newHeader(cfg, names)}
	fmt.Fprintf(stdout, "benchmark: seed=%d seconds=%g trace=%v %s GOMAXPROCS=%d nproc=%d cpu=%q kernel=%s fsync=%s\n",
		cfg.seed, cfg.seconds, cfg.trace, rep.Header.GoVersion, rep.Header.GOMAXPROCS, rep.Header.NProc,
		rep.Header.CPUModel, rep.Header.Kernel, rep.Header.FsyncPolicy)
	failed := false
	for r := 0; r < *runs; r++ {
		c := cfg
		c.seed = cfg.seed + int64(r)
		for _, w := range picked {
			res, err := runWorkload(w, c)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name(), err)
				return 1
			}
			printResult(stdout, res)
			failed = failed || res.Failed > 0
			rep.Runs = append(rep.Runs, *res)
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if len(picked) == 1 && *runs == 1 {
		line, err := driverLine(sp, &rep.Runs[0], cfg.trace)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if failed {
		return 1
	}
	return 0
}

// runWorkload is the protocol every workload follows: build the state
// (several times when untraced: set-up time is a gated metric), run the whole
// stream untraced for the end-to-end numbers, check the answers, measure the
// live heap, and — with -trace — rebuild the state and replay the first
// quarter of the stream with spans, then measure the layers in isolation.
func runWorkload(w scenario, cfg config) (*result, error) {
	res := &result{Workload: w.name(), Seed: cfg.seed, Ops: map[string]int{}}
	res.SpinMsBefore = spinMs()

	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var inst instance
	defer func() {
		if inst != nil {
			_ = inst.close() // an error path: the error that led here is the one reported
		}
	}()
	// rebuild replaces the current state with a freshly built one and
	// returns how long the build took.
	rebuild := func(c config) (float64, error) {
		if inst != nil {
			err := inst.close()
			inst = nil
			if err != nil {
				return 0, err
			}
			runtime.GC()
		}
		start := time.Now()
		var err error
		inst, err = w.setup(c)
		return time.Since(start).Seconds(), err
	}
	setups := make([]float64, 0, repeats)
	for r := 0; r < repeats; r++ {
		s, err := rebuild(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	res.StreamHash = fmt.Sprintf("%016x", inst.streamHash())
	classes, n := inst.classes(), inst.opCount()
	for c, calls := range inst.callsPerClass() {
		res.Ops[classes[c].name] = calls
	}
	traced := min(n/4, maxTracedOps)

	runtime.GC()
	ph := newPhase(classes, n, inst.segments(), inst.callsPerClass())
	ph.watch = traced
	inst.run(ph, nil, n, res)
	if !ph.finished() {
		return nil, fmt.Errorf("stream ended after %d of %d ops", ph.done, n)
	}
	res.Attempted = n
	res.PhaseSeconds, res.BusySeconds = ph.seconds(), ph.busySeconds()
	res.SegmentOpsPerS = ph.each(ph.segmentOpsPerSecond)

	res.put("setup_s", "s", median(setups), len(setups))
	res.put("ops_per_s", "1/s", ph.opsPerSecond(), ph.measuredOps())
	putPct(res, ph, "read_p50_us", ofKind(kindRead), 50)
	putPct(res, ph, "read_p99_us", ofKind(kindRead), 99)
	putPct(res, ph, "write_p50_us", ofKind(kindWrite), 50)
	putPct(res, ph, "write_p99_us", ofKind(kindWrite), 99)
	res.put("cpu_us_per_op", "us", ph.cpuUsPerOp(), ph.measuredOps())
	res.put("alloc_bytes_per_op", "B", ph.allocBytesPerOp(), ph.measuredOps())
	inst.verify(res)
	inst.report(ph, res)
	rows := inst.heapRows()
	inst.release()
	res.put("heap_bytes_per_row", "B", float64(liveHeap())/float64(rows), rows)
	if r, ok := inst.(interface{ reopen(*result) error }); ok {
		if err := r.reopen(res); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
	}

	if cfg.trace {
		tcfg := cfg
		tcfg.tracedPass = true
		if _, err := rebuild(tcfg); err != nil {
			return nil, fmt.Errorf("set-up for the traced pass: %w", err)
		}
		names, sample := inst.counters()
		tr := newTracer(w.name(), names, sample)
		tph := newPhase(classes, traced, segmentation{n: 1}, nil)
		tph.watch = traced
		inst.run(tph, tr, traced, res)
		res.Attempted += traced
		res.put("trace.overhead_pct", "%", 100*(tph.watchWall.Seconds()/ph.watchWall.Seconds()-1), traced)
		if err := inst.isolate(cfg, tr, res); err != nil {
			return nil, fmt.Errorf("layer isolation: %w", err)
		}
		res.Layers = tr.layers()
		var err error
		if res.TraceFile, err = tr.write(cfg.outDir); err != nil {
			return nil, err
		}
	}
	err := inst.close()
	inst = nil
	if err != nil {
		return nil, err
	}
	res.put("error_share", "ratio", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	res.SpinMsAfter = spinMs()
	lo, hi := min(res.SpinMsBefore, res.SpinMsAfter), max(res.SpinMsBefore, res.SpinMsAfter)
	res.HostNoisePct = 100 * (hi - lo) / lo
	return res, nil
}

// putPct reports a latency percentile in µs when the phase has the samples
// for it.
func putPct(res *result, ph *phase, name string, pick func(classDef) bool, q float64) {
	if ns, n, ok := ph.pct(pick, q); ok {
		res.put(name, "us", ns/1e3, n)
	}
}

// scratchDir returns a fresh directory under the output directory.
func scratchDir(cfg config, prefix string) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.outDir, prefix)
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// The traced pass.  Every op is a root span; every public engine call the
// harness makes inside it is a child span carrying the deltas of the
// workload's counters (cache stats, base/delta rows, log size, epochs,
// bytes allocated) sampled at its two boundaries, so ratios are measured
// where the work happens.  All spans are opened from this directory, around
// calls into a layer's public functions; spans inside the engine are a later
// change.  Spans stay in memory and are written when the workload ends.

// maxCounts bounds the counters one workload samples per span boundary.
const maxCounts = 12

// maxTracedOps caps the traced replay (the first quarter of the stream): a
// root and a child span per op of a two-million-op stream would outweigh the
// data being measured.
const maxTracedOps = 50_000

type span struct {
	id, parent, op int32
	layer, name    string
	start, end     int64 // ns since the tracer started
	counts         [maxCounts]int64
}

// tracer records spans.  A nil tracer records nothing, so the op executors
// call it unconditionally and the untraced pass pays one nil test per call.
type tracer struct {
	workload string
	t0       time.Time
	names    []string                // counter names, at most maxCounts
	sample   func(*[maxCounts]int64) // reads the counters
	spans    []span
}

func newTracer(workload string, names []string, sample func(*[maxCounts]int64)) *tracer {
	return &tracer{workload: workload, t0: time.Now(), names: names, sample: sample}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent int32, layer, name string, op int) int32 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{id: int32(len(t.spans) + 1), parent: parent, op: int32(op), layer: layer, name: name})
	sp := &t.spans[len(t.spans)-1]
	if t.sample != nil {
		t.sample(&sp.counts)
	}
	sp.start = time.Since(t.t0).Nanoseconds()
	return sp.id
}

// end closes span id, turning its sampled counters into deltas.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	sp := &t.spans[id-1]
	sp.end = time.Since(t.t0).Nanoseconds()
	if t.sample != nil {
		var after [maxCounts]int64
		t.sample(&after)
		for i := range t.names {
			sp.counts[i] = after[i] - sp.counts[i]
		}
	}
}

// delta returns counter name's change across span id.
func (t *tracer) delta(id int32, name string) int64 {
	for i, n := range t.names {
		if n == name {
			return t.spans[id-1].counts[i]
		}
	}
	return 0
}

// layers sums spans and self time per layer: a span's self time is its
// duration minus the part of it its children cover (children of one span
// never overlap: the client is one goroutine).
func (t *tracer) layers() map[string]layerTime {
	child := make([]int64, len(t.spans)+1)
	for _, sp := range t.spans {
		child[sp.parent] += sp.end - sp.start
	}
	out := map[string]layerTime{}
	for _, sp := range t.spans {
		lt := out[sp.layer]
		lt.Spans++
		lt.SelfMs += float64(sp.end-sp.start-child[sp.id]) / 1e6
		out[sp.layer] = lt
	}
	return out
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, sp := range t.spans {
		fmt.Fprintf(w, `{"workload":%q,"span":%d,"parent":%d,"op_id":%d,"layer":%q,"class":%q,"start_ns":%d,"end_ns":%d,"counts":{`,
			t.workload, sp.id, sp.parent, sp.op, sp.layer, sp.name, sp.start, sp.end)
		first := true
		for i, n := range t.names {
			if sp.counts[i] == 0 {
				continue
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "%q:%d", n, sp.counts[i])
		}
		w.WriteString("}}\n")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytes is the process's cumulative heap allocation, read without
// stopping the world (unlike runtime.ReadMemStats), so it can be sampled at
// every span boundary.
func allocatedBytes() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

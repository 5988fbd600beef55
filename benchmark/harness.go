package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// How a number is produced.  A workload's op stream has a fixed length, so
// the stream is the same on both sides of a comparison.  The first 2% of the
// ops warm the engine and are not measured; the rest is cut by op index into
// equal segments and every timing metric is computed per segment.
//
// Which segment is reported depends on the stream (see segmentation).  The
// shared host disturbs a run in one direction only: for seconds at a time it
// halves the speed of the core the client runs on (whatever the size of the
// data), and it never makes anything faster.  Where every segment of a stream
// does the same work, the fastest segment is therefore the one that says what
// the program costs, and a run needs only a fraction of a second of quiet to
// read as it would on a quiet host.  Where the engine's state grows along the
// stream, so that segments differ by design, the median of a few long
// segments is reported instead.

// warmShare of the ops run before the first segment starts.
const warmShare = 0.02

// segmentation is how a workload wants its measured ops cut and reported.
type segmentation struct {
	n int // equal parts, by op index
	// steady says every part does the same work (identical ops, or whole
	// cycles of the stream's pattern): the fastest part is reported.
	// Otherwise the median part is.
	steady bool
}

// minTail is the fewest samples that must lie beyond a percentile taken
// within one segment; with fewer, the percentile is taken once over the whole
// phase, and a p99 is not reported at all if the phase has too few.  Only the
// package's scaled-down tests lower it.
var minTail = 10

// opKind says how a class of timed call counts toward the end-to-end
// metrics.
type opKind uint8

const (
	kindRead  opKind = iota // a probe batch or a query
	kindWrite               // Insert/Delete batch, AppendRows
	kindMaint               // Sync, Checkpoint: time the client waits, not an op
)

type classDef struct {
	name string
	kind opKind
}

// mark is the process state sampled at a segment boundary.
type mark struct {
	wall  time.Time
	cpuNs int64
	alloc uint64
}

func takeMark() mark {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		wall:  time.Now(),
		cpuNs: ru.Utime.Nano() + ru.Stime.Nano(),
		alloc: ms.TotalAlloc,
	}
}

// phase collects the timings of one pass over an op stream.
type phase struct {
	classes []classDef
	nseg    int
	steady  bool        // report the fastest segment, not the median one
	warm    int         // the first warm ops of the stream are not measured
	bound   []int       // op index at which segment s starts; nseg+1 entries
	lat     [][][]int64 // [class][segment] latencies in ns
	busy    []int64     // timed ns per segment, every class
	ops     []int       // read and write ops per segment
	marks   []mark      // nseg+1 entries
	done    int         // read and write ops completed
	seg     int         // segment the next op belongs to; -1 while warming

	// watchWall is the wall time from the start of the pass to the end of
	// op number watch: what the traced replay of the first watch ops is
	// compared with.
	start     time.Time
	watch     int
	watchWall time.Duration
}

// newPhase sizes a phase for n read+write ops.  perClass, when known, is the
// number of calls of each class in the stream and pre-sizes the sample arrays
// so the measured loop does not allocate.
func newPhase(classes []classDef, n int, sg segmentation, perClass []int) *phase {
	p := &phase{classes: classes, steady: sg.steady, warm: int(float64(n) * warmShare), seg: -1}
	m := n - p.warm
	p.nseg = max(1, min(sg.n, m))
	p.bound = make([]int, p.nseg+1)
	for s := range p.bound {
		p.bound[s] = p.warm + s*m/p.nseg
	}
	p.busy, p.ops, p.marks = make([]int64, p.nseg), make([]int, p.nseg), make([]mark, p.nseg+1)
	p.lat = make([][][]int64, len(classes))
	for c := range classes {
		p.lat[c] = make([][]int64, p.nseg)
		for s := range p.lat[c] {
			want := 16
			if perClass != nil {
				want = perClass[c]/p.nseg + perClass[c]/(10*p.nseg) + 16
			}
			p.lat[c][s] = make([]int64, 0, want)
		}
	}
	if p.warm == 0 {
		p.seg = 0
		p.marks[0] = takeMark()
	}
	p.start = time.Now()
	return p
}

// add records one timed call of class c.
func (p *phase) add(c int, ns int64) {
	if p.seg >= 0 && p.seg < p.nseg {
		p.lat[c][p.seg] = append(p.lat[c][p.seg], ns)
		p.busy[p.seg] += ns
	}
	if p.classes[c].kind == kindMaint {
		return
	}
	if p.seg >= 0 && p.seg < p.nseg {
		p.ops[p.seg]++
	}
	p.done++
	if p.done == p.watch {
		p.watchWall = time.Since(p.start)
	}
	if p.seg < p.nseg && p.done == p.bound[p.seg+1] {
		p.seg++
		p.marks[p.seg] = takeMark()
	}
}

// finished reports whether every op of the stream was recorded.
func (p *phase) finished() bool { return p.seg == p.nseg }

func (p *phase) measuredOps() int { return p.bound[p.nseg] - p.bound[0] }

// seconds is the wall time of the measured segments.
func (p *phase) seconds() float64 {
	return p.marks[p.nseg].wall.Sub(p.marks[0].wall).Seconds()
}

// busySeconds is the time spent inside timed calls, all segments.
func (p *phase) busySeconds() float64 {
	var t int64
	for _, b := range p.busy {
		t += b
	}
	return float64(t) / 1e9
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// reported reduces one value per segment to the value the phase reports: the
// fastest segment's when the stream is steady, the median segment's when not.
func (p *phase) reported(v []float64, lowerBetter bool) float64 {
	switch {
	case !p.steady:
		return median(v)
	case lowerBetter:
		return slices.Min(v)
	}
	return slices.Max(v)
}

// each returns f of every segment, in stream order.
func (p *phase) each(f func(s int) float64) []float64 {
	v := make([]float64, p.nseg)
	for s := range v {
		v[s] = f(s)
	}
	return v
}

func (p *phase) segmentOpsPerSecond(s int) float64 {
	return float64(p.ops[s]) / float64(p.busy[s]) * 1e9
}

func (p *phase) segmentCPUUsPerOp(s int) float64 {
	return float64(p.marks[s+1].cpuNs-p.marks[s].cpuNs) / 1e3 / float64(p.ops[s])
}

func (p *phase) opsPerSecond() float64 { return p.reported(p.each(p.segmentOpsPerSecond), false) }

func (p *phase) cpuUsPerOp() float64 { return p.reported(p.each(p.segmentCPUUsPerOp), true) }

// allocBytesPerOp is a count, not a timing: the host cannot disturb it, so
// it is taken over the whole phase.
func (p *phase) allocBytesPerOp() float64 {
	return float64(p.marks[p.nseg].alloc-p.marks[0].alloc) / float64(p.measuredOps())
}

// percentileNs is the nearest-rank q-th percentile of v (sorted in place).
func percentileNs(v []int64, q float64) float64 {
	slices.Sort(v)
	rank := int(q/100*float64(len(v))+0.999999) - 1
	rank = max(0, min(rank, len(v)-1))
	return float64(v[rank])
}

// segmentPct returns, per segment, the q-th percentile in ns of the calls
// whose class satisfies pick, and the total number of samples.  ok is false
// when some segment has fewer than minTail samples beyond the percentile.
func (p *phase) segmentPct(pick func(classDef) bool, q float64) (perSeg []float64, all []int64, ok bool) {
	ok = true
	perSeg = make([]float64, p.nseg)
	for s := 0; s < p.nseg; s++ {
		var seg []int64
		for c, d := range p.classes {
			if pick(d) {
				seg = append(seg, p.lat[c][s]...)
			}
		}
		all = append(all, seg...)
		if len(seg) == 0 || float64(len(seg))*(1-q/100) < float64(minTail) {
			ok = false
			continue
		}
		perSeg[s] = percentileNs(seg, q)
	}
	return perSeg, all, ok
}

// pct returns the q-th percentile, in ns, of the calls whose class satisfies
// pick, and the number of samples behind it: the reported segment's median
// or the median segment's tail percentile when every segment has minTail
// samples beyond it, otherwise the percentile of the whole phase.  ok is false when the phase has no samples, or too few
// beyond a p99.
func (p *phase) pct(pick func(classDef) bool, q float64) (ns float64, n int, ok bool) {
	perSeg, all, segOK := p.segmentPct(pick, q)
	switch {
	case segOK && q > 50:
		// A tail is made of a stream's rare slow ops, which its fastest
		// segment is by construction short of.
		return median(perSeg), len(all), true
	case segOK:
		return p.reported(perSeg, true), len(all), true
	case len(all) == 0 || (q >= 99 && float64(len(all))*(1-q/100) < float64(minTail)):
		return 0, len(all), false
	}
	return percentileNs(all, q), len(all), true
}

func ofKind(k opKind) func(classDef) bool {
	return func(d classDef) bool { return d.kind == k }
}

func ofClass(name string) func(classDef) bool {
	return func(d classDef) bool { return d.name == name }
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

var spinSink uint64

// spinMs times a fixed amount of register-only work.  It runs before and
// after each workload: a host that slowed down between the two shows up in
// the run header instead of being averaged into the workload's numbers.
func spinMs() float64 {
	best := 0.0
	for r := 0; r < 3; r++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		if ms := float64(time.Since(start).Nanoseconds()) / 1e6; r == 0 || ms < best {
			best = ms
		}
	}
	return best
}

package mmdb

// One row model and one operation generator hold every read surface to the
// same claim: a delta run, a fold, a cache hit, a parallel join or a hash
// probe answers exactly what a scan of the rows answers, in the order the
// returned plan's path defines.
//
//   - The model (opsTable) keeps each column's values as a plain slice and
//     answers by scanning: an index-path range in (value, RID) order, a
//     scan-path range and every conjunction in RID order, an index-path
//     IN-list in first-occurrence value groups with RIDs ascending inside
//     each, a join by outer RID then inner RID, an aggregate by value.
//   - The catalogue (opsRun.ask) is every read surface: Table.SelectRange,
//     SelectIn and SelectWhere with their plans held to PlanRange/PlanIn,
//     GroupAggregate over all rows and over a RID list, JoinWith emitting and
//     count-only over whatever structure indexes the inner column, an index's
//     own SelectEqual and SelectRange, and the IN driver under the
//     configured workers.
//   - The generator (runTableOps) decodes a byte string: the first bytes fix
//     the configuration — each column's structure and value span, the cache
//     (off, admit-all, default admission), the fold schedule, the join's
//     workers and probe batch, the starting key set — and every later byte
//     picks a step: an append of 0–1,500 rows, a Compact, a late index build,
//     or questions, new ones and re-asked or narrowed earlier ones, so exact,
//     containment, subset-replay and refreshed hits all answer.
//
// After every step the answers equal the model's, the cache's misses are
// each deferred, inserted, rejected or a known unfilled kind (a count-only
// join), every index's delta runs keep their invariants
// (checkRuns), and every fold leaves state byte-identical to a from-scratch
// build (checkAgainstScratch).  At default admission a question's first miss
// is deferred, its next reaches admission, and once admitted it hits while
// nothing has changed; no miss after the first is deferred again, folds
// included.
//
// TestTableOps runs a fixed list of inputs (opsSeeds) and requires them to
// reach every path it tallies; FuzzTableOps explores from the ones that start
// at the adversarial key sets.  A failing corpus entry replays with
// go test -run 'FuzzTableOps/<id>' ./internal/mmdb.

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"cssidx"
	"cssidx/internal/parallel"
	"cssidx/internal/qcache"
)

// The structures a generated column can have besides a cssidx.Kind.
const (
	ixNone    = -1
	ixSharded = -2
)

// opsShards is the shard count of every sharded index the builder makes.
const opsShards = 3

// opsCol is one column of a generated table: its name, the structure that
// indexes it (a cssidx.Kind, ixNone or ixSharded) and the span of values a
// draw picks from (what the span means is the draw's; 0 = all of uint32).
type opsCol struct {
	name string
	ix   int
	span uint32
}

// opsTable is a table under test and its row-list model: every column's
// values in row order, appended to in step with the table.
type opsTable struct {
	tab  *Table
	cols []opsCol
	raw  map[string][]uint32
}

// newOpsTable fills tab with rows drawn by draw, one column per cols entry,
// and indexes each column as its entry says.
func newOpsTable(t testing.TB, tab *Table, cols []opsCol, rows int, draw func(opsCol) uint32) *opsTable {
	t.Helper()
	o := &opsTable{tab: tab, cols: cols, raw: map[string][]uint32{}}
	for _, c := range cols {
		vals := make([]uint32, rows)
		for i := range vals {
			vals[i] = draw(c)
		}
		o.raw[c.name] = vals
		if err := tab.AddColumn(c.name, vals); err != nil { // AddColumn copies
			t.Fatal(err)
		}
	}
	for _, c := range cols {
		o.build(t, c.name, c.ix)
	}
	return o
}

// build indexes col by the structure ix, replacing its index (ixNone builds
// nothing).
func (o *opsTable) build(t testing.TB, col string, ix int) {
	t.Helper()
	var err error
	switch ix {
	case ixNone:
	case ixSharded:
		_, err = o.tab.BuildShardedIndex(col, opsShards)
	default:
		_, err = o.tab.BuildIndex(col, cssidx.Kind(ix), cssidx.Options{})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// pairCols are the columns the cache, allocation and governance tests ask
// over, on n rows: a under a level CSS-tree drawing from n/2+1 values, b
// sharded drawing from n/4+1, c hashed drawing from 64 (spread).
func pairCols(n int) []opsCol {
	return []opsCol{{"a", int(cssidx.KindLevelCSS), uint32(n/2 + 1)}, {"b", ixSharded, uint32(n/4 + 1)}, {"c", int(cssidx.KindHash), 64}}
}

// pairTables builds pairCols over n rows twice from one seed: cached, with a
// result cache admitting at first sight, and plain, with none.
func pairTables(t testing.TB, n int, seed int64) (cached, plain *Table) {
	t.Helper()
	build := func() *Table {
		return newOpsTable(t, NewTable("t"), pairCols(n), n, spread(rand.New(rand.NewSource(seed)))).tab
	}
	cached, plain = build(), build()
	cached.EnableCache(CacheOptions{MinCostNs: -1})
	return cached, plain
}

// spread draws one of span values spaced evenly across the key space (0 is
// always one), so a few hundred values still spread over every index level;
// span 0 draws any uint32.
func spread(rng *rand.Rand) func(opsCol) uint32 {
	return func(c opsCol) uint32 { return spreadValue(rng, c.span) }
}

func spreadValue(rng *rand.Rand, span uint32) uint32 {
	if span == 0 {
		return rng.Uint32()
	}
	return uint32(rng.Intn(int(span))) * (math.MaxUint32 / span)
}

// grid lists the values spread draws from for span, ascending.
func grid(span uint32) []uint32 {
	out := make([]uint32, span)
	for i := range out {
		out[i] = uint32(i) * (math.MaxUint32 / span)
	}
	return out
}

// col returns the column named name.
func (o *opsTable) col(name string) opsCol {
	i := slices.IndexFunc(o.cols, func(c opsCol) bool { return c.name == name })
	return o.cols[i]
}

// batch draws n rows for every column.
func (o *opsTable) batch(n int, draw func(opsCol) uint32) map[string][]uint32 {
	b := map[string][]uint32{}
	for _, c := range o.cols {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = draw(c)
		}
		b[c.name] = vals
	}
	return b
}

// append lands a batch on the table and the model.
func (o *opsTable) append(t testing.TB, b map[string][]uint32) {
	t.Helper()
	if err := o.tab.AppendRows(b); err != nil {
		t.Fatal(err)
	}
	for c, vals := range b {
		o.raw[c] = append(o.raw[c], vals...)
	}
}

// rows lists the rows whose col value keep accepts, in RID order.
func (o *opsTable) rows(col string, keep func(uint32) bool) []uint32 {
	var out []uint32
	for r, v := range o.raw[col] {
		if keep(v) {
			out = append(out, uint32(r))
		}
	}
	return out
}

// byValue orders rows, ascending, by (col value, RID): an index path's order.
func (o *opsTable) byValue(col string, rows []uint32) []uint32 {
	vals := o.raw[col]
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(a, b uint32) int { return cmp.Compare(vals[a], vals[b]) })
	return out
}

// scan answers a conjunction: the rows satisfying every predicate, ascending.
func (o *opsTable) scan(preds []RangePred) []uint32 {
	var out []uint32
rows:
	for r := range o.tab.Rows() {
		for _, p := range preds {
			if v := o.raw[p.Col][r]; v < p.Lo || v > p.Hi {
				continue rows
			}
		}
		out = append(out, uint32(r))
	}
	return out
}

// in answers an index-path IN-list over distinct values: each value's rows,
// ascending, in list order, with the offset where each value's rows start.
func (o *opsTable) in(col string, distinct []uint32) (rids, goff []uint32) {
	at := make(map[uint32]int, len(distinct))
	for i, v := range distinct {
		at[v] = i
	}
	groups := make([][]uint32, len(distinct))
	for r, v := range o.raw[col] {
		if i, ok := at[v]; ok {
			groups[i] = append(groups[i], uint32(r))
		}
	}
	goff = make([]uint32, 0, len(distinct)+1)
	for _, g := range groups {
		goff = append(goff, uint32(len(rids)))
		rids = append(rids, g...)
	}
	return rids, append(goff, uint32(len(rids)))
}

// agg answers GroupAggregate(gcol, mcol, rids) by value.
func (o *opsTable) agg(gcol, mcol string, rids []uint32) []GroupRow {
	g, m := o.raw[gcol], o.raw[mcol]
	groups := map[uint32]GroupRow{}
	add := func(r uint32) {
		v, x := g[r], m[r]
		a, ok := groups[v]
		if !ok {
			a = GroupRow{Value: v, Min: x, Max: x}
		}
		a.Count++
		a.Sum += uint64(x)
		a.Min, a.Max = min(a.Min, x), max(a.Max, x)
		groups[v] = a
	}
	if rids == nil {
		for r := range g {
			add(uint32(r))
		}
	}
	for _, r := range rids {
		add(r)
	}
	out := slices.Collect(maps.Values(groups))
	slices.SortFunc(out, func(a, b GroupRow) int { return cmp.Compare(a.Value, b.Value) })
	return out
}

// join answers JoinWith(outer o on col, inner's index on innerCol): every
// matching (outer RID, inner RID), by outer RID then inner RID.
func (o *opsTable) join(col string, inner *opsTable, innerCol string) (outerRIDs, innerRIDs []uint32) {
	byVal := map[uint32][]uint32{}
	for _, v := range o.raw[col] {
		byVal[v] = nil
	}
	for r, v := range inner.raw[innerCol] {
		if rows, ok := byVal[v]; ok {
			byVal[v] = append(rows, uint32(r))
		}
	}
	for r, v := range o.raw[col] {
		for _, i := range byVal[v] {
			outerRIDs, innerRIDs = append(outerRIDs, uint32(r)), append(innerRIDs, i)
		}
	}
	return outerRIDs, innerRIDs
}

// mustEqualU32 fails unless got and want hold the same values in the same
// order (nil and empty are equal).
func mustEqualU32(t testing.TB, what string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d (got %v, want %v)", what, len(got), len(want), head(got), head(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// --- the generator ----------------------------------------------------------

// opsStream hands out a fuzz input's bytes; an exhausted stream reads as
// zeros and reports done.
type opsStream struct{ data []byte }

func (s *opsStream) done() bool { return len(s.data) == 0 }

func (s *opsStream) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// opsSpans are the spans a generated column draws from (spread): a handful
// of values, every one in the base and in every run; a few hundred;
// thousands; any uint32.
var opsSpans = []uint32{6, 300, 5000, 0}

// opsStructure maps a byte onto a structure: every cssidx kind, hash
// included, none, or sharded.
func opsStructure(b byte) int {
	kinds := cssidx.Kinds()
	switch i := int(b) % (len(kinds) + 2); i {
	case len(kinds):
		return ixNone
	case len(kinds) + 1:
		return ixSharded
	default:
		return int(kinds[i])
	}
}

// opsBaseSets are the adversarial key sets a generated table can start from,
// every column holding the same keys; set 0 draws the base instead.
func opsBaseSets() [][]uint32 {
	allDup := slices.Repeat([]uint32{42}, 100)
	var runs []uint32
	for v := uint32(1); v <= 6; v++ {
		runs = append(runs, slices.Repeat([]uint32{v * 1000}, 16)...) // a run per node
	}
	return [][]uint32{
		nil,
		{},
		{7},
		{math.MaxUint32},
		allDup,
		{0, 0, 1, 2, math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32},
		runs,
	}
}

// The cache configurations.
const (
	opsCacheOff = iota
	opsAdmitAll
	opsDefault
)

// The fold schedules, by configuration byte.
var opsFolds = []foldPolicy{{}, {denom: 2, minRows: 48}, foldEveryBatch, neverFold}

// opsKind is a catalogue surface.
type opsKind int

const (
	opsRange   opsKind = iota // Table.SelectRange
	opsIn                     // Table.SelectIn
	opsWhere                  // Table.SelectWhere
	opsAgg                    // GroupAggregate
	opsJoin                   // JoinWith
	opsEqual                  // SortedIndex.SelectEqual
	opsIxRange                // SortedIndex.SelectRange
	opsIxIn                   // the IN driver, uncached, under the configured workers
	opsKinds
)

// opsQuestion is one catalogue question.
type opsQuestion struct {
	kind      opsKind
	col, col2 string      // the column; an aggregate's measure, a join's inner column
	lo, hi    uint32      // a range's bounds; an equality probe's value is lo
	list      []uint32    // an IN-list
	preds     []RangePred // a conjunction
	rids      []uint32    // an aggregate's source rows (nil = all)
	emit      bool        // an emitting join
	grouped   bool        // the IN driver with group offsets
}

// key names the question as the cache fingerprints it; the empty key marks
// a question no single entry answers.
func (q opsQuestion) key() string {
	switch q.kind {
	case opsRange:
		return fmt.Sprint("range ", q.col, q.lo, q.hi)
	case opsIxRange:
		return fmt.Sprint("index range ", q.col, q.lo, q.hi)
	case opsIn:
		return fmt.Sprint("in ", q.col, dedupeValues(q.list))
	case opsAgg:
		return fmt.Sprint("agg ", q.col, q.col2, q.rids == nil, q.rids)
	case opsJoin:
		return fmt.Sprint("join ", q.col, q.col2)
	}
	return ""
}

func (q opsQuestion) String() string {
	switch q.kind {
	case opsIn, opsIxIn:
		return fmt.Sprintf("%v %s %v", q.kind, q.col, q.list)
	case opsWhere:
		return fmt.Sprintf("where %v", q.preds)
	case opsAgg:
		return fmt.Sprintf("agg %s by %s over %v", q.col2, q.col, q.rids)
	case opsJoin:
		return fmt.Sprintf("join o.%s = t.%s emit=%v", q.col, q.col2, q.emit)
	}
	return fmt.Sprintf("%v %s [%d,%d]", q.kind, q.col, q.lo, q.hi)
}

func (k opsKind) String() string {
	return [...]string{"range", "in", "where", "agg", "join", "equal", "index range", "index in"}[k]
}

// opsSeen is what the run knows of one question's history in the cache.
type opsSeen struct {
	missed  bool  // it has missed (so the door has noted it)
	unknown bool  // a conjunction touched its key: its door state is not tracked
	admits  int   // its last admission's mutation count, -1 = none since
	evicts  int64 // the cache's evictions at that admission
}

// opsTally counts, by what they are, the paths a run exercised, so
// TestTableOps can require its inputs to reach every one (opsPaths).
type opsTally map[string]int64

// opsPaths are the paths TestTableOps' inputs must reach.
var opsPaths = []string{
	"fold", "fold of a grouped column", "index with six runs", "value in three runs",
	"deferred first sight", "hit of an admitted question", "staged two-worker join",
	"exact hit", "containment hit", "subset replay", "aggregate hit", "refreshed entry",
	"admission", "rejection", "invalidation",
}

// opsRun is one decoded run: the configuration, the two tables (t, and the
// outer o a join probes from), and the history the checks need.
type opsRun struct {
	t         *testing.T
	s         opsStream
	rng       *rand.Rand // reseeded from the stream at every step
	cache     int
	opts      JoinOptions
	main, o   *opsTable
	qc        *qcache.Cache
	hist      []opsQuestion
	seen      map[string]*opsSeen
	grouped   map[string]bool // the columns a group-by has built a domain for
	muts      int             // table mutations so far (appends, Compacts, builds)
	lastBatch int             // the rows of the main table's last append
	unfilled  int64           // misses that by design neither defer nor reach admission
	maxRows   int             // the main table's cap (opsMaxRows, or FuzzTableOps')
	step      int
	config    string
	gen, oGen uint64
	tally     opsTally
}

// opsNames are a generated table's columns; the outer table has the same,
// each drawn from its namesake's span.
var opsNames = []string{"a", "b", "c"}

// runTableOps decodes and runs one input, and tallies what it exercised.
func runTableOps(t *testing.T, data []byte) opsTally { return runOps(t, data, opsMaxRows) }

// runOps is runTableOps over tables of about maxRows rows at most: a
// smaller cap also keeps the base and every append a fraction of it.
func runOps(t *testing.T, data []byte, maxRows int) opsTally {
	r := &opsRun{t: t, s: opsStream{data: data}, seen: map[string]*opsSeen{}, grouped: map[string]bool{}, tally: opsTally{}, maxRows: maxRows}
	r.cache = int(r.s.next()) % 3
	fold := opsFolds[int(r.s.next())%len(opsFolds)]
	if r.s.next()%2 == 0 {
		r.opts.par = parallel.Options{Workers: 1}
	} else {
		r.opts.par = parallel.Options{Workers: 2, MinBatchPerWorker: 1}
	}
	r.opts.batch = []int{0, 1, 7}[int(r.s.next())%3]
	sets := opsBaseSets()
	set := int(r.s.next()) % len(sets)
	baseRows := min(int(r.s.next()%8)*64, maxRows/4)
	outerRows := 1 + int(r.s.next()%4)*13
	cols := make([]opsCol, len(opsNames))
	for i := range cols {
		cols[i] = opsCol{name: opsNames[i], ix: opsStructure(r.s.next()), span: opsSpans[int(r.s.next())%len(opsSpans)]}
	}
	r.rng = rand.New(rand.NewSource(int64(r.s.next())))
	r.config = fmt.Sprintf("cache %d, fold %+v, join %+v, base set %d (%d rows), outer %d rows, columns %+v",
		r.cache, fold, r.opts, set, baseRows, outerRows, cols)

	var tab, outer *Table
	switch r.cache {
	case opsCacheOff:
		tab, outer = NewTable("t"), NewTable("o")
	default:
		opts := CacheOptions{}
		if r.cache == opsAdmitAll {
			opts.MinCostNs = -1
		}
		db := NewDB(opts)
		tab, _ = db.CreateTable("t")
		outer, _ = db.CreateTable("o")
		r.qc = db.Cache()
	}
	tab.fold = fold
	defer tab.Close()
	defer outer.Close()
	if set == 0 {
		r.main = newOpsTable(t, tab, cols, baseRows, r.draw)
	} else {
		keys, drawn := sets[set], map[string]int{}
		r.main = newOpsTable(t, tab, cols, len(keys), func(c opsCol) uint32 {
			drawn[c.name]++
			return keys[drawn[c.name]-1]
		})
	}
	outerCols := slices.Clone(cols)
	for i := range outerCols {
		outerCols[i].ix = ixNone
	}
	r.o = newOpsTable(t, outer, outerCols, outerRows, r.draw)
	r.gen, r.oGen = tab.Generation(), outer.Generation()

	defer func() { // an engine panic fails this input, with where it happened
		if p := recover(); p != nil {
			t.Fatalf("step %d: panic: %v\n%s\nconfiguration: %s", r.step, p, debug.Stack(), r.config)
		}
	}()
	for ; !r.s.done(); r.step++ {
		r.rng.Seed(int64(r.step)<<8 | int64(r.s.next()))
		op := r.s.next()
		switch {
		case op < 64:
			r.appendRows(op)
		case op < 72:
			tab.Compact()
			r.muts++
		case op < 80:
			c := opsNames[int(r.s.next())%len(opsNames)]
			r.main.build(t, c, opsStructure(r.s.next()))
			r.muts++
		default:
			r.questions(op)
		}
		r.check()
	}
	c := r.qc.Stats()
	for path, n := range map[string]int64{
		"exact hit": c.Hits - c.ContainedHits - c.SubsetHits - c.AggregateHits, "containment hit": c.ContainedHits,
		"subset replay": c.SubsetHits, "aggregate hit": c.AggregateHits, "refreshed entry": c.Patches,
		"admission": c.Inserts, "rejection": c.Rejects, "invalidation": c.Invalidations,
	} {
		r.tally[path] += n
	}
	return r.tally
}

// draw is a generated value: spread over the column's span, with the key
// space's edges 0 and MaxUint32 mixed in.
func (r *opsRun) draw(c opsCol) uint32 {
	switch r.rng.Intn(24) {
	case 0:
		return 0
	case 1:
		return math.MaxUint32
	}
	return spreadValue(r.rng, c.span)
}

// opsMaxRows caps the generated table: past it an append brings one row.
const opsMaxRows = 6000

// appendRows lands a batch: 0–47 rows; for one append in four up to 1,500
// (a quarter of the table's cap);
// for one in four a third of the table's last batch, so runs too small to
// merge stack up; one in eight goes to the outer table instead.
func (r *opsRun) appendRows(op byte) {
	n := int(r.s.next()) % 48
	switch op % 4 {
	case 0:
		n = min(6*int(r.s.next()), r.maxRows/4)
	case 2:
		n = r.lastBatch / 3
	}
	to := r.main
	if op%8 == 1 {
		to, n = r.o, n%24
	}
	if to.tab.Rows() > r.maxRows {
		n = min(n, 1)
	}
	to.append(r.t, to.batch(n, r.draw))
	if to == r.main {
		r.lastBatch = n
	}
	if n > 0 {
		r.muts++
	}
}

// indexed lists the main table's indexed columns.
func (r *opsRun) indexed() []string {
	var out []string
	for _, c := range opsNames {
		if _, ok := r.main.tab.Index(c); ok {
			out = append(out, c)
		}
	}
	return out
}

// probe draws a value to ask about on col: one the column holds, one past
// it, an edge of the key space, or a fresh draw.
func (r *opsRun) probe(col string) uint32 {
	vals := r.main.raw[col]
	switch x := r.rng.Intn(10); {
	case x < 5 && len(vals) > 0:
		return vals[r.rng.Intn(len(vals))]
	case x == 5 && len(vals) > 0:
		return vals[r.rng.Intn(len(vals))] + 1
	case x == 6:
		return 0
	case x == 7:
		return math.MaxUint32
	}
	return r.draw(r.main.col(col))
}

// bounds draws a closed range on col: open-ended at MaxUint32, inverted, a
// point, narrow (a few of the span's values: an index path), or between two
// probes.
func (r *opsRun) bounds(col string) (lo, hi uint32) {
	lo = r.probe(col)
	switch r.rng.Intn(8) {
	case 0:
		return lo, math.MaxUint32
	case 1:
		return lo, lo - 1
	case 2:
		return lo, lo
	case 3, 4:
		width := r.rng.Uint32() >> (8 + r.rng.Intn(20))
		if span := r.main.col(col).span; span > 0 {
			width = uint32(r.rng.Intn(int(span)/16+2)) * (math.MaxUint32 / span)
		}
		return lo, lo + min(width, math.MaxUint32-lo)
	}
	hi = r.probe(col)
	return min(lo, hi), max(lo, hi)
}

// list draws an IN-list of probes, duplicates possible.
func (r *opsRun) list(col string) []uint32 {
	out := make([]uint32, r.rng.Intn(40))
	for i := range out {
		out[i] = r.probe(col)
	}
	return out
}

// question draws a new question of kind k; one that needs an index where
// none is becomes a range.
func (r *opsRun) question(k opsKind) opsQuestion {
	q := opsQuestion{kind: k, col: opsNames[r.rng.Intn(len(opsNames))]}
	if k == opsJoin || k == opsEqual || k == opsIxRange || k == opsIxIn {
		ix := r.indexed()
		if len(ix) == 0 {
			return r.question(opsRange)
		}
		q.col = ix[r.rng.Intn(len(ix))]
	}
	switch k {
	case opsRange, opsIxRange:
		q.lo, q.hi = r.bounds(q.col)
	case opsEqual:
		q.lo = r.probe(q.col)
	case opsIn, opsIxIn:
		q.list, q.grouped = r.list(q.col), r.rng.Intn(2) == 0
	case opsWhere:
		for range 1 + r.rng.Intn(3) {
			p := RangePred{Col: opsNames[r.rng.Intn(len(opsNames))]}
			p.Lo, p.Hi = r.bounds(p.Col)
			q.preds = append(q.preds, p)
		}
	case opsAgg:
		q.col2 = opsNames[r.rng.Intn(len(opsNames))]
		if rows := r.main.tab.Rows(); rows > 0 && r.rng.Intn(3) == 0 {
			q.rids = make([]uint32, r.rng.Intn(60))
			for i := range q.rids {
				q.rids[i] = uint32(r.rng.Intn(rows))
			}
		}
	case opsJoin:
		q.col2, q.emit = q.col, r.rng.Intn(3) != 0
		if r.rng.Intn(4) == 0 {
			q.col = opsNames[r.rng.Intn(len(opsNames))]
		}
	}
	return q
}

// narrow derives a question an earlier one's entry can answer, or almost: a
// range inside its range (containment), a reordered subset of its list
// (subset replay) or the list plus a value, a conjunction with one conjunct
// more or a conjunct narrowed, the aggregate over all rows or some of them,
// the join with emission flipped.
func (r *opsRun) narrow(q opsQuestion) opsQuestion {
	switch q.kind {
	case opsRange, opsIxRange:
		if q.lo < q.hi {
			q.lo += uint32(r.rng.Int63n(int64(q.hi-q.lo) + 1))
			q.hi -= uint32(r.rng.Int63n(int64(q.hi-q.lo) + 1))
		}
	case opsIn, opsIxIn:
		d := dedupeValues(q.list)
		if r.rng.Intn(4) == 0 {
			q.list = append(d, r.probe(q.col))
			break
		}
		r.rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		q.list = d[:len(d)-r.rng.Intn(len(d)/2+1)]
	case opsWhere:
		q.preds = slices.Clone(q.preds)
		if r.rng.Intn(2) == 0 {
			p := RangePred{Col: opsNames[r.rng.Intn(len(opsNames))]}
			p.Lo, p.Hi = r.bounds(p.Col)
			q.preds = append(q.preds, p)
		} else if p := &q.preds[r.rng.Intn(len(q.preds))]; p.Lo < p.Hi {
			p.Lo += uint32(r.rng.Int63n(int64(p.Hi-p.Lo) + 1))
		}
	case opsAgg:
		if q.rids != nil {
			q.rids = nil
		} else if rows := r.main.tab.Rows(); rows > 0 {
			q.rids = []uint32{uint32(r.rng.Intn(rows)), uint32(r.rng.Intn(rows))}
		}
	case opsJoin:
		q.emit = !q.emit
	}
	return q
}

// questions asks one question one to three times in a row: an earlier one
// again, one derived from an earlier one, or a new one.
func (r *opsRun) questions(op byte) {
	var q opsQuestion
	switch pick := int(r.s.next()); {
	case op%8 < 2 && len(r.hist) > 0:
		q = r.hist[pick%len(r.hist)]
	case op%8 < 4 && len(r.hist) > 0:
		q = r.narrow(r.hist[pick%len(r.hist)])
	default:
		q = r.question(opsKind(pick % int(opsKinds)))
	}
	for range 1 + int(op/8)%3 {
		r.ask(q)
	}
	if r.hist = append(r.hist, q); len(r.hist) > 48 {
		r.hist = r.hist[1:]
	}
}

// fail stops the run, naming the step, the question and the configuration.
func (r *opsRun) fail(q opsQuestion, format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("step %d, %v: %s\nconfiguration: %s", r.step, q, fmt.Sprintf(format, args...), r.config)
}

// equal fails the question unless got and want hold the same values in the
// same order.
func (r *opsRun) equal(q opsQuestion, what string, got, want []uint32) {
	r.t.Helper()
	if !slices.Equal(got, want) {
		r.fail(q, "%s: got %v, the model %v", what, head(got), head(want))
	}
}

// rangeRows is the model's answer to lo ≤ col ≤ hi on the path byValue says.
func (r *opsRun) rangeRows(col string, lo, hi uint32, byValue bool) []uint32 {
	rows := r.main.rows(col, func(v uint32) bool { return lo <= v && v <= hi })
	if byValue {
		return r.main.byValue(col, rows)
	}
	return rows
}

// ask runs the question on its surface and holds the answer, and any plan,
// to the model; then the cache's counters to the protocol (settle).
func (r *opsRun) ask(q opsQuestion) {
	r.t.Helper()
	tab := r.main.tab
	r.tally[q.kind.String()+" question"]++
	before := r.qc.Stats()
	fillable := true // a miss reaches admission unless deferred
	switch q.kind {
	case opsRange:
		got, plan, err := tab.SelectRange(q.col, q.lo, q.hi)
		if err != nil {
			r.fail(q, "%v", err)
		}
		if q.lo > q.hi {
			if got != nil || plan != (Plan{}) {
				r.fail(q, "an inverted range gave %v, plan %+v", head(got), plan)
			}
			break
		}
		if want, _ := tab.PlanRange(q.col, q.lo, q.hi); plan != want {
			r.fail(q, "plan %+v, PlanRange says %+v", plan, want)
		}
		r.equal(q, "rows", got, r.rangeRows(q.col, q.lo, q.hi, plan.UseIndex))
	case opsIn:
		got, plan, err := tab.SelectIn(q.col, q.list)
		if err != nil {
			r.fail(q, "%v", err)
		}
		if want, _ := tab.PlanIn(q.col, q.list); plan != want {
			r.fail(q, "plan %+v, PlanIn says %+v", plan, want)
		}
		want, _ := r.main.in(q.col, dedupeValues(q.list))
		if !plan.UseIndex {
			want = slices.Sorted(slices.Values(want))
		}
		r.equal(q, "rows", got, want)
	case opsWhere:
		got, plans, err := tab.SelectWhere(q.preds)
		if err != nil || len(plans) != len(q.preds) {
			r.fail(q, "%d plans, %v", len(plans), err)
		}
		for i, p := range q.preds {
			if want, _ := tab.PlanRange(p.Col, p.Lo, p.Hi); plans[i] != want {
				r.fail(q, "conjunct %d plan %+v, PlanRange says %+v", i, plans[i], want)
			}
		}
		r.equal(q, "rows", got, r.main.scan(q.preds))
		mustPoolZero(r.t, fmt.Sprintf("step %d, %v", r.step, q))
	case opsAgg:
		got, err := GroupAggregate(tab, q.col, q.col2, q.rids)
		if want := r.main.agg(q.col, q.col2, q.rids); err != nil || !slices.Equal(got, want) {
			r.fail(q, "groups %v (%v), the model %v", got[:min(len(got), 8)], err, want[:min(len(want), 8)])
		}
		r.grouped[q.col] = true
	case opsJoin:
		ix, _ := tab.Index(q.col2)
		wantO, wantI := r.o.join(q.col, r.main, q.col2)
		var gotO, gotI []uint32
		var emit func(o, i uint32)
		if q.emit {
			emit = func(o, i uint32) { gotO, gotI = append(gotO, o), append(gotI, i) }
		}
		n, err := JoinWith(r.o.tab, q.col, ix, r.opts, emit)
		if err != nil || n != len(wantO) {
			r.fail(q, "%d pairs (%v), the model %d", n, err, len(wantO))
		}
		if q.emit {
			r.equal(q, "outer RIDs", gotO, wantO)
			r.equal(q, "inner RIDs", gotI, wantI)
			if r.opts.par.Workers == 2 && r.o.tab.Rows() > 1 && n > 0 {
				r.tally["staged two-worker join"]++
			}
		}
		fillable = q.emit // an oversized pair set is rejected unstaged
		if q.emit && qcache.EntryBytesForPairs(n) > r.qc.MaxEntryBytes() {
			r.tally["oversized emitting join"]++
		}
	case opsEqual:
		ix, _ := tab.Index(q.col)
		r.equal(q, "rows", ix.SelectEqual(q.lo), r.main.rows(q.col, func(v uint32) bool { return v == q.lo }))
	case opsIxRange:
		ix, _ := tab.Index(q.col)
		got, err := ix.SelectRange(q.lo, q.hi)
		switch {
		case ix.cur.Load().ord == nil:
			if !errors.Is(err, ErrNoOrderedAccess) {
				r.fail(q, "a hash index's range gave %v, want ErrNoOrderedAccess", err)
			}
		case err != nil:
			r.fail(q, "%v", err)
		case q.lo > q.hi:
			r.equal(q, "rows", got, nil)
		default:
			r.equal(q, "rows", got, r.rangeRows(q.col, q.lo, q.hi, true))
		}
	case opsIxIn:
		ix, _ := tab.Index(q.col)
		distinct := dedupeValues(q.list)
		got, goff, err := ix.cur.Load().selectIn(nil, distinct, q.grouped, r.opts.par)
		want, wantOff := r.main.in(q.col, distinct)
		if err != nil {
			r.fail(q, "%v", err)
		}
		r.equal(q, "rows", got, want)
		if !q.grouped && goff != nil {
			r.fail(q, "group offsets returned unasked")
		} else if q.grouped {
			r.equal(q, "group offsets", goff, wantOff)
		}
	}
	if r.qc != nil {
		r.settle(q, before, r.qc.Stats(), fillable)
	}
}

// settle holds one ask's cache counters to the protocol.  A question one
// entry answers is looked up once: a hit, or a miss that is deferred at its
// first sight (default admission) and reaches admission from then on —
// folds and rebuilds included — unless it is a kind that never fills the
// cache; once admitted, it hits while no table has changed and nothing was
// evicted.  A conjunction's own key and its conjuncts' are not tracked: a
// conjunct shares its key with the range question on the same bounds, whose
// door state is unknown from then on.
func (r *opsRun) settle(q opsQuestion, before, after qcache.Stats, fillable bool) {
	r.t.Helper()
	key := q.key()
	if key == "" {
		for _, p := range q.preds {
			r.state(opsQuestion{kind: opsRange, col: p.Col, lo: p.Lo, hi: p.Hi}.key()).unknown = true
		}
		return
	}
	hits, misses, deferred := after.Hits-before.Hits, after.Misses-before.Misses, after.Deferred-before.Deferred
	admitted := after.Inserts-before.Inserts+after.Rejects-before.Rejects > 0
	st := r.state(key)
	switch {
	case hits+misses > 1:
		r.fail(q, "%d lookups for one question", hits+misses)
	case st.admits == r.muts && before.Evictions == st.evicts && hits != 1:
		r.fail(q, "admitted, and nothing has changed since, but not a hit: %+v → %+v", before, after)
	case misses == 0:
		if st.admits == r.muts && before.Evictions == st.evicts {
			r.tally["hit of an admitted question"]++
		}
		return
	case r.cache == opsAdmitAll && deferred != 0:
		r.fail(q, "deferred under admit-all")
	case r.cache == opsDefault && !st.unknown && !st.missed && (deferred != 1 || admitted || hits != 0):
		r.fail(q, "first sight must be deferred and admit nothing: %+v → %+v", before, after)
	case r.cache == opsDefault && !st.unknown && st.missed && deferred != 0:
		r.fail(q, "a question that missed before was deferred again")
	case deferred == 0 && fillable != admitted:
		r.fail(q, "a miss past first sight reached admission %v, want %v", admitted, fillable)
	}
	if deferred == 0 && !fillable {
		r.unfilled++
	}
	if r.cache == opsDefault && !st.unknown && !st.missed {
		r.tally["deferred first sight"]++
	}
	st.missed, st.admits = true, -1
	if after.Inserts > before.Inserts {
		st.admits, st.evicts = r.muts, after.Evictions
	}
}

// state returns the history of the question keyed key.
func (r *opsRun) state(key string) *opsSeen {
	st, ok := r.seen[key]
	if !ok {
		st = &opsSeen{admits: -1}
		r.seen[key] = st
	}
	return st
}

// check runs after every step: the cache's misses reconcile, every index's
// delta runs keep their invariants, and a table that folded matches a
// from-scratch build.
func (r *opsRun) check() {
	r.t.Helper()
	if r.qc != nil {
		if s := r.qc.Stats(); s.Misses != s.Deferred+s.Inserts+s.Rejects+r.unfilled {
			r.t.Fatalf("step %d: %d misses, but %d deferred + %d inserted + %d rejected + %d unfilled\nconfiguration: %s",
				r.step, s.Misses, s.Deferred, s.Inserts, s.Rejects, r.unfilled, r.config)
		}
	}
	for col, ix := range r.main.tab.indexes {
		runs := ix.cur.Load().runs
		if err := checkRuns(runs); err != nil {
			r.t.Fatalf("step %d: index on %s: %v\nconfiguration: %s", r.step, col, err, r.config)
		}
		if len(runs) >= 6 {
			r.tally["index with six runs"]++
		}
		if len(runs) >= 3 {
			v, in := runs[len(runs)-1].vals[0], 0
			for i := range runs {
				if f, l := runs[i].equalRange(v); f < l {
					in++
				}
			}
			if in >= 3 {
				r.tally["value in three runs"]++
			}
		}
	}
	for col := range r.grouped {
		if r.main.tab.cols[col].grp.Load() == nil {
			r.t.Fatalf("step %d: column %s lost the domain its group-by built\nconfiguration: %s", r.step, col, r.config)
		}
	}
	for _, f := range []struct {
		tab *Table
		gen *uint64
	}{{r.main.tab, &r.gen}, {r.o.tab, &r.oGen}} {
		if g := f.tab.Generation(); g != *f.gen {
			r.tally["fold"]++
			if f.tab == r.main.tab && len(r.grouped) > 0 {
				r.tally["fold of a grouped column"]++
			}
			checkAgainstScratch(r.t, fmt.Sprintf("step %d, fold of %s", r.step, f.tab.name), f.tab)
			*f.gen = g
		}
	}
}

// opsSeeds are the inputs TestTableOps runs: random streams whose
// configuration bytes walk every structure, span, fold schedule, join shape
// and cache, and one stream per adversarial key set ("set=…", FuzzTableOps'
// seeds).
func opsSeeds() (names []string, inputs [][]byte) {
	rng := rand.New(rand.NewSource(53))
	stream := func(i, set int) []byte {
		data := make([]byte, 200+rng.Intn(300))
		rng.Read(data)
		data[0], data[1], data[2], data[3] = byte(i), byte(i/3), byte(i/12), byte(i/2)
		data[4] = byte(set)
		for c := range opsNames {
			data[7+2*c], data[8+2*c] = byte(3*i+c), byte(i+2*c)
		}
		return data
	}
	for i := range 24 {
		names, inputs = append(names, fmt.Sprintf("stream=%02d", i)), append(inputs, stream(i, 0))
	}
	for set := 1; set < len(opsBaseSets()); set++ {
		names, inputs = append(names, fmt.Sprintf("set=%d", set)), append(inputs, stream(set+2, set))
	}
	return names, inputs
}

func TestTableOps(t *testing.T) {
	names, inputs := opsSeeds()
	var mu sync.Mutex
	all, passed := opsTally{}, 0
	t.Cleanup(func() { // after every input has run
		if passed < len(inputs) {
			return // some were filtered out by -run, or failed: no coverage to judge
		}
		t.Logf("paths exercised: %v", all)
		for k := range opsKinds {
			if all[k.String()+" question"] == 0 {
				t.Errorf("the inputs ask no %v question", k)
			}
		}
		for _, path := range opsPaths {
			if all[path] == 0 {
				t.Errorf("the inputs reach no %s", path)
			}
		}
	})
	for i, data := range inputs {
		t.Run(names[i], func(t *testing.T) {
			t.Parallel()
			tally := runTableOps(t, data)
			mu.Lock()
			defer mu.Unlock()
			for path, n := range tally {
				all[path] += n
			}
			passed++
		})
	}
}

// FuzzTableOps starts from the inputs that begin at the adversarial key
// sets, in a shape a fuzzer can run hundreds of a second: cut to their first
// opsFuzzBytes, a few dozen steps, over tables of a few hundred rows.
func FuzzTableOps(f *testing.F) {
	names, inputs := opsSeeds()
	for i, data := range inputs {
		if strings.HasPrefix(names[i], "set=") {
			f.Add(data[:opsFuzzBytes])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > opsFuzzBytes {
			t.Skip()
		}
		runOps(t, data, 512)
	})
}

// opsFuzzBytes bounds FuzzTableOps' inputs.
const opsFuzzBytes = 96

// --- focused inputs ---------------------------------------------------------

// opsFocus is an input pinned to one layer's claim: the configuration bytes
// runTableOps decodes, then steps drawn by weight, with every new question
// one of kinds (any kind when kinds is empty) and every late build
// rebuilding a column under its own structure.  The tests below run one each
// and require it to reach the paths it exists for.
type opsFocus struct {
	cache, fold int    // opsCacheOff…opsDefault; an index into opsFolds
	workers     int    // the join's and IN driver's workers: 1 or 2
	batch       int    // an index into the probe batches 0, 1, 7
	set         int    // an index into opsBaseSets
	baseRows    int    // the drawn base, a multiple of 64 below 512
	ix          [3]int // each column's structure
	span        [3]int // an index into opsSpans, per column

	steps                                int
	appends, compacts, builds, questions int // step weights
	kinds                                []opsKind
}

// opsStructureByte is the configuration byte opsStructure maps onto ix.
func opsStructureByte(ix int) byte {
	kinds := cssidx.Kinds()
	switch ix {
	case ixNone:
		return byte(len(kinds))
	case ixSharded:
		return byte(len(kinds) + 1)
	}
	return byte(slices.Index(kinds, cssidx.Kind(ix)))
}

// input encodes the focus, its steps drawn from seed.
func (f opsFocus) input(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	rb := func() byte { return byte(rng.Intn(256)) }
	data := []byte{byte(f.cache), byte(f.fold), byte(f.workers - 1), byte(f.batch), byte(f.set), byte(f.baseRows / 64), rb()}
	for c := range opsNames {
		data = append(data, opsStructureByte(f.ix[c]), byte(f.span[c]))
	}
	data = append(data, rb())
	for range f.steps {
		data = append(data, rb()) // the step's seed
		switch w := rng.Intn(f.appends + f.compacts + f.builds + f.questions); {
		case w < f.appends:
			op := byte(rng.Intn(64))
			if data = append(data, op, rb()); op%4 == 0 {
				data = append(data, rb())
			}
		case w < f.appends+f.compacts:
			data = append(data, byte(64+rng.Intn(8)))
		case w < f.appends+f.compacts+f.builds:
			c := rng.Intn(len(opsNames))
			data = append(data, byte(72+rng.Intn(8)), byte(c), opsStructureByte(f.ix[c]))
		default:
			pick := rb()
			if len(f.kinds) > 0 {
				pick = byte(int(f.kinds[rng.Intn(len(f.kinds))]) + int(opsKinds)*rng.Intn(256/int(opsKinds)))
			}
			data = append(data, byte(80+rng.Intn(176)), pick)
		}
	}
	return data
}

// run runs the focus from seed and fails unless it reached every path in
// need.
func (f opsFocus) run(t *testing.T, seed int64, need ...string) {
	t.Helper()
	tally := runTableOps(t, f.input(seed))
	for _, path := range need {
		if tally[path] == 0 {
			t.Errorf("the input reaches no %s: %v", path, tally)
		}
	}
}

// allOf is three columns under one structure.
func allOf(ix int) [3]int { return [3]int{ix, ix, ix} }

// Structures by kind, for the foci.
var (
	ixLevel = int(cssidx.KindLevelCSS)
	ixFull  = int(cssidx.KindFullCSS)
	ixHash  = int(cssidx.KindHash)
)

// A column pair under every structure family: level CSS-tree, sharded, hash.
var opsTrio = [3]int{ixLevel, ixSharded, ixHash}

// TestCacheDifferentialAllSurfaces: every surface through a cache admitting
// at first sight, across absorbs and folds, hits exact, contained and
// replayed.
func TestCacheDifferentialAllSurfaces(t *testing.T) {
	f := opsFocus{cache: opsAdmitAll, workers: 2, baseRows: 448, ix: opsTrio, span: [3]int{1, 1, 0},
		steps: 400, appends: 2, compacts: 1, questions: 12}
	f.run(t, 1, "exact hit", "containment hit", "subset replay", "aggregate hit", "invalidation")
}

// TestDeltaDifferentialAllSurfaces: every surface over a table absorbing
// appends into delta runs, merging runs and folding, uncached and cached.
func TestDeltaDifferentialAllSurfaces(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			f := opsFocus{fold: 1, workers: 2, baseRows: 256, ix: opsTrio, span: [3]int{1, 1, 2},
				steps: 150, appends: 4, compacts: 1, questions: 8}
			need := []string{"fold"}
			if cached {
				f.cache, need = opsAdmitAll, append(need, "refreshed entry")
			}
			f.run(t, 2, need...)
		})
	}
}

// TestDeltaManyRunsAgainstRebuild: no fold, so shrinking appends stack up
// runs, and a six-value span puts every value in the base and in every run:
// the order of a value's RIDs across runs is what a read-time weave can get
// wrong.
func TestDeltaManyRunsAgainstRebuild(t *testing.T) {
	for _, cached := range []bool{false, true} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("cached=%v/seed=%d", cached, seed), func(t *testing.T) {
				f := opsFocus{fold: 3, baseRows: 192, ix: [3]int{ixLevel, ixSharded, ixHash},
					steps: 120, appends: 6, questions: 3}
				if cached {
					f.cache = opsAdmitAll
				}
				f.run(t, seed, "index with six runs", "value in three runs")
			})
		}
	}
}

// TestFoldMergeMatchesRebuild: appends, Compacts, late builds and group-bys
// under every fold schedule; every fold must leave state byte-identical to
// a from-scratch build, a grouped column's domain included.
func TestFoldMergeMatchesRebuild(t *testing.T) {
	for fold := range opsFolds {
		f := opsFocus{fold: fold, baseRows: 64 * (fold % 2), ix: [3]int{ixLevel, ixSharded, ixNone}, span: [3]int{1, 0, 2},
			steps: 80, appends: 6, compacts: 2, builds: 1, questions: 2, kinds: []opsKind{opsAgg}}
		f.run(t, int64(fold), "fold", "fold of a grouped column")
	}
}

// FuzzFoldOps explores from fold-heavy inputs, one per fold schedule, in
// FuzzTableOps' shape: each cut to its first opsFuzzBytes, over tables of a
// few hundred rows.
func FuzzFoldOps(f *testing.F) {
	for fold := range opsFolds {
		f.Add(opsFocus{fold: fold, ix: [3]int{ixLevel, ixSharded, ixNone}, span: [3]int{1, 0, 2},
			steps: 60, appends: 6, compacts: 2, builds: 1, questions: 2, kinds: []opsKind{opsAgg}}.input(int64(fold))[:opsFuzzBytes])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > opsFuzzBytes {
			t.Skip()
		}
		runOps(t, data, 512)
	})
}

// TestGroupAggregateCachedDifferential: group-bys over all rows and over RID
// lists through the cache, answered again from it and refreshed across
// absorbs.
func TestGroupAggregateCachedDifferential(t *testing.T) {
	f := opsFocus{cache: opsAdmitAll, baseRows: 320, ix: opsTrio, span: [3]int{1, 0, 2},
		steps: 100, appends: 2, compacts: 1, questions: 8, kinds: []opsKind{opsAgg}}
	f.run(t, 3, "aggregate hit", "fold of a grouped column")
}

// TestInDriverMatchesRebuiltOracle: the IN driver with and without group
// offsets, over stacked runs, on two workers.
func TestInDriverMatchesRebuiltOracle(t *testing.T) {
	f := opsFocus{fold: 3, workers: 2, baseRows: 256, ix: opsTrio, span: [3]int{0, 1, 2},
		steps: 200, appends: 3, questions: 6, kinds: []opsKind{opsIxIn}}
	f.run(t, 4, "index in question", "value in three runs")
}

// TestInSubsetNearSupersetDifferential: IN-lists answered by replaying an
// earlier, larger list's entry, and lists one value past an entry, which
// must not be.
func TestInSubsetNearSupersetDifferential(t *testing.T) {
	f := opsFocus{cache: opsAdmitAll, baseRows: 384, ix: opsTrio, span: [3]int{1, 1, 2},
		steps: 200, appends: 1, questions: 10, kinds: []opsKind{opsIn}}
	f.run(t, 5, "subset replay")
}

// joinFocus asks joins, emitting and count-only, over inners under ix.
func joinFocus(workers, batch int, ix [3]int) opsFocus {
	return opsFocus{workers: workers, batch: batch, baseRows: 256, ix: ix, span: [3]int{1, 2, 0},
		steps: 60, appends: 3, compacts: 1, questions: 6, kinds: []opsKind{opsJoin}}
}

// TestJoinBatchMatchesReference: joins probing in batches of seven.
func TestJoinBatchMatchesReference(t *testing.T) {
	joinFocus(1, 2, opsTrio).run(t, 6, "join question")
}

// TestJoinBatchSizesAgree: joins at every probe batch, one and two workers.
func TestJoinBatchSizesAgree(t *testing.T) {
	for batch := range 3 {
		for workers := 1; workers <= 2; workers++ {
			joinFocus(workers, batch, opsTrio).run(t, int64(7+batch), "join question")
		}
	}
}

// TestJoinParallelMatchesSequential: joins staged over two workers.
func TestJoinParallelMatchesSequential(t *testing.T) {
	joinFocus(2, 0, opsTrio).run(t, 8, "staged two-worker join")
}

// TestOversizedJoinCountsItsReject: emitting joins whose pair sets outgrow
// the cache's entry bound — hundreds of outer rows against inner columns of
// six values — are rejected without being staged, and the reject is counted,
// so every miss still reconciles.
func TestOversizedJoinCountsItsReject(t *testing.T) {
	f := opsFocus{cache: opsAdmitAll, baseRows: 448, ix: opsTrio, steps: 260, appends: 12, questions: 1, kinds: []opsKind{opsJoin}}
	f.run(t, 22, "oversized emitting join")
}

// TestEmptyRangeEntryKeepsKeyOrder: a range asked of an empty sharded
// column is admitted as an index-path entry with no rows; refreshed after
// appends it must merge its rows by value, not append them in RID order
// (found by FuzzTableOps).
func TestEmptyRangeEntryKeepsKeyOrder(t *testing.T) {
	runTableOps(t, []byte("110020000001000A1X00X00X00X00780100100100X"))
}

// TestJoinShardedMatchesSortedIndex: joins over sharded inners.
func TestJoinShardedMatchesSortedIndex(t *testing.T) {
	joinFocus(2, 1, allOf(ixSharded)).run(t, 9, "join question")
}

// TestKeySpaceEdges: the key space's edges — 0 and MaxUint32 as keys and
// bounds, duplicated — on every surface, per structure family.
func TestKeySpaceEdges(t *testing.T) {
	for _, c := range []struct {
		name string
		ix   int
	}{{"full CSS", ixFull}, {"hash", ixHash}, {"level CSS", ixLevel}, {"sharded", ixSharded}} {
		t.Run(c.name, func(t *testing.T) {
			f := opsFocus{set: 5, ix: allOf(c.ix), span: [3]int{3, 3, 0},
				steps: 80, appends: 2, compacts: 1, questions: 8}
			f.run(t, 10, "range question", "equal question")
		})
	}
}

// TestOverlappingRangesDifferential: ranges narrowed from and overlapping
// earlier ones through the cache, over absorbs, per ordered kind.
func TestOverlappingRangesDifferential(t *testing.T) {
	for _, k := range cssidx.Kinds() {
		if k == cssidx.KindHash {
			continue
		}
		t.Run(k.String(), func(t *testing.T) {
			f := opsFocus{cache: opsAdmitAll, baseRows: 448, ix: allOf(int(k)), span: [3]int{1, 2, 1},
				steps: 120, appends: 1, questions: 8, kinds: []opsKind{opsRange}}
			f.run(t, 11, "containment hit")
		})
	}
}

// TestOverlappingWhereConjunct: conjunctions whose conjuncts overlap cached
// ranges.
func TestOverlappingWhereConjunct(t *testing.T) {
	f := opsFocus{cache: opsAdmitAll, baseRows: 448, ix: [3]int{ixLevel, ixSharded, ixNone}, span: [3]int{1, 1, 1},
		steps: 150, appends: 1, questions: 8, kinds: []opsKind{opsRange, opsWhere}}
	f.run(t, 12, "where question", "exact hit")
}

// TestRecurrenceAdmissionDifferential: default admission — a first sight
// deferred, the next admitted — over every surface ("battery") and over
// re-asks across absorbs that refresh admitted entries ("refresh surfaces").
func TestRecurrenceAdmissionDifferential(t *testing.T) {
	t.Run("battery", func(t *testing.T) {
		f := opsFocus{cache: opsDefault, workers: 2, baseRows: 448, ix: opsTrio, span: [3]int{1, 1, 0},
			steps: 150, appends: 2, compacts: 1, questions: 12}
		f.run(t, 13, "deferred first sight", "hit of an admitted question", "admission")
	})
	t.Run("refresh surfaces", func(t *testing.T) {
		f := opsFocus{cache: opsDefault, fold: 3, baseRows: 448, ix: opsTrio, span: [3]int{1, 1, 2},
			steps: 150, appends: 3, questions: 12}
		f.run(t, 14, "deferred first sight", "refreshed entry")
	})
}

// TestSelectEqualAllKinds: an index's own equality probes, per kind.
func TestSelectEqualAllKinds(t *testing.T) {
	for _, k := range cssidx.Kinds() {
		f := opsFocus{baseRows: 192, ix: allOf(int(k)), span: [3]int{0, 1, 2},
			steps: 40, appends: 1, questions: 4, kinds: []opsKind{opsEqual}}
		f.run(t, 15, "equal question")
	}
}

// TestSelectEqualMatchesScan: equality probes over a column of a few
// hundred duplicated values, across absorbs and folds.
func TestSelectEqualMatchesScan(t *testing.T) {
	f := opsFocus{fold: 1, baseRows: 448, ix: allOf(ixFull), span: [3]int{1, 1, 1},
		steps: 150, appends: 2, compacts: 1, questions: 6, kinds: []opsKind{opsEqual}}
	f.run(t, 16, "equal question", "fold")
}

// TestSelectInParallelMatchesSequential: IN-lists through the table and the
// IN driver on two workers.
func TestSelectInParallelMatchesSequential(t *testing.T) {
	f := opsFocus{workers: 2, baseRows: 448, ix: opsTrio, span: [3]int{1, 2, 0},
		steps: 150, appends: 2, compacts: 1, questions: 6, kinds: []opsKind{opsIn, opsIxIn}}
	f.run(t, 17, "in question", "index in question")
}

// TestSelectRangeIndexAndScanAgree: ranges narrow (index path) and wide
// (scan path), each in its path's order, plan held to PlanRange.
func TestSelectRangeIndexAndScanAgree(t *testing.T) {
	f := opsFocus{baseRows: 448, ix: allOf(ixFull), span: [3]int{1, 2, 0},
		steps: 150, appends: 2, compacts: 1, questions: 6, kinds: []opsKind{opsRange}}
	f.run(t, 18, "range question")
}

// TestSelectRangeOrderedKinds: an index's own range, per kind; hash refuses
// with ErrNoOrderedAccess.
func TestSelectRangeOrderedKinds(t *testing.T) {
	for _, k := range cssidx.Kinds() {
		f := opsFocus{baseRows: 192, ix: allOf(int(k)), span: [3]int{0, 1, 2},
			steps: 40, appends: 1, questions: 4, kinds: []opsKind{opsIxRange}}
		f.run(t, 19, "index range question")
	}
}

// TestSelectWhereMatchesScan: conjunctions of one to three ranges over
// indexed and unindexed columns, in RID order.
func TestSelectWhereMatchesScan(t *testing.T) {
	f := opsFocus{baseRows: 448, ix: [3]int{ixLevel, ixHash, ixNone}, span: [3]int{1, 2, 0},
		steps: 150, appends: 2, compacts: 1, questions: 6, kinds: []opsKind{opsWhere}}
	f.run(t, 20, "where question")
}

// TestShardedIndexMatchesSortedIndex: a sharded index's equality and range
// probes and the table's ranges over it.
func TestShardedIndexMatchesSortedIndex(t *testing.T) {
	f := opsFocus{fold: 1, baseRows: 448, ix: allOf(ixSharded), span: [3]int{1, 2, 0},
		steps: 150, appends: 2, compacts: 1, questions: 6, kinds: []opsKind{opsEqual, opsIxRange, opsRange}}
	f.run(t, 21, "equal question", "index range question", "fold")
}

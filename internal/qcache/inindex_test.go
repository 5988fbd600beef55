package qcache

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refInReuse is the candidate scan the subset replay ran before the inverted
// index existed, kept as the differential reference: visit every live
// grouped IN entry of the column — gathered from the stripe's entry map,
// the ground truth the index is derived from — for the sources that serve
// the reader and list every query value.  Map order is arbitrary, so it
// returns every such entry.  Caller holds the stripe lock.
func refInReuse(st *stripe, ck colKey, tok Token, distinct []uint32) (wins []*entry) {
scan:
	for k, e := range st.m {
		if e.goff == nil || k.column() != ck || !e.tok.serves(tok) {
			continue
		}
		for _, v := range distinct {
			if _, ok := slices.BinarySearch(e.vals, v); !ok {
				continue scan
			}
		}
		wins = append(wins, e)
	}
	return wins
}

// checkInIndex verifies every stripe's inverted indexes against its entry
// map: each live grouped entry is reachable exactly once from each of its
// values, no posting reaches a dead or unmapped entry, no empty chain, index
// or id slot is kept, and no chain node has leaked.  It also re-derives the
// residency counters.
func checkInIndex(t *testing.T, c *Cache) {
	t.Helper()
	for si := range c.stripes {
		st := &c.stripes[si]
		st.mu.Lock()
		grouped := map[colKey]int{}  // live grouped entries per column
		postings := map[colKey]int{} // values they list
		var bytes int64
		for k, e := range st.m {
			bytes += e.bytes
			if e.dead || e.key != k || e.bytes != payloadBytes(e) {
				t.Fatalf("stripe %d: mapped entry %+v dead=%v bytes=%d", si, k, e.dead, e.bytes)
			}
			if e.goff == nil {
				if e.inID != 0 {
					t.Fatalf("ungrouped entry %+v is indexed", k)
				}
				continue
			}
			ck := k.column()
			grouped[ck]++
			postings[ck] += len(e.vals)
			ix := st.inIdx[ck]
			if ix == nil || e.inID == 0 || ix.owners[e.inID] != e {
				t.Fatalf("grouped entry %+v (id %d) not owned by its column index", k, e.inID)
			}
		}
		if bytes != st.bytes || int64(len(st.m)) != st.stats.Entries || bytes != st.stats.Bytes || len(st.m) != st.live {
			t.Fatalf("stripe %d residency: %d entries %d B, counters live=%d bytes=%d stats=%d/%d",
				si, len(st.m), bytes, st.live, st.bytes, st.stats.Entries, st.stats.Bytes)
		}
		if len(st.inIdx) != len(grouped) {
			t.Fatalf("stripe %d keeps %d column indexes for %d indexed columns", si, len(st.inIdx), len(grouped))
		}
		for ck, ix := range st.inIdx {
			if ix.live != grouped[ck] || ix.live == 0 {
				t.Fatalf("%+v: index counts %d entries, map holds %d", ck, ix.live, grouped[ck])
			}
			if free := len(ix.owners) - 1 - ix.live; free != len(ix.freeIDs) {
				t.Fatalf("%+v: %d unused id slots, %d on the free stack", ck, free, len(ix.freeIDs))
			}
			total := 0
			for v, p := range ix.heads {
				seen := map[uint32]bool{}
				for {
					var e *entry
					if p.id != 0 && int(p.id) < len(ix.owners) {
						e = ix.owners[p.id]
					}
					if e == nil || e.dead || st.m[e.key] != e {
						t.Fatalf("%+v: value %d posts to id %d, not a live entry", ck, v, p.id)
					}
					if _, ok := slices.BinarySearch(e.vals, v); !ok || seen[p.id] {
						t.Fatalf("%+v: value %d posts to %+v (again=%v), which lists %v", ck, v, e.key, seen[p.id], e.vals)
					}
					seen[p.id] = true
					total++
					if p.next == 0 {
						break
					}
					p = ix.nodes[p.next]
				}
			}
			// Every posting lands on a listing entry at most once, so equal
			// totals mean every listed value is posted exactly once.
			if total != postings[ck] {
				t.Fatalf("%+v: %d postings for %d listed values", ck, total, postings[ck])
			}
			free := 0
			for n := ix.freeNode; n != 0; n = ix.nodes[n].next {
				free++
			}
			if used := total - len(ix.heads); used+free != len(ix.nodes)-1 {
				t.Fatalf("%+v: %d chain nodes used + %d free of %d", ck, used, free, len(ix.nodes)-1)
			}
		}
		st.mu.Unlock()
	}
}

// inDom is one invalidation domain of the differential driver: a (table,
// layer) pair with its own appended rows and token history.  A token's Epoch
// is the RID horizon its reader sees.
type inDom struct {
	table string
	layer Layer
	tok   Token
	// past are the earlier tokens.
	past []Token
	// appended[col][v] are the appended RIDs holding v, ascending.
	appended map[string]map[uint32][]uint32
}

// inTail is one column of a domain as the run view of a reader at tok.
type inTail struct {
	dom *inDom
	col string
	tok Token
}

func (t inTail) Pairs(lo, hi, mark uint32) (vals, rids []uint32) {
	panic("IN entries are brought current value by value")
}

func (t inTail) Equal(v, mark uint32, out []uint32) []uint32 {
	for _, r := range t.dom.appended[t.col][v] {
		if r >= mark && uint64(r) < t.tok.Epoch {
			out = append(out, r)
		}
	}
	return out
}

// inDriver drives a cache through the IN-list surfaces the way mmdb does,
// against a synthetic table whose true rows per value it knows.
type inDriver struct {
	t       *testing.T
	c       *Cache
	rng     *rand.Rand
	doms    []*inDom
	nextRID uint32
	lists   [][]uint32   // earlier query lists, to derive subsets and supersets from
	row     map[Key]bool // keys last admitted ungrouped, in row order
	racing  bool         // background readers are missing concurrently
}

const inBaseRIDs = 1 << 20 // appended RIDs start here, above every base RID

var inCols = []string{"a", "b"}

// baseRows are the rows holding v before any append: 0–3 of them.
func baseRows(col string, v uint32) []uint32 {
	n := (v + uint32(len(col))*7 + uint32(col[0])) % 4
	return seq(v%inBaseRIDs*4, n)[:n:n]
}

// rows are the true rows of v visible below the RID horizon limit.
func (dom *inDom) rows(col string, v, limit uint32) []uint32 {
	out := baseRows(col, v)
	for _, r := range dom.appended[col][v] {
		if r < limit {
			out = append(out, r)
		}
	}
	return out
}

// list draws a deduplicated value list: fresh, disjoint from everything
// else, or an earlier list again, as is or as a shuffled subset or
// near-superset.
func (d *inDriver) list() []uint32 {
	var out []uint32
	pick := func(n int, lo, span uint32) {
		for len(out) < n {
			if v := lo + uint32(d.rng.Intn(int(span))); !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
	}
	mode := d.rng.Intn(10)
	switch {
	case len(d.lists) == 0 || mode < 3:
		pick(1+d.rng.Intn(20), 0, 40)
	case mode < 4:
		pick(1+d.rng.Intn(12), 1000+uint32(d.rng.Intn(1<<16)), 64)
	case mode < 7: // subset
		src := d.lists[d.rng.Intn(len(d.lists))]
		out = slices.Clone(src)
		d.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		out = out[:1+d.rng.Intn(len(out))]
	case mode < 8: // the same question again
		return d.lists[d.rng.Intn(len(d.lists))]
	default: // near-superset
		out = slices.Clone(d.lists[d.rng.Intn(len(d.lists))])
		pick(len(out)+1+d.rng.Intn(3), 0, 48)
		d.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	if len(d.lists) < 64 {
		d.lists = append(d.lists, out)
	} else {
		d.lists[d.rng.Intn(len(d.lists))] = out
	}
	return out
}

// query answers one IN-list the way Table.selectIn does — one LookupIn
// (exact match, else subset replay), else recompute and admit — checking the
// replay against the reference scan, the Stats settlement against what the
// reference predicts, and every returned row against the synthetic table.
func (d *inDriver) query(dom *inDom, col string, distinct []uint32, tok Token, grouped bool) {
	t, c, limit := d.t, d.c, uint32(tok.Epoch)
	rd := Reader{Tok: tok, Runs: inTail{dom, col, tok}}
	key := Key{Table: dom.table, Col: col, Kind: KindIn, Layer: dom.layer,
		Hash: HashWords(HashSeed, distinct), N: uint32(len(distinct))}
	var want, goff []uint32
	for _, v := range distinct {
		goff = append(goff, uint32(len(want)))
		want = append(want, dom.rows(col, v, limit)...)
	}
	goff = append(goff, uint32(len(want)))
	inRowOrder := func(rids []uint32) []uint32 {
		s := slices.Clone(rids)
		slices.Sort(s)
		return s
	}

	st := c.stripeFor(key)
	st.mu.Lock()
	wins := refInReuse(st, key.column(), tok, distinct)
	// An exact entry that does not answer is reaped (stale, or it cannot be
	// carried) unless it is newer than the reader: one invalidation that is
	// not a dropped replay source.
	exactGone := int64(0)
	if e := st.m[key]; e != nil && olderOrEqual(e.tok, tok) {
		exactGone = 1
	}
	st.mu.Unlock()
	before := c.Stats()
	got, kind, _, _ := c.LookupIn(key, rd, distinct)
	after := c.Stats()

	switch kind {
	case HitExact:
		if !slices.Equal(got, want) && !(d.row[key] && slices.Equal(got, inRowOrder(want))) {
			t.Fatalf("exact hit %+v under %+v: got %v want %v", key, tok, got, want)
		}
		before.Hits++
	case HitSubset:
		// The replay concatenates the source's groups in query order, which
		// is what the table holds for the list.
		if len(wins) == 0 || !slices.Equal(got, want) {
			t.Fatalf("LookupIn(%v) replayed %v with %d covering sources, want %v", distinct, got, len(wins), want)
		}
		before.Hits++
		before.SubsetHits++
	default:
		// A source that could not be brought current — its successor did not
		// fit the stripe — is dropped and the lookup misses.
		if dropped := after.Invalidations-before.Invalidations > exactGone; len(wins) > 0 && !dropped {
			t.Fatalf("LookupIn(%v) missed, reference scan has %d covering sources", distinct, len(wins))
		}
		before.Misses++
	}
	// Bringing the source current moves the residency and refresh counters;
	// the hit/miss settlement is what the reference predicts.  (The concurrent
	// leg's readers miss in the background.)
	for _, s := range []*Stats{&before, &after} {
		s.Patches, s.Invalidations, s.Evictions, s.Entries, s.Bytes = 0, 0, 0, 0, 0
		if d.racing {
			s.Misses = 0
		}
	}
	if after != before {
		t.Fatalf("LookupIn(%v) answered %v: stats moved to %+v, reference predicts %+v", distinct, kind, after, before)
	}

	switch {
	case kind != HitMiss:
		return // answered; a subset replay is not re-admitted
	case !grouped:
		delete(d.row, key)
		if d.rng.Intn(2) == 0 {
			d.row[key] = true
			c.InsertIn(key, tok, distinct, nil, inRowOrder(want), 10, Plan{})
			return
		}
	}
	delete(d.row, key)
	c.InsertIn(key, tok, distinct, goff, want, 10, Plan{})
}

// step performs one random operation.
func (d *inDriver) step() {
	dom := d.doms[d.rng.Intn(len(d.doms))]
	col := inCols[d.rng.Intn(len(inCols))]
	switch op := d.rng.Intn(100); {
	case op < 80: // a query under the current token
		d.query(dom, col, d.list(), dom.tok, d.rng.Intn(4) > 0)
	case op < 86: // a straggler still holding an earlier token
		if len(dom.past) > 0 {
			d.query(dom, col, d.list(), dom.past[d.rng.Intn(len(dom.past))], true)
		}
	case op < 88: // a token from the future: nothing may match it
		d.c.LookupIn(Key{Table: dom.table, Col: col, Kind: KindIn, Layer: dom.layer, Hash: 1, N: 1},
			at(Token{Gen: dom.tok.Gen + 9}), d.list())
	case op < 98: // an absorbed append: the cache hears nothing of it
		n := 1 + d.rng.Intn(4)
		for _, cn := range inCols {
			for i := 0; i < n; i++ {
				v := uint32(d.rng.Intn(60))
				dom.appended[cn][v] = append(dom.appended[cn][v], d.nextRID+uint32(i))
			}
		}
		d.nextRID += uint32(n)
		dom.past = append(dom.past, dom.tok)
		dom.tok.Epoch = uint64(d.nextRID)
	default: // a fold: the table's entries drop, both layers move on
		d.c.DropTable(dom.table)
		for _, o := range d.doms {
			if o.table == dom.table {
				o.past = append(o.past, o.tok)
				o.tok.Gen++
			}
		}
	}
}

// TestInReusePatchEvictDifferential drives the inverted index and the
// pre-index reference scan through seeded random sequences of grouped and
// ungrouped InsertIn (overlapping, disjoint, subset and superset lists)
// under a budget tight enough to evict, absorbed appends whose rows the
// next hit re-stamps, splices in or drops on, DropTable, and current-,
// stale- and future-token lookups.  Every LookupIn must agree with the
// reference on found/not-found — a near-superset is a miss like any other —
// group contents against the table and its Stats settlement, and the index
// invariants must hold after every step.  The concurrent leg adds readers that race the refreshes' relinking;
// run it with -race.
func TestInReusePatchEvictDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, concurrent := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/concurrent=%v", seed, concurrent), func(t *testing.T) {
				c := New(admitAll(Options{MaxBytes: 24 << 10, stripes: 4}))
				d := &inDriver{t: t, c: c, rng: rand.New(rand.NewSource(seed)), nextRID: inBaseRIDs, row: map[Key]bool{}, racing: concurrent}
				for _, table := range []string{"t", "u"} {
					for _, layer := range []Layer{LayerTable, LayerEpoch} {
						d.doms = append(d.doms, &inDom{table: table, layer: layer, tok: Token{Gen: 1, Epoch: inBaseRIDs},
							appended: map[string]map[uint32][]uint32{"a": {}, "b": {}}})
					}
				}
				var wg sync.WaitGroup
				stop := make(chan struct{})
				if concurrent {
					for w := 0; w < 3; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(seed*100 + int64(w)))
							for {
								select {
								case <-stop:
									return
								default:
								}
								// These readers are behind every entry (all marks
								// are ≥ inBaseRIDs): they walk the posting chains
								// the driver relinks, match nothing, bring nothing
								// current and settle only a miss each, which the
								// driver's predictions leave out on this leg.
								q := []uint32{1 << 30, uint32(rng.Intn(40)), 40 + uint32(rng.Intn(8))}
								k := Key{Table: "tu"[w%2 : w%2+1], Col: inCols[rng.Intn(2)], Kind: KindIn, Layer: Layer(rng.Intn(2)), Hash: 7, N: 3}
								if r, kind, _, _ := c.LookupIn(k, at(Token{Gen: 1 + uint64(rng.Intn(3)), Epoch: uint64(rng.Intn(inBaseRIDs))}), q); kind != HitMiss {
									t.Errorf("concurrent lookup %v behind every entry: %v %v", q, kind, r)
									return
								}
							}
						}(w)
					}
				}
				for i := 0; i < 2000; i++ {
					d.step()
					checkInIndex(t, c)
				}
				close(stop)
				wg.Wait()
				s := c.Stats()
				if s.SubsetHits == 0 || s.Evictions == 0 || s.Patches == 0 || s.Invalidations == 0 {
					t.Fatalf("sequence left a path unexercised: %+v", s)
				}
				if s.SupersetHits != 0 || s.MissingKeyProbes != 0 {
					t.Fatalf("retired superset-fill counters moved: %+v", s)
				}
			})
		}
	}
}

// TestPatchGroupedInOutgrowsBudget splices so many rows into a grouped
// entry that its successor no longer fits the stripe: the entry must drop
// and take the postings its successor had inherited with it.
func TestPatchGroupedInOutgrowsBudget(t *testing.T) {
	c := New(admitAll(Options{MaxBytes: 1 << 10, stripes: 1}))
	k := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 1, N: 2}
	c.InsertIn(k, Token{Epoch: 100}, []uint32{5, 9}, []uint32{0, 1, 2}, []uint32{1, 2}, 10, Plan{})
	batch := make([]uint32, 300)
	for i := range batch {
		batch[i] = 5
	}
	rd := tailRows{start: 100, cols: map[string][]uint32{"a": batch}, col: "a"}.reader(0)
	if _, _, ok, _ := c.Lookup(k, rd); ok {
		t.Fatal("hit on an entry whose successor cannot fit")
	}
	checkInIndex(t, c)
	if s := c.Stats(); s.Entries != 0 || s.Patches != 0 || s.Invalidations != 1 {
		t.Fatalf("after a splice larger than the stripe: %+v", s)
	}
	if _, kind, _, _ := c.LookupIn(Key{Table: "t", Col: "a", Kind: KindIn, Hash: 3, N: 1}, rd, []uint32{9}); kind != HitMiss {
		t.Fatal("reuse from the dropped entry")
	}
}

// fillResident admits n grouped 36-value IN entries on one column, each
// over its own values so that no two share a posting chain, plus one
// 45-value entry over 0..44 for the subset lookups to find.
func fillResident(c *Cache, tok Token, n int) {
	for i := 0; i < n; i++ {
		vals := seq(1000+uint32(i)*36, 36)
		c.InsertIn(Key{Table: "t", Col: "a", Kind: KindIn, Hash: uint64(i), N: 36}, tok, vals, seq(0, 37), vals, 10, Plan{})
	}
	c.InsertIn(Key{Table: "t", Col: "a", Kind: KindIn, Hash: 1 << 40, N: 45}, tok, seq(0, 45), seq(0, 46), seq(0, 45), 10, Plan{})
}

// TestLookupInReuseMissCostFollowsQuery is the scaling guard: a lookup whose
// first value no resident entry lists allocates nothing and probes exactly
// one posting head — not one per query value — at every residency, and a
// near-superset stops at its first unlisted value.
func TestLookupInReuseMissCostFollowsQuery(t *testing.T) {
	for _, resident := range []int{10, 1000, 10000} {
		c := New(admitAll(Options{MaxBytes: 1 << 30, stripes: 1}))
		tok := Token{Gen: 1}
		fillResident(c, tok, resident)
		if got := c.Stats().Entries; got != int64(resident)+1 {
			t.Fatalf("resident=%d: %d entries admitted", resident, got)
		}
		k := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 1 << 41, N: 36}
		q := seq(1<<30, 36)
		ix := c.stripes[0].inIdx[colKey{table: "t", col: "a"}]
		before := ix.visits
		allocs := testing.AllocsPerRun(100, func() {
			if _, kind, _, _ := c.LookupIn(k, at(tok), q); kind != HitMiss {
				t.Fatal("reuse found for values no entry lists")
			}
		})
		if allocs != 0 {
			t.Errorf("resident=%d: a no-candidate miss allocates %v times", resident, allocs)
		}
		if per := (ix.visits - before) / 101; per != 1 { // AllocsPerRun adds a warm-up call
			t.Errorf("resident=%d: a no-candidate miss visits %d postings for %d query values, want 1", resident, per, len(q))
		}
		// 0..39 are listed by one entry, 1<<30 by none: five probes, then stop.
		near := append(seq(0, 4), 1<<30, 5, 6, 7)
		before = ix.visits
		if _, kind, _, _ := c.LookupIn(k, at(tok), near); kind != HitMiss {
			t.Fatal("a near-superset was answered")
		}
		if got := ix.visits - before; got != 5 {
			t.Errorf("resident=%d: a near-superset miss visits %d postings, want 5", resident, got)
		}
	}
}

// BenchmarkLookupInReuseMiss times the two lookups whose cost must not grow
// with the resident entry count: the ad-hoc miss that shares no value with
// anything cached, and a subset replay found among the residents.
func BenchmarkLookupInReuseMiss(b *testing.B) {
	for _, resident := range []int{100, 1000, 10000} {
		c := New(admitAll(Options{MaxBytes: 1 << 30, stripes: 1}))
		tok := Token{Gen: 1}
		fillResident(c, tok, resident)
		k := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 1 << 41, N: 36}
		for _, q := range []struct {
			name string
			vals []uint32
			hit  bool
		}{
			{"miss", seq(1<<30, 36), false},
			{"subset", seq(9, 36), true}, // all 36 values are cached in one entry
		} {
			b.Run(fmt.Sprintf("resident=%d/%s", resident, q.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if r, kind, _, _ := c.LookupIn(k, at(tok), q.vals); (kind == HitSubset) != q.hit {
						b.Fatalf("lookup answered %v %+v", kind, r)
					}
				}
			})
		}
	}
}

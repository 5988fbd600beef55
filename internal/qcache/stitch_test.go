package qcache

import (
	"fmt"
	"testing"
)

// ident inserts a range run over the identity table (value v lives at RID v)
// so assembled results are trivially checkable.
func ident(c *Cache, tok Token, lo, hi uint32) {
	c.InsertRange(rangeKey("t", "a", lo, hi), tok, seq(lo, hi-lo+1), seq(lo, hi-lo+1), 10)
}

func TestStitchRangeSegmentsAndGaps(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	ident(c, tok, 10, 19)
	ident(c, tok, 30, 39)

	sp, ok := c.StitchRange(rangeKey("t", "a", 12, 35), at(tok))
	if !ok {
		t.Fatal("no stitch plan over two overlapping runs")
	}
	if len(sp.Segments) != 2 || len(sp.Gaps) != 1 {
		t.Fatalf("plan shape: %d segments, %d gaps", len(sp.Segments), len(sp.Gaps))
	}
	s0, s1, g := sp.Segments[0], sp.Segments[1], sp.Gaps[0]
	if s0.Lo != 12 || s0.Hi != 19 || s1.Lo != 30 || s1.Hi != 35 {
		t.Fatalf("segment bounds: [%d,%d] [%d,%d]", s0.Lo, s0.Hi, s1.Lo, s1.Hi)
	}
	if g.Lo != 20 || g.Hi != 29 {
		t.Fatalf("gap bounds: [%d,%d]", g.Lo, g.Hi)
	}
	if fmt.Sprint(s0.Keys) != fmt.Sprint(seq(12, 8)) || fmt.Sprint(s1.RIDs) != fmt.Sprint(seq(30, 6)) {
		t.Fatalf("segment payloads: %v / %v", s0.Keys, s1.RIDs)
	}
	if sp.CachedRows != 8+6 {
		t.Fatalf("CachedRows %d, want 14", sp.CachedRows)
	}
}

func TestStitchRangeAdjacentRunsNoGap(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	ident(c, tok, 10, 19)
	ident(c, tok, 20, 29)
	sp, ok := c.StitchRange(rangeKey("t", "a", 10, 29), at(tok))
	if !ok || len(sp.Gaps) != 0 || len(sp.Segments) != 2 {
		t.Fatalf("adjacent runs: ok=%v %+v", ok, sp)
	}
}

func TestStitchRangeHeadAndTailGaps(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	ident(c, tok, 20, 29)
	sp, ok := c.StitchRange(rangeKey("t", "a", 15, 35), at(tok))
	if !ok || len(sp.Segments) != 1 || len(sp.Gaps) != 2 {
		t.Fatalf("head/tail plan: ok=%v %+v", ok, sp)
	}
	if sp.Gaps[0] != (RangeGap{15, 19}) || sp.Gaps[1] != (RangeGap{30, 35}) {
		t.Fatalf("gaps %+v", sp.Gaps)
	}
}

func TestStitchRangeRefusals(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	ident(c, tok, 50, 59)
	// No overlap at all: recompute, not stitch.
	if _, ok := c.StitchRange(rangeKey("t", "a", 10, 20), at(tok)); ok {
		t.Fatal("stitch planned with zero overlapping runs")
	}
	// A run under another token must not contribute.
	if _, ok := c.StitchRange(rangeKey("t", "a", 50, 59), at(Token{Gen: 2})); ok {
		t.Fatal("stitch planned from a stale-token run")
	}
	// Inverted request.
	if _, ok := c.StitchRange(rangeKey("t", "a", 9, 5), at(tok)); ok {
		t.Fatal("stitch planned for an inverted range")
	}
	// Disabled and nil caches.
	if _, ok := New(Options{Disabled: true}).StitchRange(rangeKey("t", "a", 50, 59), at(tok)); ok {
		t.Fatal("disabled cache planned a stitch")
	}
	var nilc *Cache
	if _, ok := nilc.StitchRange(rangeKey("t", "a", 50, 59), at(tok)); ok {
		t.Fatal("nil cache planned a stitch")
	}
}

// TestStitchAdmissionSupersedes locks in the convergence mechanism: a run
// covering existing same-token runs replaces them in the interval map, so a
// shifting dashboard ends with one covering run instead of fragments.
func TestStitchAdmissionSupersedes(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	ident(c, tok, 10, 19)
	ident(c, tok, 30, 39)
	// A run of a different token is out of supersede's reach.
	c.InsertRange(rangeKey("t", "a", 12, 15), Token{Gen: 2}, seq(12, 4), seq(12, 4), 10)
	if s := c.Stats(); s.Entries != 3 {
		t.Fatalf("precondition: %d entries", s.Entries)
	}
	ident(c, tok, 5, 45) // covers both same-token runs
	if s := c.Stats(); s.Entries != 2 {
		t.Fatalf("supersede left %d entries, want 2 (covering + foreign token)", s.Entries)
	}
	// The covering run answers what the dropped fragments did.
	if got, kind, _ := c.LookupRange(rangeKey("t", "a", 11, 18), at(tok)); kind == HitMiss || len(got) != 8 {
		t.Fatalf("containment after supersede: kind=%v got=%v", kind, got)
	}
}

func TestLookupInReuseSubsetAndSuperset(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	k := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 1, N: 3}
	// Values in first-occurrence order 17, 5, 40; 40 matches no rows.
	c.InsertIn(k, tok, []uint32{17, 5, 40}, []uint32{0, 2, 3, 3}, []uint32{8, 9, 3}, 10)

	// Subset replay in a different order: groups come back per query order.
	qk := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 2, N: 2}
	c.Lookup(qk, at(tok)) // the exact miss reuse trades back
	r, ok := c.LookupInReuse(qk, at(tok), []uint32{5, 17})
	if !ok || len(r.Missing) != 0 {
		t.Fatalf("subset not covered: ok=%v %+v", ok, r)
	}
	if fmt.Sprint(r.Groups) != fmt.Sprint([][]uint32{{3}, {8, 9}}) {
		t.Fatalf("subset groups %v", r.Groups)
	}
	if s := c.Stats(); s.SubsetHits != 1 {
		t.Fatalf("subset hit not counted: %+v", s)
	}

	// A cached-empty group is covered (non-nil), not missing.
	r, ok = c.LookupInReuse(qk, at(tok), []uint32{40, 99})
	if !ok {
		t.Fatal("partial coverage not reported")
	}
	if r.Groups[0] == nil || len(r.Groups[0]) != 0 {
		t.Fatalf("cached-empty group misreported: %v", r.Groups[0])
	}
	if fmt.Sprint(r.Missing) != fmt.Sprint([]uint32{99}) {
		t.Fatalf("missing %v", r.Missing)
	}

	// Wrong token: nothing reusable.
	if _, ok := c.LookupInReuse(qk, at(Token{Gen: 9}), []uint32{5}); ok {
		t.Fatal("reuse from a stale-token entry")
	}
	// Ungrouped entries (nil goff) are not reuse candidates.
	c2 := New(admitAll(Options{}))
	c2.InsertIn(k, tok, []uint32{17, 5}, nil, []uint32{8, 9}, 10)
	if _, ok := c2.LookupInReuse(qk, at(tok), []uint32{5}); ok {
		t.Fatal("reuse from an ungrouped entry")
	}
}

func TestInsertInRejectsMalformedGroups(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	k := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 3, N: 2}
	c.InsertIn(k, tok, []uint32{5, 17}, []uint32{0, 1}, []uint32{8, 9}, 10) // len(goff) != len(distinct)+1
	if _, _, ok := c.Lookup(k, at(tok)); ok {
		t.Fatal("malformed grouped entry admitted")
	}
	if s := c.Stats(); s.Rejects != 1 {
		t.Fatalf("reject not counted: %+v", s)
	}
	c.InsertIn(k, tok, []uint32{5, 17, 5}, []uint32{0, 1, 2, 3}, []uint32{8, 9, 8}, 10) // 5 listed twice
	if _, _, ok := c.Lookup(k, at(tok)); ok {
		t.Fatal("grouped entry with a repeated value admitted")
	}
	if s := c.Stats(); s.Rejects != 2 || s.Entries != 0 {
		t.Fatalf("repeated-value reject not counted: %+v", s)
	}
}

func TestLookupAggRoundTrip(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	k := Key{Table: "t", Col: "g", Kind: KindAgg, Hash: 7}
	rows := []AggRow{{Value: 3, Count: 2, Sum: 30, Min: 10, Max: 20}, {Value: 9, Count: 1, Sum: 5, Min: 5, Max: 5}}
	c.InsertAgg(k, tok, "m", true, rows, 10)
	got, _, ok := c.LookupAgg(k, at(tok))
	if !ok || fmt.Sprint(got) != fmt.Sprint(rows) {
		t.Fatalf("agg round trip: ok=%v got=%v", ok, got)
	}
	// The hit returns a copy: mutating it must not reach the cache.
	got[0].Count = 999
	again, _, _ := c.LookupAgg(k, at(tok))
	if again[0].Count != 2 {
		t.Fatal("cached aggregate mutated through a hit")
	}
	if s := c.Stats(); s.AggregateHits != 2 {
		t.Fatalf("agg hits %d, want 2", s.AggregateHits)
	}
	if _, _, ok := c.LookupAgg(k, at(Token{Gen: 2})); ok {
		t.Fatal("agg hit across tokens")
	}
}

// FuzzStitch drives StitchRange with random overlapping run sets over the
// identity table and checks the assembled answer against the sorted-slice
// oracle: segments and gaps must tile the request exactly, and cached
// segments plus oracle-filled gaps must reproduce seq(lo, hi-lo+1).
func FuzzStitch(f *testing.F) {
	f.Add([]byte{10, 9, 30, 9, 12, 23})
	f.Add([]byte{0, 255, 0, 0, 5, 100})
	f.Add([]byte{20, 4, 25, 4, 30, 4, 18, 22})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		c := New(admitAll(Options{}))
		tok := Token{Gen: 1}
		// Last two bytes are the query; the rest insert runs pairwise.
		qlo := uint32(data[len(data)-2])
		qhi := qlo + uint32(data[len(data)-1])%64
		for i := 0; i+1 < len(data)-2; i += 2 {
			lo := uint32(data[i])
			hi := lo + uint32(data[i+1])%64
			ident(c, tok, lo, hi)
		}
		k := rangeKey("t", "a", qlo, qhi)
		sp, ok := c.StitchRange(k, at(tok))
		if !ok {
			return
		}
		// Segments and gaps must tile [qlo, qhi] exactly, in order.
		cur := qlo
		si, gi := 0, 0
		var keys, rids []uint32
		for si < len(sp.Segments) || gi < len(sp.Gaps) {
			if gi >= len(sp.Gaps) || (si < len(sp.Segments) && sp.Segments[si].Lo < sp.Gaps[gi].Lo) {
				s := sp.Segments[si]
				if s.Lo != cur {
					t.Fatalf("segment starts at %d, cursor %d", s.Lo, cur)
				}
				keys = append(keys, s.Keys...)
				rids = append(rids, s.RIDs...)
				cur = s.Hi + 1
				si++
				continue
			}
			g := sp.Gaps[gi]
			if g.Lo != cur {
				t.Fatalf("gap starts at %d, cursor %d", g.Lo, cur)
			}
			keys = append(keys, seq(g.Lo, g.Hi-g.Lo+1)...)
			rids = append(rids, seq(g.Lo, g.Hi-g.Lo+1)...)
			cur = g.Hi + 1
			gi++
		}
		if cur != qhi+1 {
			t.Fatalf("tiling stops at %d, want %d", cur, qhi+1)
		}
		want := seq(qlo, qhi-qlo+1)
		if fmt.Sprint(keys) != fmt.Sprint(want) || fmt.Sprint(rids) != fmt.Sprint(want) {
			t.Fatalf("assembled [%d,%d]: keys=%v rids=%v", qlo, qhi, keys, rids)
		}
	})
}

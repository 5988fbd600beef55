package domain

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cssidx/internal/workload"
)

// Encode is the reference translation: each value's ID found by binary
// search, in any order.  A value the domain lacks panics.
func (d *IntDomain) Encode(values, ids []uint32) {
	for i, v := range values {
		id, ok := slices.BinarySearch(d.values, v)
		if !ok {
			panic("domain: encoding a value the domain does not hold")
		}
		ids[i] = uint32(id)
	}
}

func TestBuildIntRoundTrip(t *testing.T) {
	col := []uint32{30, 10, 20, 10, 30, 30}
	d, ids := BuildInt(col)
	if d.Len() != 3 {
		t.Fatalf("distinct=%d, want 3", d.Len())
	}
	for i, v := range col {
		if got := d.Value(ids[i]); got != v {
			t.Errorf("row %d: decode(%d)=%d, want %d", i, ids[i], got, v)
		}
	}
	// IDs are ranks: 10→0, 20→1, 30→2.
	wantIDs := []uint32{2, 0, 1, 0, 2, 2}
	for i := range ids {
		if ids[i] != wantIDs[i] {
			t.Errorf("ids[%d]=%d, want %d", i, ids[i], wantIDs[i])
		}
	}
}

// TestRankTicksAndStops: Rank ticks once per rankChunk rows with the rows
// it ranked, returns the domain's size, and stops at a tick's error.
func TestRankTicksAndStops(t *testing.T) {
	n := 2*rankChunk + 7
	sorted, rows := make([]uint32, n), make([]uint32, n)
	for i := range sorted {
		sorted[i], rows[i] = uint32(i/3), uint32(n-1-i)
	}
	ids := make([]uint32, n)
	var ticks []int
	distinct, err := Rank(sorted, rows, ids, func(k int) error { ticks = append(ticks, k); return nil })
	if err != nil || distinct != (n+2)/3 {
		t.Fatalf("Rank = %d, %v; want %d distinct", distinct, err, (n+2)/3)
	}
	if !slices.Equal(ticks, []int{rankChunk, rankChunk, 7}) {
		t.Errorf("ticks %v, want [%d %d 7]", ticks, rankChunk, rankChunk)
	}
	for i := range sorted {
		if ids[rows[i]] != sorted[i] {
			t.Fatalf("row %d: id %d, want %d", rows[i], ids[rows[i]], sorted[i])
		}
	}
	stop := errors.New("stop")
	calls := 0
	if _, err := Rank(sorted, rows, ids, func(int) error { calls++; return stop }); err != stop || calls != 1 {
		t.Errorf("Rank with a failing tick: %v after %d ticks, want the tick's error after 1", err, calls)
	}
	if distinct, _ := Rank(nil, nil, nil, nil); distinct != 0 {
		t.Errorf("Rank of nothing: %d distinct", distinct)
	}
}

func TestIntIDOrderPreservesValueOrder(t *testing.T) {
	g := workload.New(110)
	col := g.Shuffled(g.SortedDistinct(5000))
	d, _ := BuildInt(col)
	f := func(a, b uint32) bool {
		va, vb := d.Value(a%uint32(d.Len())), d.Value(b%uint32(d.Len()))
		ids := make([]uint32, 2)
		d.Encode([]uint32{va, vb}, ids)
		return d.Value(ids[0]) == va && d.Value(ids[1]) == vb && (va < vb) == (ids[0] < ids[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestIntIDAbsent: encoding a value the domain lacks panics instead of
// returning a wrong ID; a present value gets its rank.
func TestIntIDAbsent(t *testing.T) {
	d, _ := BuildInt([]uint32{2, 4, 6})
	ids := make([]uint32, 1)
	d.Encode([]uint32{4}, ids)
	if ids[0] != 1 {
		t.Errorf("Encode(4)=%d, want 1", ids[0])
	}
	defer func() {
		if recover() == nil {
			t.Error("Encode of an absent value did not panic")
		}
	}()
	d.Encode([]uint32{3}, ids)
}

func TestIntLargeDomain(t *testing.T) {
	g := workload.New(111)
	col := g.Shuffled(g.SortedDistinct(200000))
	d, ids := BuildInt(col)
	if d.Len() != 200000 {
		t.Fatalf("distinct=%d", d.Len())
	}
	for i := 0; i < len(col); i += 997 {
		if d.Value(ids[i]) != col[i] {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestEmptyDomains(t *testing.T) {
	d, ids := BuildInt(nil)
	if d.Len() != 0 || len(ids) != 0 {
		t.Error("empty int domain mishandled")
	}
}

// TestBuildIntRightSized pins that a domain holds its distinct values and
// nothing more: deduping in place used to leave the whole sorted column
// behind a 64-value dictionary.
func TestBuildIntRightSized(t *testing.T) {
	col := make([]uint32, 10000)
	for i := range col {
		col[i] = uint32(i*7919) % 64
	}
	d, _ := BuildInt(col)
	if cap(d.values) != d.Len() {
		t.Errorf("cap(values)=%d for %d distinct values", cap(d.values), d.Len())
	}
	d, _ = BuildInt(workload.New(7).SortedDistinct(1000))
	if cap(d.values) != d.Len() {
		t.Errorf("all-distinct column: cap(values)=%d, len %d", cap(d.values), d.Len())
	}
}

// checkExtend extends the domain of old by added and requires the result to
// equal BuildInt over the union: same values (exactly sized), the old
// column's IDs carried over by the remap, the added values
// encodable — and the old domain left as it was.
func checkExtend(t *testing.T, old, added []uint32) {
	t.Helper()
	d, oldIDs := BuildInt(old)
	before := slices.Clone(d.values)
	sorted := slices.Clone(added)
	slices.Sort(sorted)
	ext, remap := d.Extend(sorted)
	want, wantIDs := BuildInt(slices.Concat(old, added))

	if !slices.Equal(d.values, before) {
		t.Fatal("Extend modified the domain it grew from")
	}
	if !slices.Equal(ext.values, want.values) {
		t.Fatalf("values differ: got %d, want %d", ext.Len(), want.Len())
	}
	if cap(ext.values) != ext.Len() {
		t.Errorf("cap(values)=%d for %d values", cap(ext.values), ext.Len())
	}
	if (remap == nil) != (ext == d) || (remap == nil) != (want.Len() == d.Len()) {
		t.Fatalf("remap nil=%v, same domain=%v, grew %d→%d", remap == nil, ext == d, d.Len(), want.Len())
	}
	ids := make([]uint32, len(old)+len(added))
	for i, id := range oldIDs {
		ids[i] = id
		if remap != nil {
			ids[i] = remap[id]
		}
	}
	ext.Encode(added, ids[len(old):])
	if !slices.Equal(ids, wantIDs) {
		t.Fatal("remap-encoded column differs from BuildInt of the union")
	}
	for i := 1; i < len(remap); i++ {
		if remap[i] <= remap[i-1] {
			t.Fatalf("remap not strictly increasing at %d", i)
		}
	}
}

func TestExtendMatchesBuildInt(t *testing.T) {
	max := ^uint32(0)
	for _, c := range []struct {
		name       string
		old, added []uint32
	}{
		{"empty-old", nil, []uint32{5, 3, 5, 9}},
		{"empty-added", []uint32{4, 2, 4}, nil},
		{"both-empty", nil, nil},
		{"all-present", []uint32{10, 20, 30, 20}, []uint32{30, 10, 10}},
		{"below-smallest", []uint32{10, 20}, []uint32{0, 3, 3}},
		{"above-largest", []uint32{10, 20}, []uint32{max, 21, max}},
		{"zero-and-max-old", []uint32{0, max}, []uint32{1, max - 1, 0, max}},
		{"interleaved", []uint32{2, 4, 6, 8}, []uint32{1, 3, 5, 7, 9, 4}},
	} {
		t.Run(c.name, func(t *testing.T) { checkExtend(t, c.old, c.added) })
	}
	g := rand.New(rand.NewSource(24))
	for round := 0; round < 60; round++ {
		// Low cardinality (the added values mostly present), high (mostly
		// new), and sizes that cross the tree's node and level boundaries.
		span := []int{8, 300, 1 << 30}[round%3]
		gen := func(n int) []uint32 {
			out := make([]uint32, n)
			for i := range out {
				out[i] = uint32(g.Intn(span))
				if g.Intn(50) == 0 {
					out[i] = []uint32{0, max}[g.Intn(2)]
				}
			}
			return out
		}
		checkExtend(t, gen(g.Intn(2000)), gen(g.Intn(400)))
	}
}

// TestEncodeSortedMatchesEncode holds the sequential walk to the reference
// binary-search translation on sorted inputs: duplicates, a one-value domain, the
// domain's first and last values (0 and MaxUint32 among them), and random
// columns whose sorted rows are encoded in place.
func TestEncodeSortedMatchesEncode(t *testing.T) {
	max := ^uint32(0)
	check := func(name string, column, sorted []uint32) {
		t.Helper()
		d, _ := BuildInt(column)
		want := make([]uint32, len(sorted))
		d.Encode(sorted, want)
		got := make([]uint32, len(sorted))
		d.EncodeSorted(sorted, got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: EncodeSorted %v, Encode %v", name, got, want)
		}
		inPlace := slices.Clone(sorted)
		d.EncodeSorted(inPlace, inPlace)
		if !slices.Equal(inPlace, want) {
			t.Fatalf("%s: EncodeSorted in place %v, Encode %v", name, inPlace, want)
		}
	}
	check("empty", []uint32{4, 2}, nil)
	check("single value", []uint32{7}, []uint32{7})
	check("single value repeated", []uint32{7, 7, 7}, []uint32{7, 7, 7, 7})
	check("duplicates", []uint32{5, 1, 9, 5, 1}, []uint32{1, 1, 5, 5, 5, 9, 9})
	check("both ends", []uint32{0, 10, 20, max}, []uint32{0, 0, max, max})
	check("first only", []uint32{0, 10, 20, max}, []uint32{0})
	check("last only", []uint32{0, 10, 20, max}, []uint32{max})
	g := rand.New(rand.NewSource(25))
	for round := 0; round < 40; round++ {
		span := []int{4, 300, 1 << 30}[round%3]
		column := make([]uint32, 1+g.Intn(3000))
		for i := range column {
			column[i] = uint32(g.Intn(span))
		}
		// A sorted sample of the column, duplicates and gaps included.
		sorted := make([]uint32, g.Intn(len(column)+1))
		for i := range sorted {
			sorted[i] = column[g.Intn(len(column))]
		}
		slices.Sort(sorted)
		check("random", column, sorted)
	}
}

// TestEncodeSortedRejectsAbsentValue: a value the domain lacks — or a
// descending step, which the forward walk reads as one — panics as Encode
// does, instead of returning a wrong ID.
func TestEncodeSortedRejectsAbsentValue(t *testing.T) {
	d := NewInt([]uint32{10, 20, 30})
	for _, sorted := range [][]uint32{{15}, {10, 40}, {20, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EncodeSorted(%v) did not panic", sorted)
				}
			}()
			d.EncodeSorted(sorted, make([]uint32, len(sorted)))
		}()
	}
}

package mmdb

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cssidx"
)

// TestKeySpaceEdges: an index keys on the raw values, so 0 and MaxUint32 are
// ordinary keys, and a closed range ending at MaxUint32 — whose exclusive
// upper probe would wrap — must still reach the last key.  The closed ranges
// [0, MaxUint32], [MaxUint32, MaxUint32] and [x, MaxUint32] run as
// SelectRange (the table's and the index's own) and as SelectWhere conjuncts,
// and the edge values as a SelectIn list and as the join keys of a JoinWith,
// on a column holding both 0 and MaxUint32, indexed by a level CSS-tree, a
// full CSS-tree, a sharded index and a hash index (whose own ranges must
// return ErrNoOrderedAccess) — before any append, after an absorb and after
// a fold.  Every answer must equal the scan oracle.
func TestKeySpaceEdges(t *testing.T) {
	const x = math.MaxUint32 - 1000
	rng := rand.New(rand.NewSource(52))
	draw := func(n int) []uint32 {
		v := make([]uint32, n)
		for i := range v {
			switch rng.Intn(20) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = math.MaxUint32
			case 2:
				v[i] = x
			default:
				v[i] = rng.Uint32() >> 1
			}
		}
		return v
	}
	structures := []struct {
		name  string
		build func(*Table) (*SortedIndex, error)
	}{
		{"level CSS", func(t *Table) (*SortedIndex, error) { return t.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}) }},
		{"full CSS", func(t *Table) (*SortedIndex, error) { return t.BuildIndex("k", cssidx.KindFullCSS, cssidx.Options{}) }},
		{"sharded", func(t *Table) (*SortedIndex, error) { return t.BuildShardedIndex("k", 3) }},
		{"hash", func(t *Table) (*SortedIndex, error) { return t.BuildIndex("k", cssidx.KindHash, cssidx.Options{}) }},
	}
	outer := NewTable("outer")
	if err := outer.AddColumn("fk", append(draw(300), 0, math.MaxUint32, x, 1, x+1)); err != nil {
		t.Fatal(err)
	}
	for _, st := range structures {
		t.Run(st.name, func(t *testing.T) {
			tab := NewTable("edges")
			tab.fold = neverFold
			const n = 4000
			u := make([]uint32, n)
			for i := range u {
				u[i] = uint32(i % 7)
			}
			if err := tab.AddColumn("k", draw(n)); err != nil {
				t.Fatal(err)
			}
			if err := tab.AddColumn("u", u); err != nil {
				t.Fatal(err)
			}
			ix, err := st.build(tab)
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				k, u := tab.cols["k"].raw, tab.cols["u"].raw
				// scan lists the rows whose k (and u, for uHi < 7) qualify,
				// in row order.
				scan := func(keep func(v uint32) bool, uHi uint32) []uint32 {
					var out []uint32
					for row, v := range k {
						if keep(v) && u[row] <= uHi {
							out = append(out, uint32(row))
						}
					}
					return out
				}
				sorted := func(rids []uint32) []uint32 { return slices.Sorted(slices.Values(rids)) }
				for _, r := range [][2]uint32{{0, math.MaxUint32}, {math.MaxUint32, math.MaxUint32}, {x, math.MaxUint32}} {
					lo, hi := r[0], r[1]
					inRange := func(v uint32) bool { return lo <= v && v <= hi }
					want := scan(inRange, 6)
					tag := func(surface string) string { return stage + ": " + surface }
					got, _, err := tab.SelectRange("k", lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualU32(t, tag("table SelectRange"), sorted(got), want)
					got, err = ix.SelectRange(lo, hi)
					if st.name == "hash" {
						if !errors.Is(err, ErrNoOrderedAccess) {
							t.Fatalf("%s: err %v, want ErrNoOrderedAccess", tag("index SelectRange"), err)
						}
					} else {
						if err != nil {
							t.Fatal(err)
						}
						// The index answers in (value, RID) order.
						byValue := slices.Clone(want)
						slices.SortStableFunc(byValue, func(a, b uint32) int { return cmp.Compare(k[a], k[b]) })
						mustEqualU32(t, tag("index SelectRange"), got, byValue)
					}
					got, _, err = tab.SelectWhere([]RangePred{{Col: "k", Lo: lo, Hi: hi}})
					if err != nil {
						t.Fatal(err)
					}
					mustEqualU32(t, tag("one-conjunct SelectWhere"), got, want)
					got, _, err = tab.SelectWhere([]RangePred{{Col: "k", Lo: lo, Hi: hi}, {Col: "u", Lo: 0, Hi: 2}, {Col: "k", Lo: lo, Hi: hi}})
					if err != nil {
						t.Fatal(err)
					}
					mustEqualU32(t, tag("three-conjunct SelectWhere"), got, scan(inRange, 2))
				}
				list := []uint32{math.MaxUint32, 0, x, 1, x + 1}
				got, _, err := tab.SelectIn("k", list)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualU32(t, stage+": SelectIn", sorted(got), scan(func(v uint32) bool { return slices.Contains(list, v) }, 6))
				var pairs, want [][2]uint32
				if _, err := JoinWith(outer, "fk", ix, JoinOptions{}, func(o, i uint32) { pairs = append(pairs, [2]uint32{o, i}) }); err != nil {
					t.Fatal(err)
				}
				for o, v := range outer.cols["fk"].raw {
					for i, w := range k {
						if v == w {
							want = append(want, [2]uint32{uint32(o), uint32(i)})
						}
					}
				}
				if !slices.Equal(pairs, want) {
					t.Fatalf("%s: JoinWith gave %d pairs, the nested loop %d, or a pair differs", stage, len(pairs), len(want))
				}
			}
			check("before any append")
			batch := map[string][]uint32{"k": append(draw(200), 0, math.MaxUint32, x), "u": make([]uint32, 203)}
			if err := tab.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			if tab.DeltaRows() == 0 {
				t.Fatal("the batch was not absorbed")
			}
			check("after an absorb")
			tab.Compact()
			check("after a fold")
		})
	}
}

package sortu32

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000, 100000} {
		a := make([]uint32, n)
		want := make([]uint32, n)
		for i := range a {
			a[i] = rng.Uint32()
		}
		copy(want, a)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		Sort(a)
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("n=%d: diverges at %d", n, i)
			}
		}
	}
}

func TestSortQuickProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		a := append([]uint32(nil), raw...)
		Sort(a)
		if !IsSorted(a) {
			return false
		}
		// Same multiset: compare against stdlib sort of the input.
		b := append([]uint32(nil), raw...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSortAlreadySortedAndReverse(t *testing.T) {
	n := 10000
	asc := make([]uint32, n)
	desc := make([]uint32, n)
	for i := range asc {
		asc[i] = uint32(i * 3)
		desc[i] = uint32((n - i) * 3)
	}
	Sort(asc)
	Sort(desc)
	if !IsSorted(asc) || !IsSorted(desc) {
		t.Error("edge distributions mis-sorted")
	}
	// No pass runs on ascending input, so no ping-pong buffer is allocated.
	vals := make([]uint32, n)
	if got := testing.AllocsPerRun(10, func() { Sort(asc); SortPairs(asc, vals) }); got != 0 {
		t.Errorf("sorting ascending input allocates %v times", got)
	}
}

func TestSortAllEqual(t *testing.T) {
	a := make([]uint32, 1000)
	for i := range a {
		a[i] = 7
	}
	Sort(a)
	for _, v := range a {
		if v != 7 {
			t.Fatal("values corrupted")
		}
	}
}

func TestSortPairsPermutesTogether(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 50, 64, 5000, 200000} {
		keys := make([]uint32, n)
		vals := make([]uint32, n)
		orig := map[uint32]uint32{}
		for i := range keys {
			keys[i] = rng.Uint32()
			vals[i] = uint32(i)
			orig[vals[i]] = keys[i]
		}
		SortPairs(keys, vals)
		if !IsSorted(keys) {
			t.Fatalf("n=%d: keys not sorted", n)
		}
		for i := range keys {
			if orig[vals[i]] != keys[i] {
				t.Fatalf("n=%d: val %d detached from its key", n, vals[i])
			}
		}
	}
}

func TestSortPairsStable(t *testing.T) {
	// Equal keys must keep insertion order of vals.
	keys := []uint32{5, 5, 5, 5, 1, 1, 9, 9, 9}
	vals := []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8}
	// Force the radix path with padding beyond the insertion threshold.
	for i := 0; i < 100; i++ {
		keys = append(keys, 1000+uint32(i))
		vals = append(vals, 100+uint32(i))
	}
	SortPairs(keys, vals)
	wantPrefix := []uint32{4, 5, 0, 1, 2, 3, 6, 7, 8}
	for i, w := range wantPrefix {
		if vals[i] != w {
			t.Fatalf("stability broken at %d: vals=%v", i, vals[:9])
		}
	}
}

func TestSortPairsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SortPairs([]uint32{1, 2}, []uint32{1})
}

func TestMerge(t *testing.T) {
	cases := []struct{ a, b, want []uint32 }{
		{nil, nil, []uint32{}},
		{[]uint32{1, 3}, nil, []uint32{1, 3}},
		{nil, []uint32{2}, []uint32{2}},
		{[]uint32{1, 3, 5}, []uint32{2, 4, 6}, []uint32{1, 2, 3, 4, 5, 6}},
		{[]uint32{1, 1}, []uint32{1}, []uint32{1, 1, 1}},
		{[]uint32{5, 6}, []uint32{1, 2}, []uint32{1, 2, 5, 6}},
	}
	for _, c := range cases {
		got, payload := MergePairs(c.a, c.a, c.b, c.b) // each key its own payload
		if len(got) != len(c.want) || !slices.Equal(got, payload) {
			t.Errorf("Merge(%v,%v)=%v", c.a, c.b, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Merge(%v,%v)=%v", c.a, c.b, got)
				break
			}
		}
	}
}

func TestMergeQuickProperty(t *testing.T) {
	f := func(ra, rb []uint32) bool {
		a := append([]uint32(nil), ra...)
		b := append([]uint32(nil), rb...)
		Sort(a)
		Sort(b)
		m, p := MergePairs(a, a, b, b)
		return IsSorted(m) && len(m) == len(a)+len(b) && slices.Equal(m, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRadixVsStdlib(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 1_000_000
	base := make([]uint32, n)
	for i := range base {
		base[i] = rng.Uint32()
	}
	b.Run("radix", func(b *testing.B) {
		a := make([]uint32, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(a, base)
			Sort(a)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		a := make([]uint32, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(a, base)
			sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
		}
	})
}

package mmdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"cssidx"
)

// The kernels every cached surface runs before its lookup — the plan's
// selectivity text and the IN-list dedupe — checked against the library
// code they stand in for, and the hit path they serve priced.

// TestWhyPctMatchesStrconv: appendPct must be byte-identical to
// strconv.AppendFloat(…, 'f', 0 or 1, 64) for every selectivity a plan can
// spell — uniform fractions, exact ties k/2000 (where strconv rounds half
// to even), present/domLen ratios as PlanIn and PlanRange form them, the
// ends — and hand everything outside its range back to strconv.
func TestWhyPctMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	fracs := []float64{0, 0.35, 1, 0.005, 0.0005, 0.00005, 0.9995, 0.99995, 0.125, 1.0 / 3}
	for k := 0; k <= 2000; k++ {
		fracs = append(fracs, float64(k)/2000)
	}
	for dom := 1; dom <= 700; dom++ {
		for present := 0; present <= dom; present++ {
			fracs = append(fracs, float64(present)/float64(dom))
		}
	}
	for i := 0; i < 200_000; i++ {
		dom := 1 + rng.Intn(2_000_000)
		fracs = append(fracs, float64(rng.Intn(dom+1))/float64(dom))
	}
	for len(fracs) < 1_100_000 {
		fracs = append(fracs, rng.Float64())
	}
	var got, want []byte
	check := func(x float64) {
		for prec := 0; prec <= 1; prec++ {
			got = appendPct(got[:0], x, prec == 1)
			want = strconv.AppendFloat(want[:0], x, 'f', prec, 64)
			if string(got) != string(want) {
				t.Fatalf("x %v prec %d: %q, strconv says %q", x, prec, got, want)
			}
		}
	}
	for _, frac := range fracs {
		check(100 * frac)
	}
	// Outside the fast path: negatives, -0, non-finite, ≥ 1e6.
	for _, x := range []float64{math.Copysign(0, -1), -0.04, -3, math.NaN(), math.Inf(1), math.Inf(-1),
		1e6, 1e6 - 0.04, 2.5e9, 1e300, math.SmallestNonzeroFloat64} {
		check(x)
	}
	if got, want := whyPct("selectivity ", 0.0123, true, " below"), fmt.Sprintf("selectivity %.1f%% below", 1.23); got != want {
		t.Fatalf("whyPct = %q, fmt says %q", got, want)
	}
}

// FuzzDedupeValues: dedupeValues must return exactly the first occurrence of
// each value in list order, as a map oracle does — 0 and MaxUint32 (whose
// slot encoding wraps) included, at lengths either side of the 64-value stack
// table.  The fuzzer's words are reduced modulo mod (0 = not reduced) to make
// duplicates common; MaxUint32 words are kept as they are.
func FuzzDedupeValues(f *testing.F) {
	enc := func(vs ...uint32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	f.Add(enc(), uint16(0))
	f.Add(enc(math.MaxUint32, 0, math.MaxUint32, 0, 5, math.MaxUint32), uint16(0))
	f.Add(enc(math.MaxUint32-1, math.MaxUint32, math.MaxUint32-1), uint16(0))
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{1, 2, 31, 32, 33, 63, 64, 65, 66, 127, 128, 129, 200, 513} {
		for _, mod := range []uint16{0, 7, 60, 1000} {
			vs := make([]uint32, n)
			for i := range vs {
				vs[i] = rng.Uint32()
				if rng.Intn(16) == 0 {
					vs[i] = math.MaxUint32
				}
			}
			f.Add(enc(vs...), mod)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, mod uint16) {
		values := make([]uint32, len(data)/4)
		for i := range values {
			v := binary.LittleEndian.Uint32(data[4*i:])
			if mod != 0 && v != math.MaxUint32 {
				v %= uint32(mod)
			}
			values[i] = v
		}
		seen := map[uint32]bool{}
		want := []uint32{}
		for _, v := range values {
			if !seen[v] {
				seen[v] = true
				want = append(want, v)
			}
		}
		if got := dedupeValues(values); !slices.Equal(got, want) {
			t.Fatalf("dedupeValues(%v) = %v, want %v", values, got, want)
		}
	})
}

// BenchmarkWarmHit prices the hit path of the cached surfaces in the shape
// of the end-to-end dss_repeat mix: 2M rows, k uniform over uint32 under a
// level CSS-tree, g over 64 groups, m a measure.  Each leg asks one question
// whose answer is resident, so what it measures is the front end — the IN
// dedupe, the fingerprint, the replayed plan — plus the lookup and the copy:
// exact hits of a ≈1,270-row SelectRange, a 32-value SelectIn, a SelectWhere
// of that range and a range of g, and a GroupAggregate over the range's RIDs,
// and the subset replay of the IN-list's first 16 values.
func BenchmarkWarmHit(b *testing.B) {
	const rows = 2_000_000
	rng := rand.New(rand.NewSource(28))
	k, g, m := make([]uint32, rows), make([]uint32, rows), make([]uint32, rows)
	for i := range k {
		k[i], g[i], m[i] = rng.Uint32(), uint32(rng.Intn(64)), uint32(rng.Intn(1<<20))
	}
	tab := NewTable("fact")
	for _, c := range []struct {
		name string
		vals []uint32
	}{{"k", k}, {"g", g}, {"m", m}} {
		if err := tab.AddColumn(c.name, c.vals); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		b.Fatal(err)
	}
	tab.EnableCache(CacheOptions{MinCostNs: -1}) // admit at first sight: one warm call per leg
	width := uint32(math.MaxUint32 / 1575)       // ≈1,270 of 2M uniform rows
	lo := uint32(rng.Int63n(int64(math.MaxUint32 - width)))
	src, _, err := tab.SelectRange("k", lo, lo+width)
	if err != nil {
		b.Fatal(err)
	}
	list := make([]uint32, 32)
	for i := range list {
		list[i] = k[rng.Intn(rows)]
	}
	preds := []RangePred{{Col: "k", Lo: lo, Hi: lo + width}, {Col: "g", Lo: 0, Hi: 15}}
	for _, leg := range []struct {
		name   string
		subset bool // answered by subset replay, not an exact hit
		run    func() error
	}{
		{"SelectRange", false, func() error { _, _, err := tab.SelectRange("k", lo, lo+width); return err }},
		{"SelectIn32", false, func() error { _, _, err := tab.SelectIn("k", list); return err }},
		{"SelectInSubset16", true, func() error { _, _, err := tab.SelectIn("k", list[:16]); return err }},
		{"SelectWhere", false, func() error { _, _, err := tab.SelectWhere(preds); return err }},
		{"GroupAggregate", false, func() error { _, err := GroupAggregate(tab, "g", "m", src); return err }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			if leg.subset { // the replay's source
				if _, _, err := tab.SelectIn("k", list); err != nil {
					b.Fatal(err)
				}
			}
			if err := leg.run(); err != nil { // warm
				b.Fatal(err)
			}
			before := tab.Cache().Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := leg.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			subsets := int64(0)
			if leg.subset {
				subsets = int64(b.N)
			}
			if s := tab.Cache().Stats(); s.Misses != before.Misses || s.ContainedHits != before.ContainedHits || s.SubsetHits != before.SubsetHits+subsets {
				b.Fatalf("%s: not every call was a hit of its kind: %+v", leg.name, s)
			}
		})
	}
}

package sortu32

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cssidx/internal/cpu"
	"cssidx/internal/parallel"
)

// uniqueDist generates the key shapes Unique.Sort must get right: random
// and skewed batches, the degenerate orders, the extreme values (and the
// largest key last), and keys varying in one byte only (so every digit is
// alone in splitting them).
func uniqueDist(name string, n int, rng *rand.Rand) []uint32 {
	keys := make([]uint32, n)
	switch name {
	case "uniform":
		for i := range keys {
			keys[i] = rng.Uint32()
		}
	case "zipf":
		if n > 0 {
			keys = zipfBatches(1, n)[0]
		}
	case "all-equal":
		for i := range keys {
			keys[i] = 0xdeadbeef
		}
	case "ascending":
		for i := range keys {
			keys[i] = uint32(i) * 7
		}
	case "descending":
		for i := range keys {
			keys[i] = uint32(n-i) * 7
		}
	case "extremes":
		for i := range keys {
			keys[i] = uint32(rng.Intn(2)) * math.MaxUint32
		}
	case "max-last": // the largest key beside the network's all-ones padding
		for i := range keys {
			keys[i] = rng.Uint32()
		}
		if n > 0 {
			keys[n-1] = math.MaxUint32
		}
	default: // "byte<d>": only byte d varies
		var d int
		fmt.Sscanf(name, "byte%d", &d)
		for i := range keys {
			keys[i] = 0x5a5a5a5a&^(0xff<<(8*d)) | uint32(rng.Intn(256))<<(8*d)
		}
	}
	return keys
}

// checkUnique holds one Unique.Sort to its definition: a stable sort of the
// (key, index) pairs followed by an adjacent-equal dedupe.
func checkUnique(t testing.TB, body string, u *Unique, probes []uint32, opts parallel.Options) {
	t.Helper()
	in := slices.Clone(probes)
	distinct, perm, expand := u.Sort(probes, opts)
	if !slices.Equal(probes, in) {
		t.Fatalf("%s: Sort modified its input", body)
	}
	type pair struct{ k, i uint32 }
	ref := make([]pair, len(probes))
	for i, k := range probes {
		ref[i] = pair{k, uint32(i)}
	}
	slices.SortStableFunc(ref, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
	var want []uint32
	for j, p := range ref {
		if j == 0 || p.k != ref[j-1].k {
			want = append(want, p.k)
		}
	}
	if !slices.Equal(distinct, want) {
		t.Fatalf("%s n=%d: %d distinct keys, want %d", body, len(probes), len(distinct), len(want))
	}
	if len(perm) != len(probes) || len(expand) != len(probes) {
		t.Fatalf("%s n=%d: len(perm)=%d len(expand)=%d", body, len(probes), len(perm), len(expand))
	}
	slot := int32(-1)
	for j, p := range ref {
		if j == 0 || p.k != ref[j-1].k {
			slot++
		}
		if perm[j] != p.i || expand[j] != slot {
			t.Fatalf("%s n=%d: [%d] perm %d expand %d, want %d %d", body, len(probes), j, perm[j], expand[j], p.i, slot)
		}
	}
}

// forEachBody runs f once per body Unique.Sort can take below
// parallelSortMin: the sorting network (on AVX-512 hosts only) and the LSD
// body.
func forEachBody(f func(body string)) {
	defer func(prev bool) { network512 = prev }(network512)
	for _, network := range []bool{true, false} {
		if network && !cpu.AVX512 {
			continue
		}
		network512 = network
		if network {
			f("kernel")
		} else {
			f("lsd")
		}
	}
}

// uniqueSizes are the batch sizes at every edge of the sorting network:
// below, at and above one register (8 words), one 64-word block, the first
// block pairs, odd block counts that merge with a partnerless block, and
// the crossover to the LSD body; then the partition's edge.
var uniqueSizes = []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 383, 511, 512, 513,
	1023, 1024, 1025, networkMax - 1, networkMax, networkMax + 1, 32_767, 32_768, 100_000}

func TestUniqueSortMatchesStableSort(t *testing.T) {
	raiseGOMAXPROCS(t)
	rng := rand.New(rand.NewSource(34))
	dists := []string{"uniform", "zipf", "all-equal", "ascending", "descending", "extremes", "max-last", "byte0", "byte1", "byte2", "byte3"}
	for _, workers := range []int{1, 4} {
		opts := parallel.Options{Workers: workers, MinBatchPerWorker: 1024}
		var u Unique // reused across sizes, as a pooled scratch is
		for _, n := range uniqueSizes {
			for _, dist := range dists {
				t.Run(fmt.Sprintf("workers=%d/n=%d/%s", workers, n, dist), func(t *testing.T) {
					probes := uniqueDist(dist, n, rng)
					forEachBody(func(body string) { checkUnique(t, body, &u, probes, opts) })
				})
			}
		}
	}
}

// FuzzSortUnique feeds arbitrary keys through Unique.Sort under each body;
// wide inputs are tiled past parallelSortMin and sorted through the
// four-worker partition.
func FuzzSortUnique(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0}, true)
	maxLast := make([]byte, 4*65) // 65 keys, the last MaxUint32: a probe beside the padding
	for i := range maxLast {
		maxLast[i] = byte(i * 7)
	}
	copy(maxLast[4*64:], []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(maxLast, false)
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		keys := make([]uint32, len(data)/4)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		opts := parallel.Options{Workers: 1}
		if wide && len(keys) > 0 {
			for len(keys) < parallelSortMin {
				keys = append(keys, keys[:min(len(keys), parallelSortMin-len(keys))]...)
			}
			opts = parallel.Options{Workers: 4, MinBatchPerWorker: 1024}
		}
		var u Unique
		forEachBody(func(body string) { checkUnique(t, body, &u, keys, opts) })
	})
}

func TestDedupeGeneric(t *testing.T) {
	keys := []uint32{1, 1, 2, 3, 3, 3}
	expand := make([]int32, len(keys))
	if uq := Dedupe(keys, expand); uq != 3 || !slices.Equal(keys[:uq], []uint32{1, 2, 3}) ||
		!slices.Equal(expand, []int32{0, 0, 1, 2, 2, 2}) {
		t.Fatalf("Dedupe: %d %v %v", uq, keys, expand)
	}
	if Dedupe([]uint32{}, nil) != 0 {
		t.Fatal("Dedupe of nothing")
	}
}

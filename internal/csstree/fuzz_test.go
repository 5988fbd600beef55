package csstree

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzLowerBound drives arbitrary key arrays, probe keys and node sizes
// through both tree variants against the sort.Search reference.
func FuzzLowerBound(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, uint32(2), uint8(2))
	f.Add([]byte{}, uint32(0), uint8(0))
	f.Add([]byte{255, 255, 255, 255}, uint32(1), uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, probe uint32, mSel uint8) {
		ms := []int{2, 3, 4, 5, 8, 16, 17}
		m := ms[int(mSel)%len(ms)]
		keys := make([]uint32, len(raw)/4)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		want := sort.Search(len(keys), func(i int) bool { return keys[i] >= probe })

		full := BuildFull(keys, m)
		if got := full.LowerBound(probe); got != want {
			t.Fatalf("full m=%d n=%d: LowerBound(%d)=%d, want %d", m, len(keys), probe, got, want)
		}
		if m&(m-1) == 0 {
			level := BuildLevel(keys, m)
			if got := level.LowerBound(probe); got != want {
				t.Fatalf("level m=%d n=%d: LowerBound(%d)=%d, want %d", m, len(keys), probe, got, want)
			}
		}
	})
}

// FuzzBatch drives arbitrary key arrays, probe batches, node sizes and both
// tree variants through the three batch methods against the sort.Search
// reference: the lockstep descent must agree with it probe by probe,
// whatever the batch length.
func FuzzBatch(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0}, []byte{2, 0, 0, 0, 9, 0, 0, 0}, uint8(5), false)
	f.Add([]byte{}, []byte{0, 0, 0, 0}, uint8(0), true)
	f.Add(bytes.Repeat([]byte{7, 1, 0, 0}, 300), bytes.Repeat([]byte{7, 1, 0, 0, 255, 255, 255, 255}, 40), uint8(2), true)
	f.Fuzz(func(t *testing.T, rawKeys, rawProbes []byte, mSel uint8, level bool) {
		ms := []int{2, 3, 4, 5, 8, 16, 17, 32}
		m := ms[int(mSel)%len(ms)]
		keys := make([]uint32, len(rawKeys)/4)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint32(rawKeys[4*i:])
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		probes := make([]uint32, len(rawProbes)/4)
		for i := range probes {
			probes[i] = binary.LittleEndian.Uint32(rawProbes[4*i:])
		}
		var tr batchTree = BuildFull(keys, m)
		if level && m&(m-1) == 0 {
			tr = BuildLevel(keys, m)
		}
		lb := make([]int32, len(probes))
		sr := make([]int32, len(probes))
		first := make([]int32, len(probes))
		last := make([]int32, len(probes))
		tr.LowerBoundBatch(probes, lb)
		tr.SearchBatch(probes, sr)
		tr.EqualRangeBatch(probes, first, last)
		for i, p := range probes {
			lo := sort.Search(len(keys), func(i int) bool { return keys[i] >= p })
			hi := sort.Search(len(keys), func(i int) bool { return keys[i] > p })
			found := lo
			if lo == hi {
				found = -1
			}
			if int(lb[i]) != lo || int(sr[i]) != found || int(first[i]) != lo || int(last[i]) != hi {
				t.Fatalf("m=%d level=%v n=%d probe %d: LowerBound %d, Search %d, EqualRange [%d,%d); want %d, %d, [%d,%d)",
					m, level, len(keys), p, lb[i], sr[i], first[i], last[i], lo, found, lo, hi)
			}
		}
	})
}

// FuzzSnapshot round-trips snapshots of both builds of fuzzed arrays at
// fuzzed node sizes (any m ≥ 2 for a full tree, a power of two for a level
// tree) through Restore: the restored tree must keep the variant and the
// geometry, and its LowerBound must agree with sort.Search.  Mutated
// snapshot bytes are TestSnapshotBitFlips' and FuzzLoadIndex's concern.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 9, 0, 0, 0}, uint32(9), uint8(6), false)
	f.Add(bytes.Repeat([]byte{7, 1, 0, 0, 3, 0, 0, 0}, 200), uint32(260), uint8(2), true)
	f.Add(bytes.Repeat([]byte{5, 0, 0, 0}, 90), uint32(5), uint8(1), false)
	f.Fuzz(func(t *testing.T, raw []byte, probe uint32, mSel uint8, level bool) {
		keys := make([]uint32, len(raw)/4)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		orig := BuildFull(keys, 2+int(mSel)%63)
		if level {
			orig = BuildLevel(keys, 2<<(mSel%6))
		}
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(&buf, keys)
		if err != nil {
			t.Fatalf("%s round trip rejected: %v", orig, err)
		}
		if restored.Geometry() != orig.Geometry() || restored.Name() != orig.Name() {
			t.Fatalf("restored %s, want %s", restored, orig)
		}
		got := restored.LowerBound(probe)
		want := sort.Search(len(keys), func(i int) bool { return keys[i] >= probe })
		if got != want {
			t.Fatalf("%s: restored LowerBound(%d)=%d, want %d", orig, probe, got, want)
		}
	})
}

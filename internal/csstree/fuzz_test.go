package csstree

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzLowerBound drives arbitrary key arrays, probe keys and node sizes
// through both tree variants — any m in 2..64 for a full tree, a power of
// two in 2..64 for a level tree — against the sort.Search reference: each
// build must carry its variant's name and the geometry of its shape.
func FuzzLowerBound(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, uint32(2), uint8(2))
	f.Add([]byte{}, uint32(0), uint8(0))
	f.Add([]byte{255, 255, 255, 255}, uint32(1), uint8(7))
	f.Add([]byte{1, 0, 0, 0, 9, 0, 0, 0}, uint32(9), uint8(6))
	f.Add(bytes.Repeat([]byte{7, 1, 0, 0, 3, 0, 0, 0}, 200), uint32(260), uint8(2))
	f.Add(bytes.Repeat([]byte{5, 0, 0, 0}, 90), uint32(5), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, probe uint32, mSel uint8) {
		keys := make([]uint32, len(raw)/4)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		want := sort.Search(len(keys), func(i int) bool { return keys[i] >= probe })

		fullM, levelM := 2+int(mSel)%63, 2<<(mSel%6)
		for _, c := range []struct {
			tr   *Tree
			g    Geometry
			name string
		}{
			{BuildFull(keys, fullM), FullGeometry(len(keys), fullM), "full CSS-tree"},
			{BuildLevel(keys, levelM), LevelGeometry(len(keys), levelM), "level CSS-tree"},
		} {
			if c.tr.Geometry() != c.g || c.tr.Name() != c.name {
				t.Fatalf("%s: geometry %+v, want %s with %+v", c.tr, c.tr.Geometry(), c.name, c.g)
			}
			if got := c.tr.LowerBound(probe); got != want {
				t.Fatalf("%s: LowerBound(%d)=%d, want %d", c.tr, probe, got, want)
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

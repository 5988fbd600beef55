package csstree

import (
	"bytes"
	"testing"

	"cssidx/internal/workload"
)

func TestSnapshotRoundTripFull(t *testing.T) {
	g := workload.New(140)
	keys := g.SortedDistinct(50000)
	orig := BuildFull(keys, 16)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf, keys)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Geometry() != orig.Geometry() {
		t.Fatalf("restored geometry %+v, want %+v", restored.Geometry(), orig.Geometry())
	}
	probes := append(g.Lookups(keys, 2000), g.Misses(keys, 2000)...)
	for _, k := range probes {
		if a, b := orig.LowerBound(k), restored.LowerBound(k); a != b {
			t.Fatalf("restored tree diverges: %d vs %d for key %d", a, b, k)
		}
	}
}

func TestSnapshotRoundTripLevel(t *testing.T) {
	g := workload.New(141)
	keys := g.SortedWithDuplicates(30000, 3)
	orig := BuildLevel(keys, 16)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf, keys)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Geometry() != orig.Geometry() {
		t.Fatalf("restored geometry %+v, want %+v", restored.Geometry(), orig.Geometry())
	}
	for _, k := range g.Lookups(keys, 2000) {
		if a, b := orig.Search(k), restored.Search(k); a != b {
			t.Fatalf("restored tree diverges: %d vs %d for key %d", a, b, k)
		}
	}
}

func TestSnapshotTinyTrees(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16} {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(i)
		}
		var buf bytes.Buffer
		if _, err := BuildFull(keys, 16).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(&buf, keys)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, k := range keys {
			if got := restored.Search(k); got != i {
				t.Fatalf("n=%d: Search(%d)=%d", n, k, got)
			}
		}
	}
}

func TestSnapshotRejectsWrongArray(t *testing.T) {
	g := workload.New(142)
	keys := g.SortedDistinct(10000)
	var buf bytes.Buffer
	if _, err := BuildFull(keys, 16).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Same length, one key changed.
	tampered := append([]uint32(nil), keys...)
	tampered[5000]++
	if _, err := Restore(bytes.NewReader(buf.Bytes()), tampered); err == nil {
		t.Error("snapshot attached to a different array")
	}
	// Different length.
	if _, err := Restore(bytes.NewReader(buf.Bytes()), keys[:9999]); err == nil {
		t.Error("snapshot attached to a shorter array")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	keys := []uint32{1, 2, 3}
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for _, c := range cases {
		if _, err := Restore(bytes.NewReader(c), keys); err == nil {
			t.Errorf("accepted garbage %v", c)
		}
	}
}

func TestSnapshotTruncated(t *testing.T) {
	g := workload.New(144)
	keys := g.SortedDistinct(5000)
	var buf bytes.Buffer
	if _, err := BuildFull(keys, 16).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{1, 10, len(whole) / 2, len(whole) - 1} {
		if _, err := Restore(bytes.NewReader(whole[:cut]), keys); err == nil {
			t.Errorf("accepted snapshot truncated to %d bytes", cut)
		}
	}
}

// TestSnapshotBitFlips flips every bit of a small full and a small level
// snapshot in turn: each flipped snapshot must fail Restore, or restore a
// tree that answers every probe exactly as the original does.
func TestSnapshotBitFlips(t *testing.T) {
	keys := make([]uint32, 400)
	for i := range keys {
		keys[i] = uint32(3*i + i%2)
	}
	for _, orig := range []*Tree{BuildFull(keys, 8), BuildLevel(keys, 8)} {
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snap := buf.Bytes()
		for i := range 8 * len(snap) {
			bad := bytes.Clone(snap)
			bad[i/8] ^= 1 << (i % 8)
			tr, err := Restore(bytes.NewReader(bad), keys)
			if err != nil {
				continue
			}
			for k := range uint32(3*len(keys) + 2) {
				if a, b := orig.Search(k), tr.Search(k); a != b {
					t.Fatalf("%s: bit %d of byte %d flipped: Search(%d) = %d, want %d", orig.Name(), i%8, i/8, k, b, a)
				}
				if a, b := orig.LowerBound(k), tr.LowerBound(k); a != b {
					t.Fatalf("%s: bit %d of byte %d flipped: LowerBound(%d) = %d, want %d", orig.Name(), i%8, i/8, k, b, a)
				}
			}
		}
	}
}

// TestRestoreRejectsNonPow2Level writes a CRC-valid level snapshot with a
// node size BuildLevel refuses (m = 3, zeroed directory): Restore must
// return an error, not a tree that routes on two keys of a three-slot node.
func TestRestoreRejectsNonPow2Level(t *testing.T) {
	keys := make([]uint32, 500)
	for i := range keys {
		keys[i] = uint32(3 * i)
	}
	for _, m := range []int{3, 5, 6, 24} {
		g := LevelGeometry(len(keys), m)
		bad := &Tree{keys: keys, dir: make([]uint32, g.DirectoryKeys()), g: g}
		var buf bytes.Buffer
		if _, err := bad.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if tr, err := Restore(&buf, keys); err == nil {
			t.Errorf("m=%d: level snapshot restored (LowerBound(300) = %d, want 100)", m, tr.LowerBound(300))
		}
	}
}

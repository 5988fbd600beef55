package cssidx_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cssidx"
	"cssidx/internal/workload"
)

func TestSaveLoadShardedRoundTrip(t *testing.T) {
	g := workload.New(153)
	keys := g.SortedWithDuplicates(40000, 4)
	idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 5})
	defer idx.Close()
	// Push some epochs through the background rebuilder so the snapshot
	// captures post-swap shard arrays, not the build-time slices.
	idx.Insert(g.Lookups(keys, 500)...)
	idx.Delete(g.Lookups(keys, 200)...)
	idx.Sync()

	var buf bytes.Buffer
	if err := cssidx.SaveSharded(&buf, idx); err != nil {
		t.Fatal(err)
	}
	loaded, err := cssidx.LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != idx.Len() {
		t.Fatalf("restored %d keys, want %d", loaded.Len(), idx.Len())
	}
	if loaded.ShardCount() != idx.ShardCount() {
		t.Fatalf("restored %d shards, want %d", loaded.ShardCount(), idx.ShardCount())
	}
	want, got := idx.Snapshot(), loaded.Snapshot()
	probes := append(g.Lookups(keys, 3000), g.Misses(keys, 3000)...)
	for _, k := range probes {
		if a, b := want.Search(k), got.Search(k); a != b {
			t.Fatalf("Search(%d): %d vs %d", k, a, b)
		}
		if a, b := want.LowerBound(k), got.LowerBound(k); a != b {
			t.Fatalf("LowerBound(%d): %d vs %d", k, a, b)
		}
		af, al := want.EqualRange(k)
		bf, bl := got.EqualRange(k)
		if af != bf || al != bl {
			t.Fatalf("EqualRange(%d): [%d,%d) vs [%d,%d)", k, af, al, bf, bl)
		}
	}
	// The restored index keeps absorbing updates like any other.
	loaded.Insert(7, 7, 7)
	loaded.Sync()
	if got.Len()+3 != loaded.Len() {
		t.Fatalf("restored index did not absorb inserts: %d vs %d", got.Len()+3, loaded.Len())
	}
}

// TestSaveShardedCapturesUnsyncedBatches: a save right after Insert and
// Delete returned, with no Sync, holds both batches — the background
// rebuilder may not have absorbed them yet.
func TestSaveShardedCapturesUnsyncedBatches(t *testing.T) {
	keys := make([]uint32, 20000)
	for i := range keys {
		keys[i] = uint32(2 * i)
	}
	x := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 4})
	defer x.Close()
	inserted := make([]uint32, 5000)
	for i := range inserted {
		inserted[i] = uint32(8*i + 1)
	}
	x.Insert(inserted...)
	x.Delete(0, 2, 4)

	var buf bytes.Buffer
	if err := cssidx.SaveSharded(&buf, x); err != nil {
		t.Fatal(err)
	}
	loaded, err := cssidx.LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if want := len(keys) + len(inserted) - 3; loaded.Len() != want {
		t.Fatalf("loaded %d keys, want %d", loaded.Len(), want)
	}
	for _, k := range inserted {
		if loaded.Search(k) < 0 {
			t.Fatalf("inserted key %d missing from the snapshot", k)
		}
	}
	for _, k := range []uint32{0, 2, 4} {
		if loaded.Search(k) >= 0 {
			t.Fatalf("deleted key %d still in the snapshot", k)
		}
	}
}

func TestLoadShardedRejectsCorruption(t *testing.T) {
	g := workload.New(154)
	keys := g.SortedWithDuplicates(10000, 3)
	idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 4})
	defer idx.Close()
	var buf bytes.Buffer
	if err := cssidx.SaveSharded(&buf, idx); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// Flip one key byte deep in the payload: the checksum must catch it.
	corrupt := append([]byte(nil), pristine...)
	corrupt[len(corrupt)-5] ^= 0x40
	if _, err := cssidx.LoadSharded(bytes.NewReader(corrupt)); err == nil {
		t.Error("corrupt snapshot restored")
	}
	// Truncation must be refused too.
	if _, err := cssidx.LoadSharded(bytes.NewReader(pristine[:len(pristine)/2])); err == nil {
		t.Error("truncated snapshot restored")
	}
	// And a wrong magic number.
	bad := append([]byte(nil), pristine...)
	bad[0] ^= 0xff
	if _, err := cssidx.LoadSharded(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic restored")
	}
	// Corrupt header counts must error out, not drive huge allocations:
	// the shard count lives at header offset 8, the key count at 16.
	hugeShards := append([]byte(nil), pristine...)
	hugeShards[10] = 0xff // Shards |= 0xff0000 → ~16M shards
	if _, err := cssidx.LoadSharded(bytes.NewReader(hugeShards)); err == nil {
		t.Error("implausible shard count restored")
	}
	hugeN := append([]byte(nil), pristine...)
	hugeN[22] = 0xff // N |= 0xff << 48
	if _, err := cssidx.LoadSharded(bytes.NewReader(hugeN)); err == nil {
		t.Error("implausible key count restored")
	}
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	g := workload.New(155)
	keys := g.SortedDistinct(20000)
	dir := t.TempDir()

	spath := filepath.Join(dir, "sharded.snap")
	sh := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 4})
	defer sh.Close()
	if err := cssidx.SaveShardedFile(spath, sh); err != nil {
		t.Fatal(err)
	}
	restored, err := cssidx.LoadShardedFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	sameSharded(t, restored, sh)
	// The save must leave no temp litter behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after an atomic save: %v", names)
	}
}

// TestSaveFileAtomicSurvivesTornWrite models the crash the atomic commit
// exists for: a writer that dies mid-stream must leave the previous
// snapshot readable, and a torn prefix written *without* the atomic path
// must be rejected by the checksum rather than restored.
func TestSaveFileAtomicSurvivesTornWrite(t *testing.T) {
	g := workload.New(156)
	keys := g.SortedWithDuplicates(15000, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "sharded.snap")

	sh := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 4})
	defer sh.Close()
	if err := cssidx.SaveShardedFile(path, sh); err != nil {
		t.Fatal(err)
	}

	// Crash simulation 1: a later save dies before its rename — the temp
	// file holds a torn prefix, the committed snapshot is untouched.
	var full bytes.Buffer
	if err := cssidx.SaveSharded(&full, sh); err != nil {
		t.Fatal(err)
	}
	torn := full.Bytes()[:full.Len()/3]
	if err := os.WriteFile(filepath.Join(dir, "sharded.snap.tmp1234"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cssidx.LoadShardedFile(path); err != nil {
		t.Fatalf("committed snapshot unreadable after torn temp write: %v", err)
	}

	// Crash simulation 2: a non-atomic writer tore the snapshot itself —
	// the load must refuse the prefix instead of serving a partial index.
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cssidx.LoadShardedFile(path); err == nil {
		t.Fatal("torn snapshot prefix restored")
	}

	// Re-committing through the atomic path repairs the file in one step.
	if err := cssidx.SaveShardedFile(path, sh); err != nil {
		t.Fatal(err)
	}
	restored, err := cssidx.LoadShardedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
}

// goldenSharded is the sharded index testdata/snapshot/sharded.*.snap hold:
// 300 keys, each value twice, in 3 shards.
func goldenSharded() *cssidx.ShardedIndex[uint32] {
	keys := make([]uint32, 300)
	for i := range keys {
		keys[i] = uint32(5 * (i / 2))
	}
	return cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 3})
}

// sameSharded fails t unless got holds exactly want's keys in want's shards.
func sameSharded(t *testing.T, got, want *cssidx.ShardedIndex[uint32]) {
	t.Helper()
	if got.Len() != want.Len() || got.ShardCount() != want.ShardCount() {
		t.Fatalf("%d keys in %d shards, want %d in %d", got.Len(), got.ShardCount(), want.Len(), want.ShardCount())
	}
	g, w := got.Snapshot(), want.Snapshot()
	for pos := range want.Len() {
		if g.Key(pos) != w.Key(pos) {
			t.Fatalf("Key(%d) = %d, want %d", pos, g.Key(pos), w.Key(pos))
		}
	}
}

// TestSnapshotGoldenFiles pins both versions of the SaveSharded snapshot.
// testdata/snapshot holds a version-1 file written before snapshots ended in
// a CRC-32C trailer and a version-2 file written by the current encoder:
// both must load into the index they were saved from, and a save must still
// write the version-2 bytes.
func TestSnapshotGoldenFiles(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata/snapshot", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	x := goldenSharded()
	defer x.Close()
	for _, version := range []string{"v1", "v2"} {
		loaded, err := cssidx.LoadSharded(bytes.NewReader(read("sharded." + version + ".snap")))
		if err != nil {
			t.Fatalf("sharded %s: %v", version, err)
		}
		sameSharded(t, loaded, x)
		loaded.Close()
	}
	var buf bytes.Buffer
	if err := cssidx.SaveSharded(&buf, x); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), read("sharded.v2.snap")) {
		t.Fatalf("SaveSharded wrote %x", buf.Bytes())
	}
}

// TestSaveShardedBitFlips: every single-bit flip of a sharded snapshot —
// header, boundaries, lengths, keys or trailer — fails to load.
func TestSaveShardedBitFlips(t *testing.T) {
	x := goldenSharded()
	defer x.Close()
	var buf bytes.Buffer
	if err := cssidx.SaveSharded(&buf, x); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	for i := range 8 * len(snap) {
		bad := bytes.Clone(snap)
		bad[i/8] ^= 1 << (i % 8)
		if y, err := cssidx.LoadSharded(bytes.NewReader(bad)); err == nil {
			y.Close()
			t.Fatalf("bit %d of byte %d flipped, snapshot loaded", i%8, i/8)
		}
	}
}

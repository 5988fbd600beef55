package cssidx

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cssidx/internal/failfs"
	"cssidx/internal/wal"
)

func collectKeys(t *testing.T, x *DurableSharded) []uint32 {
	t.Helper()
	x.ShardedIndex.Sync()
	out := make([]uint32, 0, x.Len())
	x.Ascend(0, ^uint32(0), func(pos int, key uint32) bool {
		out = append(out, key)
		return true
	})
	return out
}

func TestDurableShardedRoundTrip(t *testing.T) {
	fsys := failfs.NewMem(1)
	x, err := OpenWAL(fsys, "db", "idx", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(5, 1, 9, 3); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(9); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(7); err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 3, 5, 7}
	got := collectKeys(t, x)
	if len(got) != len(want) {
		t.Fatalf("live keys = %v, want %v", got, want)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything was acknowledged under Always, so everything
	// must come back.
	y, err := OpenWAL(fsys, "db", "idx", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	got = collectKeys(t, y)
	for i, k := range want {
		if i >= len(got) || got[i] != k {
			t.Fatalf("recovered keys = %v, want %v", got, want)
		}
	}
	if y.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", y.LastSeq())
	}
}

func TestDurableShardedCheckpointTruncatesLog(t *testing.T) {
	fsys := failfs.NewMem(2)
	x, err := OpenWAL(fsys, "db", "idx", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 50; i++ {
		if err := x.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	before := x.LogSize()
	if err := x.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := x.LogSize(); after >= before {
		t.Fatalf("Checkpoint did not shrink log: %d -> %d", before, after)
	}
	// Mutations after the checkpoint land on the fresh log and survive.
	if err := x.Insert(1000); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	y, err := OpenWAL(fsys, "db", "idx", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if y.Len() != 51 {
		t.Fatalf("recovered %d keys, want 51", y.Len())
	}
	if y.Search(1000) < 0 {
		t.Fatal("post-checkpoint insert lost")
	}
	if y.Search(49) < 0 {
		t.Fatal("pre-checkpoint insert lost")
	}
}

func TestDurableShardedCrashLosesOnlyUnsynced(t *testing.T) {
	fsys := failfs.NewMem(3)
	// Timerless group commit with a huge byte bound: nothing is synced
	// until we say so.
	x, err := OpenWAL(fsys, "db", "idx", wal.GroupBytes(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := x.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	durable := x.SyncedSeq()
	if err := x.Insert(4, 5, 6); err != nil { // acked but not synced
		t.Fatal(err)
	}
	fsys.SetCrashAt(fsys.OpCount()) // crash now
	fsys.Crash()

	y, err := OpenWAL(fsys, "db", "idx", wal.GroupBytes(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	// The synced prefix must be intact; the unsynced batch may or may
	// not have survived, but never partially: batches are single records.
	if y.LastSeq() < durable {
		t.Fatalf("recovered through seq %d, durable floor was %d", y.LastSeq(), durable)
	}
	for _, k := range []uint32{1, 2, 3} {
		if y.Search(k) < 0 {
			t.Fatalf("synced key %d lost", k)
		}
	}
	has4 := y.Search(4) >= 0
	has6 := y.Search(6) >= 0
	if has4 != has6 {
		t.Fatal("batch {4,5,6} recovered partially")
	}
}

func TestDurableShardedFreshDirectory(t *testing.T) {
	fsys := failfs.NewMem(4)
	x, err := OpenWAL(fsys, "a/b/c", "idx", wal.None())
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(42); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	y, err := OpenWAL(fsys, "a/b/c", "idx", wal.None())
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	// Close syncs the log even under wal.None.
	if y.Search(42) < 0 {
		t.Fatal("key lost across clean close under wal.None")
	}
}

// copyFiles copies each named file from src to dst.
func copyFiles(t *testing.T, src, dst string, names ...string) {
	t.Helper()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableShardedGoldenFiles pins the on-disk formats: testdata/durable
// holds a snapshot + log pair written by an earlier build (Insert, Delete,
// Checkpoint, Insert, Delete), idx.checkpoint.snap the version-1 snapshot a
// Checkpoint of the recovered index wrote then, and idx.checkpoint.v2.snap
// the version-2 one it writes now.  Each snapshot must keep opening to the
// same keys and sequence, and the checkpoint must keep writing the same bytes.
func TestDurableShardedGoldenFiles(t *testing.T) {
	want := []uint32{3, 5, 7, 7, 12, 33, 40, 100}
	open := func(snap, log string) (*DurableSharded, string) {
		t.Helper()
		dir := t.TempDir()
		copyFiles(t, "testdata/durable", dir, snap)
		if err := os.Rename(filepath.Join(dir, snap), filepath.Join(dir, "idx.snap")); err != nil {
			t.Fatal(err)
		}
		if log != "" {
			copyFiles(t, "testdata/durable", dir, log)
		}
		x, err := OpenWAL(nil, dir, "idx", wal.Always())
		if err != nil {
			t.Fatalf("%s: %v", snap, err)
		}
		if got := collectKeys(t, x); !slices.Equal(got, want) {
			t.Fatalf("%s: recovered keys %v, want %v", snap, got, want)
		}
		if x.LastSeq() != 4 {
			t.Fatalf("%s: LastSeq = %d, want 4", snap, x.LastSeq())
		}
		return x, dir
	}
	for _, snap := range []string{"idx.checkpoint.snap", "idx.checkpoint.v2.snap"} {
		x, _ := open(snap, "")
		x.Close()
	}
	x, dir := open("idx.snap", "idx.wal")
	if err := x.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "idx.snap"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/durable/idx.checkpoint.v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("checkpoint wrote %x, golden %x", got, golden)
	}
}

// TestDurableShardedSeqBitFlips: the log sequence a checkpoint records is
// checked like every other snapshot byte, so no single-bit flip of it opens
// (a flipped sequence would skip or replay the wrong log records).
func TestDurableShardedSeqBitFlips(t *testing.T) {
	fsys := failfs.NewMem(5)
	x, err := OpenWAL(fsys, "db", "idx", wal.None())
	if err != nil {
		t.Fatal(err)
	}
	// 300 two-key batches: the sequence, 300, is the only 8-byte run of
	// its value in the snapshot (600 keys, all above a million).
	for i := range uint32(300) {
		if err := x.Insert(1e6+2*i, 1e6+2*i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seq := binary.LittleEndian.AppendUint64(nil, x.LastSeq())
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := failfs.ReadAll(fsys, "db/idx.snap")
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(snap, seq)
	if at < 0 || bytes.Count(snap, seq) != 1 {
		t.Fatalf("sequence %x found %d times in the snapshot", seq, bytes.Count(snap, seq))
	}
	for bit := range 64 {
		bad := bytes.Clone(snap)
		bad[at+bit/8] ^= 1 << (bit % 8)
		writeMemFile(t, fsys, "db/idx.snap", bad)
		if y, err := OpenWAL(fsys, "db", "idx", wal.None()); err == nil {
			y.Close()
			t.Fatalf("sequence bit %d flipped, snapshot opened", bit)
		}
	}
	writeMemFile(t, fsys, "db/idx.snap", snap)
	y, err := OpenWAL(fsys, "db", "idx", wal.None())
	if err != nil {
		t.Fatalf("unflipped snapshot: %v", err)
	}
	defer y.Close()
	if y.LastSeq() != 300 || y.Len() != 600 {
		t.Fatalf("unflipped snapshot: LastSeq %d, %d keys", y.LastSeq(), y.Len())
	}
}

// TestDurableShardedSweepsStaleTemps: an interrupted Checkpoint can leave
// a snapshot temp (idx.snap.tmp*) and a log temp (idx.wal.tmp*) behind on
// a real filesystem; the next open removes both.
func TestDurableShardedSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	x, err := OpenWAL(nil, dir, "idx", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := x.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	for _, litter := range []string{"idx.snap.tmp000001", "idx.wal.tmp000002"} {
		if err := os.WriteFile(filepath.Join(dir, litter), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	y, err := OpenWAL(nil, dir, "idx", wal.Always())
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if y.Len() != 3 {
		t.Fatalf("recovered %d keys, want 3", y.Len())
	}
	names, err := failfs.OS.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"idx.snap", "idx.wal"}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %v after reopen, want %v", names, want)
	}
}

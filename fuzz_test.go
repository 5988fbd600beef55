package cssidx

import (
	"bytes"
	"os"
	"testing"

	"cssidx/internal/failfs"
	"cssidx/internal/wal"
)

// Note: sustained `go test -fuzz=FuzzLoadSharded` sessions on single-CPU
// machines can stall inside the fuzz engine's minimizer (the engine has no
// per-exec timeout); the saved corpus under testdata/fuzz runs clean as
// regular subtests, which is what `go test` and CI execute.
func FuzzLoadSharded(f *testing.F) {
	keys := make([]uint32, 500)
	for i := range keys {
		keys[i] = uint32(7 * i)
	}
	x := NewSharded(keys, ShardedOptions[uint32]{Shards: 4})
	var buf bytes.Buffer
	if err := SaveSharded(&buf, x); err != nil {
		f.Fatal(err)
	}
	x.Close()
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		y, err := LoadSharded(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer y.Close()
		for _, k := range []uint32{0, 7, 3493, 9999} {
			pos := y.Search(k)
			if pos >= y.Len() {
				t.Fatalf("restored sharded: Search(%d) = %d with Len %d", k, pos, y.Len())
			}
		}
	})
}

// writeMemFile stores data at name on fsys; empty data leaves name absent.
func writeMemFile(t *testing.T, fsys failfs.FS, name string, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzOpenWAL feeds arbitrary snapshot and log bytes through OpenWAL's
// recovery: it must return an error or a consistent, writable index —
// never panic.  Seeded from the golden pair in testdata/durable.
func FuzzOpenWAL(f *testing.F) {
	var golden [3][]byte
	for i, name := range []string{"idx.snap", "idx.wal", "idx.checkpoint.snap"} {
		b, err := os.ReadFile("testdata/durable/" + name)
		if err != nil {
			f.Fatal(err)
		}
		golden[i] = b
	}
	f.Add(golden[0], golden[1])
	f.Add(golden[2], []byte{})
	f.Add([]byte{}, golden[1])
	f.Add(golden[0], []byte{})
	f.Fuzz(func(t *testing.T, snap, log []byte) {
		fsys := failfs.NewMem(1)
		writeMemFile(t, fsys, "db/idx.snap", snap)
		writeMemFile(t, fsys, "db/idx.wal", log)
		x, err := OpenWAL(fsys, "db", "idx", wal.None())
		if err != nil {
			return
		}
		defer x.Close()
		n, prev := 0, uint32(0)
		x.Ascend(0, ^uint32(0), func(pos int, key uint32) bool {
			if pos != n || key < prev || x.Search(key) < 0 {
				t.Fatalf("scan[%d] = (pos %d, key %d) after key %d", n, pos, key, prev)
			}
			n, prev = n+1, key
			return true
		})
		if n != x.Len() {
			t.Fatalf("scan saw %d keys, Len %d", n, x.Len())
		}
		if err := x.Insert(7); err != nil {
			t.Fatalf("insert after recovery: %v", err)
		}
		x.ShardedIndex.Sync()
		if x.Len() != n+1 {
			t.Fatalf("Len %d after one insert into %d keys", x.Len(), n)
		}
	})
}

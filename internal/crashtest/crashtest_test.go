package crashtest

import (
	"path/filepath"
	"strings"
	"testing"

	"cssidx"
	"cssidx/internal/failfs"
	"cssidx/internal/mmdb"
	"cssidx/internal/wal"
)

// stride picks how densely the crash matrix samples the op schedule:
// every op normally, every 5th under -short.
func stride(t *testing.T) int {
	if testing.Short() {
		return 5
	}
	return 1
}

func TestShardedCrashMatrix(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol.Mode.String(), func(t *testing.T) {
			t.Parallel()
			points, err := Run(newShardScript(), pol, 42, stride(t))
			if err != nil {
				t.Fatal(err)
			}
			if points == 0 {
				t.Fatal("no crash points exercised")
			}
			t.Logf("verified %d crash points", points)
		})
	}
}

func TestTableCrashMatrix(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol.Mode.String(), func(t *testing.T) {
			t.Parallel()
			points, err := Run(newTableScript(), pol, 99, stride(t))
			if err != nil {
				t.Fatal(err)
			}
			if points == 0 {
				t.Fatal("no crash points exercised")
			}
			t.Logf("verified %d crash points", points)
		})
	}
}

// TestSteadyCheckpointFreesNothing: from the second Checkpoint on, a
// durable store reuses its files — the snapshot spare is overwritten and
// exchanged, the log's header rewritten in place — so its filesystem trace
// holds no operation that frees blocks on a real disk: no truncate, no
// remove, no temp file, no rename onto an existing name.
func TestSteadyCheckpointFreesNothing(t *testing.T) {
	surfaces := map[string]func(fsys *failfs.Mem) (write func(i int) error, ckpt func() error, close func() error){
		"DurableTable": func(fsys *failfs.Mem) (func(int) error, func() error, func() error) {
			d, err := mmdb.OpenDurable(fsys, "db", "t", wal.Always())
			if err != nil {
				t.Fatal(err)
			}
			write := func(i int) error {
				return d.AppendRows(map[string][]uint32{"k": {uint32(i), uint32(i + 1)}, "v": {1, 2}})
			}
			return write, d.Checkpoint, d.Close
		},
		"DurableSharded": func(fsys *failfs.Mem) (func(int) error, func() error, func() error) {
			x, err := cssidx.OpenWAL(fsys, "db", "idx", wal.Always())
			if err != nil {
				t.Fatal(err)
			}
			write := func(i int) error { return x.Insert(uint32(i), uint32(i+1)) }
			return write, x.Checkpoint, x.Close
		},
	}
	for name, open := range surfaces {
		t.Run(name, func(t *testing.T) {
			fsys := failfs.NewMem(1)
			write, ckpt, closeStore := open(fsys)
			for round := 1; round <= 4; round++ {
				for i := 0; i < 3*round; i++ { // the store grows
					if err := write(10*round + i); err != nil {
						t.Fatal(err)
					}
				}
				names, err := fsys.List("db")
				if err != nil {
					t.Fatal(err)
				}
				existing := map[string]bool{}
				for _, n := range names {
					existing[filepath.Join("db", n)] = true
				}
				from := fsys.OpCount()
				if err := ckpt(); err != nil {
					t.Fatal(err)
				}
				if round == 1 {
					continue // the first checkpoint creates the spare
				}
				for _, op := range fsys.Trace()[from:] {
					kind, arg, _ := strings.Cut(op, ":")
					_, target, isRename := strings.Cut(arg, "->")
					if kind == "truncate" || kind == "remove" || kind == "create-temp" ||
						(isRename && kind == "rename" && existing[target]) {
						t.Errorf("checkpoint %d: %s", round, op)
					}
				}
			}
			if err := closeStore(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

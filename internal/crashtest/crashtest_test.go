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

// shardMatrixInput is the sharded crash matrix's workload, as a generator
// input: interleaved insert and delete batches with three checkpoints, so
// crash points land inside appends, syncs, the snapshot save into the
// spare, the exchange, the log's header rewrite, and the directory commits
// around them.  A record is 21+4n bytes for n keys, and each checkpoint's
// records overwrite the previous epoch's from the front: the first record
// after the first checkpoint covers a stale one exactly, the next covers
// one partly.  The last epoch is one-key records, as long as the
// post-recovery insert, so a recovery that kept a record past a hole would
// see it come back.
var shardMatrixInput = []byte{
	2, 0, 1, 1, 0, 0, 1, 42, // the empty set, 256 values, durable
	1, 0, 5, 2, 0, 3, 3, stepInsert, 2, 4, 0, 2, 5, stepCompact, // insert 5, 3, delete 2, insert 2, checkpoint
	6, 0, 5, 7, stepInsert, 1, 8, stepCompact, // exactly over the first record, partly over the second
	9, 0, 1, 10, stepInsert, 1, 11, stepCompact, // one-key records from here on
	12, 0, 1, 13, stepInsert, 1, 14, 0, 1, 15, 0, 1,
}

func TestShardedCrashMatrix(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol.Mode.String(), func(t *testing.T) {
			t.Parallel()
			points, err := Run(&opsScript{data: shardMatrixInput}, pol, 42, stride(t))
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

// TestShardOpsRecover runs the generator's durable leg under every policy:
// batches, Compacts and Checkpoints with crashes at drawn filesystem
// operations, each recovery held to the prefix rule and every surface.
func TestShardOpsRecover(t *testing.T) {
	for leg := 1; leg <= len(Policies()); leg++ {
		ShardFocus{Rows: 400, Span: 1, Shards: 3, Leg: leg, Steps: 60, Inserts: 6, Deletes: 4, Drains: 2, Compacts: 1, Checkpoints: 2, Crashes: 2}.
			Run(t, int64(leg), ShardHooks{}, "recovery", "checkpoint", "tombstones")
	}
}

// TestDeleteThenInsertRecovers: a durable Delete of keys with no occurrence
// left, then an Insert of the same keys with no Sync between, answers the
// call order live (one occurrence each) and again after every crash, under
// every policy: the log replays its records in the same order the live
// index applied them.
func TestDeleteThenInsertRecovers(t *testing.T) {
	for leg := 1; leg <= len(Policies()); leg++ {
		ShardFocus{Rows: 200, Span: 1, Shards: 4, Leg: leg, Steps: 40, Batch: 64, Inserts: 2, Deletes: 1, Reinserts: 4, Crashes: 2}.
			Run(t, int64(leg), ShardHooks{}, "delete then insert of a missing key", "recovery")
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
